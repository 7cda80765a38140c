// PostingCursor reads both posting bodies through one block view: a
// decoded list hands out slices of the arrays its index owns, a v5-mapped
// list decoded blocks from the block cache. The contract under test: for
// the same logical list, the same scripted walk (Next, SkipTo, tf,
// offsets) gives the same sequence over every storage owner (builder
// arrays, v3/v4 conversion columns, eager v5 columns, the mapped file),
// under doc ranges whose edges sit on block boundaries (postings
// 127/128/129), mid-block, and at the list end, with skips at and past
// the range end, and again after every index is moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "index/index_io.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "testutil/index_files.h"

namespace graft::index {
namespace {

using testutil::FixturePath;
using testutil::TempPath;

// What the walk observed after one step. Payload fields are filled only
// on steps that read them, so doc-id-only stretches stay doc-id-only.
struct Step {
  bool at_end = false;
  size_t position = 0;
  DocId doc = 0;
  uint32_t tf = 0;
  std::vector<Offset> offsets;

  bool operator==(const Step&) const = default;
};

// The scripted walk: SkipTo each target in turn; on every other target
// read tf and offsets there, then step once with Next and read the doc.
std::vector<Step> Walk(const PostingList& list, DocRange range,
                       const std::vector<DocId>& targets) {
  PostingCursor cursor(&list, range);
  std::vector<Step> steps;
  const auto record = [&](bool payload) {
    Step step;
    step.at_end = cursor.AtEnd();
    step.position = cursor.position();
    if (!step.at_end) {
      step.doc = cursor.doc();
      if (payload) {
        step.tf = cursor.tf();
        const std::span<const Offset> offsets = cursor.offsets();
        step.offsets.assign(offsets.begin(), offsets.end());
      }
    }
    steps.push_back(std::move(step));
  };
  record(true);
  for (size_t i = 0; i < targets.size(); ++i) {
    cursor.SkipTo(targets[i]);
    record(i % 2 == 0);
    if (!cursor.AtEnd()) {
      cursor.Next();
      record(false);
    }
  }
  return steps;
}

// Posting indexes the ranges start and end at: block edges, mid-block,
// and the list end, clipped to the list.
std::vector<size_t> EdgePostings(size_t n) {
  std::vector<size_t> edges;
  for (const size_t p : {size_t{0}, size_t{64}, size_t{127}, size_t{128},
                         size_t{129}, size_t{255}, size_t{256}, n - 1, n}) {
    if (p <= n) edges.push_back(p);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

// Doc id at posting p, or one past the last doc for p == n.
DocId DocAtOrPast(const PostingList& list, size_t p) {
  return p < list.doc_count() ? list.doc_at(p)
                              : list.doc_at(list.doc_count() - 1) + 1;
}

// Posting index of the first posting >= target at or after `from`, or
// `end` — a linear scan, the reference for the cursor's galloping skips.
size_t ReferenceSkip(const PostingList& list, size_t from, size_t end,
                     DocId target) {
  size_t p = from;
  while (p < end && list.doc_at(p) < target) ++p;
  return p;
}

// The terms worth walking: the longest lists (many blocks) and a few short
// ones (a single partial block).
std::vector<TermId> WalkTerms(const InvertedIndex& index) {
  std::vector<TermId> terms(index.term_count());
  for (TermId t = 0; t < index.term_count(); ++t) terms[t] = t;
  std::sort(terms.begin(), terms.end(), [&](TermId a, TermId b) {
    if (index.DocFreq(a) != index.DocFreq(b)) {
      return index.DocFreq(a) > index.DocFreq(b);
    }
    return a < b;
  });
  std::vector<TermId> picked(terms.begin(),
                             terms.begin() + std::min<size_t>(4, terms.size()));
  for (size_t i = terms.size() / 2; i < terms.size() && picked.size() < 7;
       i += terms.size() / 8 + 1) {
    picked.push_back(terms[i]);
  }
  return picked;
}

// Walks the picked terms of bodies[0] (the reference) over every edge
// range on each body: every body's walk must equal the reference's, and
// the reference's must land where a linear scan says.
void ExpectWalksAgree(const std::vector<InvertedIndex>& bodies,
                      const std::vector<std::string>& names,
                      size_t min_longest) {
  const InvertedIndex& reference = bodies.front();
  const std::vector<TermId> terms = WalkTerms(reference);
  ASSERT_GE(reference.DocFreq(terms.front()), min_longest);

  for (const TermId t : terms) {
    const PostingList& heap = reference.postings(t);
    const size_t n = heap.doc_count();
    const std::vector<size_t> edges = EdgePostings(n);
    // Targets on, between and past every edge, then past the list.
    std::vector<DocId> targets;
    for (const size_t p : edges) {
      const DocId doc = DocAtOrPast(heap, p);
      if (doc > 0) targets.push_back(doc - 1);
      targets.push_back(doc);
      targets.push_back(doc + 1);
    }
    targets.push_back(kInvalidDoc);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

    std::vector<DocRange> ranges = {DocRange{}};
    for (const size_t lo : edges) {
      for (const size_t hi : edges) {
        if (lo <= hi) {
          ranges.push_back({DocAtOrPast(heap, lo), DocAtOrPast(heap, hi)});
        }
      }
      ranges.push_back({DocAtOrPast(heap, lo), kInvalidDoc});
    }
    for (const DocRange range : ranges) {
      SCOPED_TRACE("term " + reference.TermText(t) + " range [" +
                   std::to_string(range.doc_lo) + ", " +
                   std::to_string(range.doc_hi) + ")");
      const std::vector<Step> want = Walk(heap, range, targets);
      for (size_t i = 1; i < bodies.size(); ++i) {
        ASSERT_EQ(Walk(bodies[i].postings(t), range, targets), want)
            << names[i];
      }
      // The reference walk itself lands where a linear scan says.
      const size_t end = ReferenceSkip(heap, 0, n, range.doc_hi);
      size_t at = ReferenceSkip(heap, 0, end, range.doc_lo);
      ASSERT_EQ(want[0].position, at);
      size_t s = 1;
      for (const DocId target : targets) {
        at = target >= range.doc_hi ? end
                                    : ReferenceSkip(heap, at, end, target);
        ASSERT_EQ(want[s].position, at) << "target " << target;
        ASSERT_EQ(want[s].at_end, at == end) << "target " << target;
        ++s;
        if (at < end) {
          ++at;
          ++s;
        }
      }
      ASSERT_EQ(s, want.size());
    }
  }
}

TEST(PostingCursorTest, InHeapAndMappedWalksAgree) {
  struct Source {
    std::string name;
    InvertedIndex index;
    size_t min_longest;  // the longest list must span this many postings
  };
  std::vector<Source> sources;
  sources.push_back({"built 1200 docs", testutil::SeededCorpusIndex(1200, 5),
                     3 * PostingList::kBlockSize});
  auto fixture = LoadIndex(FixturePath("small60_v4.idx"));
  ASSERT_TRUE(fixture.ok()) << fixture.status();
  sources.push_back({"v4 fixture, eager", std::move(*fixture), 1});

  for (Source& source : sources) {
    SCOPED_TRACE(source.name);
    const std::string path = TempPath("cursor_walk.idx");
    ASSERT_TRUE(SaveIndexV5(source.index, path).ok());
    auto mapped = LoadIndexMapped(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    ASSERT_TRUE(mapped->is_packed());
    auto eager = LoadIndex(path);
    ASSERT_TRUE(eager.ok()) << eager.status();
    ASSERT_FALSE(eager->is_packed());
    std::remove(path.c_str());

    const std::vector<std::string> names = {source.name, "v5 mapped",
                                            "v5 eager"};
    std::vector<InvertedIndex> bodies;
    bodies.push_back(std::move(source.index));
    bodies.push_back(std::move(*mapped));
    bodies.push_back(std::move(*eager));
    ASSERT_NO_FATAL_FAILURE(
        ExpectWalksAgree(bodies, names, source.min_longest));

    // The lists view arrays their index owns: moving every index and
    // destroying the moved-from ones must leave every walk unchanged.
    std::vector<InvertedIndex> moved;
    for (InvertedIndex& body : bodies) moved.push_back(std::move(body));
    bodies.clear();
    SCOPED_TRACE("after moving every index");
    ASSERT_NO_FATAL_FAILURE(
        ExpectWalksAgree(moved, names, source.min_longest));
  }
}

}  // namespace
}  // namespace graft::index
