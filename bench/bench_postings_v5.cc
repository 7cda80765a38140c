// v5 packed-postings benchmark + self-check (BENCH_postings_v5.json).
//
// Over a Wikipedia-like corpus (default 1,000,000 documents; override
// with GRAFT_BENCH_DOCS):
//
//   * v5 file size (delta + bit-packed blocks) and save time;
//   * cold QPS — a query sweep on a freshly mapped index whose block
//     cache starts empty, so every touched block pays mmap page-in plus
//     bit-unpack;
//   * warm QPS — the same sweep repeated with the decoded working set
//     resident; the gap is the decode + fault tax the cache amortizes;
//   * cache hit rate over the whole run (snapshot of the metered cache);
//   * SCORE SELF-CHECK — every query × scheme is executed on both the
//     materialized index (an eager LoadIndex of the same v5 file) and the
//     mapped v5 index and compared for
//     bit-identical (doc, score) results. Any mismatch prints the
//     divergence and EXITS NON-ZERO: a wrong decode must fail the bench
//     job, not ship a pretty number.
//
// Timing follows the paper's methodology (Section 8) for the warm
// numbers; the cold number is necessarily a single pass (repeating it
// would warm the cache it is defined to miss).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "index/block_cache.h"
#include "index/index_io.h"
#include "index/inverted_index.h"

namespace {

struct BenchQuery {
  const char* text;
  const char* scheme;
};

// Mixes frequent and mid-frequency vocabulary, conjunctions,
// disjunctions, and a positional constraint, across schemes whose gates
// license different operators (block-max pruning, rank engine, plain
// streaming).
const BenchQuery kQueries[] = {
    {"free software", "MeanSum"},
    {"free software", "AnySum"},
    {"free | software | windows", "AnySum"},
    {"free | software | windows", "Lucene"},
    {"county line service", "MeanSum"},
    {"image | species | fishing", "AnySum"},
    {"(free software)WINDOW[20] system", "MeanSum"},
    {"city county | service line", "Lucene"},
};

double FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0.0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size <= 0 ? 0.0 : static_cast<double>(size);
}

// Runs the full sweep once; returns total queries executed. Aborts the
// process on any engine error.
size_t RunSweep(const graft::core::Engine& engine) {
  size_t executed = 0;
  for (const BenchQuery& q : kQueries) {
    graft::core::SearchOptions options;
    options.top_k = 10;
    auto result = engine.Search(q.text, q.scheme, options);
    if (!result.ok()) {
      std::fprintf(stderr, "query '%s' (%s) failed: %s\n", q.text, q.scheme,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    ++executed;
  }
  return executed;
}

// The self-check: identical (doc, score) sequences, bit for bit.
// Returns false (after printing the divergence) on mismatch.
bool ScoresMatch(const graft::core::Engine& reference,
                 const graft::core::Engine& packed) {
  bool ok = true;
  for (const BenchQuery& q : kQueries) {
    graft::core::SearchOptions options;
    options.top_k = 100;
    auto want = reference.Search(q.text, q.scheme, options);
    auto got = packed.Search(q.text, q.scheme, options);
    if (!want.ok() || !got.ok()) {
      std::fprintf(stderr, "self-check query '%s' (%s) failed: %s / %s\n",
                   q.text, q.scheme, want.status().ToString().c_str(),
                   got.status().ToString().c_str());
      return false;
    }
    if (got->results.size() != want->results.size()) {
      std::fprintf(stderr,
                   "SELF-CHECK MISMATCH '%s' (%s): %zu results vs %zu\n",
                   q.text, q.scheme, got->results.size(),
                   want->results.size());
      ok = false;
      continue;
    }
    for (size_t i = 0; i < want->results.size(); ++i) {
      if (got->results[i].doc != want->results[i].doc ||
          got->results[i].score != want->results[i].score) {
        std::fprintf(stderr,
                     "SELF-CHECK MISMATCH '%s' (%s) rank %zu: "
                     "doc %u score %.17g vs doc %u score %.17g\n",
                     q.text, q.scheme, i, got->results[i].doc,
                     got->results[i].score, want->results[i].doc,
                     want->results[i].score);
        ok = false;
        break;
      }
    }
  }
  return ok;
}

}  // namespace

int main() {
  using graft::bench::MeasureSeconds;

  const graft::index::InvertedIndex& index = graft::bench::SharedBenchIndex();
  const uint64_t docs = index.doc_count();

  const std::string v5_path = "graft_bench_postings_v5_scratch.idx";

  // --- file size ---
  const double save_v5_s = MeasureSeconds([&] {
    if (!graft::index::SaveIndex(index, v5_path).ok()) std::exit(1);
  });
  const double v5_bytes = FileSizeBytes(v5_path);
  std::printf("format_size_v5               %8.1f MB\n", v5_bytes / 1048576);

  // --- mapped load + cold sweep (empty cache) ---
  auto cache =
      std::make_shared<graft::index::BlockCache>(size_t{256} << 20);
  graft::index::MappedLoadOptions mapped_options;
  mapped_options.cache = cache;
  auto mapped = graft::index::LoadIndexMapped(v5_path, mapped_options);
  if (!mapped.ok()) {
    std::fprintf(stderr, "mapped load failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  graft::core::Engine packed_engine(&*mapped);

  double cold_qps = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    const size_t n = RunSweep(packed_engine);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    cold_qps = static_cast<double>(n) / seconds;
    std::printf("cold_qps                     %8.1f q/s\n", cold_qps);
  }

  // --- warm sweep (working set decoded and resident) ---
  double warm_qps = 0.0;
  {
    const double seconds = MeasureSeconds([&] { RunSweep(packed_engine); });
    warm_qps = static_cast<double>(std::size(kQueries)) / seconds;
    std::printf("warm_qps                     %8.1f q/s\n", warm_qps);
  }

  // --- reference: the same sweep on the materialized index ---
  auto eager = graft::index::LoadIndex(v5_path);
  if (!eager.ok()) {
    std::fprintf(stderr, "eager load failed: %s\n",
                 eager.status().ToString().c_str());
    return 1;
  }
  graft::core::Engine eager_engine(&*eager);
  double eager_qps = 0.0;
  {
    const double seconds = MeasureSeconds([&] { RunSweep(eager_engine); });
    eager_qps = static_cast<double>(std::size(kQueries)) / seconds;
    std::printf("materialized_qps             %8.1f q/s\n", eager_qps);
  }

  const graft::index::BlockCache::Snapshot snap = cache->snapshot();
  const double lookups = static_cast<double>(snap.hits + snap.misses);
  const double hit_rate =
      lookups > 0 ? static_cast<double>(snap.hits) / lookups : 0.0;
  std::printf("cache_hit_rate               %8.1f %% (%llu hits, %llu "
              "misses, %llu evictions)\n",
              hit_rate * 100.0, static_cast<unsigned long long>(snap.hits),
              static_cast<unsigned long long>(snap.misses),
              static_cast<unsigned long long>(snap.evictions));

  // --- score self-check: the number that actually gates the job ---
  const bool scores_ok = ScoresMatch(eager_engine, packed_engine);
  std::printf("score_self_check             %s\n",
              scores_ok ? "ok (bit-identical)" : "MISMATCH");

  std::FILE* out = std::fopen("BENCH_postings_v5.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"benchmark\": \"postings_v5\",\n");
    std::fprintf(out, "  \"doc_count\": %llu,\n",
                 static_cast<unsigned long long>(docs));
    graft::bench::WriteHostParallelismFields(out, 1);
    std::fprintf(out, "  \"v5_bytes\": %.0f,\n", v5_bytes);
    std::fprintf(out, "  \"save_v5_s\": %.4f,\n", save_v5_s);
    std::fprintf(out, "  \"queries\": %zu,\n", std::size(kQueries));
    std::fprintf(out, "  \"cold_qps\": %.2f,\n", cold_qps);
    std::fprintf(out, "  \"warm_qps\": %.2f,\n", warm_qps);
    std::fprintf(out, "  \"materialized_qps\": %.2f,\n", eager_qps);
    std::fprintf(out, "  \"cache_hits\": %llu,\n",
                 static_cast<unsigned long long>(snap.hits));
    std::fprintf(out, "  \"cache_misses\": %llu,\n",
                 static_cast<unsigned long long>(snap.misses));
    std::fprintf(out, "  \"cache_evictions\": %llu,\n",
                 static_cast<unsigned long long>(snap.evictions));
    std::fprintf(out, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
    std::fprintf(out, "  \"score_self_check\": \"%s\"\n",
                 scores_ok ? "ok" : "mismatch");
    std::fprintf(out, "}\n");
    std::fclose(out);
  }

  // v5 scratch stays mapped until `mapped` dies; remove after use is safe
  // on POSIX (the mapping pins the inode), but exit is cleaner.
  std::remove(v5_path.c_str());
  return scores_ok ? 0 : 1;
}
