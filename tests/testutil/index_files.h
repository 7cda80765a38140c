// Shared helpers for the index-file tests: seeded corpora, scratch paths,
// whole-file byte I/O and the committed v3/v4 fixtures.
//
// tests/index/fixtures/ holds index files in the two read-only formats,
// written by the v3/v4 writers before v5 became the only written format:
//   small60_v3.idx, small60_v4.idx  SeededCorpusIndex(60, 7)
//   tiny8_v4.idx                    SeededCorpusIndex(8, 21)
// The corpus generator is deterministic, so each fixture must load into
// an index equal to the builder's output for the same seed.

#ifndef GRAFT_TESTS_TESTUTIL_INDEX_FILES_H_
#define GRAFT_TESTS_TESTUTIL_INDEX_FILES_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "index/inverted_index.h"
#include "text/corpus.h"

namespace graft::testutil {

inline index::InvertedIndex SeededCorpusIndex(uint64_t docs, uint64_t seed) {
  text::CorpusConfig config = text::WikipediaLikeConfig(docs, seed);
  index::IndexBuilder builder;
  text::CorpusGenerator generator(config);
  generator.Generate(
      [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
        builder.AddDocument(tokens);
      });
  return builder.Build();
}

// PID-unique: ctest runs each test as its own process, in parallel,
// against the same TempDir — shared names would race.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/graft_" + std::to_string(::getpid()) +
         "_" + name;
}

inline std::string FixturePath(const std::string& name) {
  return std::string(GRAFT_TEST_FIXTURE_DIR) + "/" + name;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

}  // namespace graft::testutil

#endif  // GRAFT_TESTS_TESTUTIL_INDEX_FILES_H_
