// Shared benchmark infrastructure.
//
// Corpus: a Wikipedia-like synthetic collection (default 30k documents,
// ~7M words; override with GRAFT_BENCH_DOCS). Built once and cached on
// disk next to the build tree so the eleven bench binaries don't each pay
// generation + indexing.
//
// Timing follows the paper's methodology (Section 8): each measurement is
// repeated nine times in succession and we report the average of the five
// median times. All measurements are warm-cache and single-threaded.

#ifndef GRAFT_BENCH_BENCH_UTIL_H_
#define GRAFT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "index/index_io.h"
#include "index/inverted_index.h"
#include "text/corpus.h"

namespace graft::bench {

inline uint64_t BenchDocCount() {
  const char* env = std::getenv("GRAFT_BENCH_DOCS");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<uint64_t>(parsed);
  }
  return 30000;
}

inline const index::InvertedIndex& SharedBenchIndex() {
  static const index::InvertedIndex& index = *[] {
    const uint64_t docs = BenchDocCount();
    // Bump the name whenever WikipediaLikeConfig changes, so a stale
    // corpus is rebuilt rather than loaded. The number is the format
    // SaveIndex writes; every readable format loads with block-max data.
    const std::string cache_path =
        "graft_bench_v5_" + std::to_string(docs) + ".idx";
    auto loaded = index::LoadIndex(cache_path);
    if (loaded.ok()) {
      std::fprintf(stderr, "[bench] loaded cached index %s\n",
                   cache_path.c_str());
      return new index::InvertedIndex(std::move(loaded).value());
    }
    std::fprintf(stderr,
                 "[bench] building %llu-document corpus (cache miss)...\n",
                 static_cast<unsigned long long>(docs));
    text::CorpusConfig config = text::WikipediaLikeConfig(docs);
    index::IndexBuilder builder;
    text::CorpusGenerator generator(config);
    generator.Generate(
        [&builder](uint64_t, const std::vector<std::string_view>& tokens) {
          builder.AddDocument(tokens);
        });
    auto* built = new index::InvertedIndex(builder.Build());
    const Status saved = index::SaveIndex(*built, cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "[bench] cache save failed: %s\n",
                   saved.ToString().c_str());
    }
    std::fprintf(stderr, "[bench] corpus: %llu docs, %llu words, %zu terms\n",
                 static_cast<unsigned long long>(built->doc_count()),
                 static_cast<unsigned long long>(built->total_words()),
                 built->term_count());
    return built;
  }();
  return index;
}

// Every bench JSON writer records the host's core count next to the
// parallelism the sweep asked for. A result measured on a machine with
// fewer cores than the sweep's widest segment/thread configuration
// understates parallel speedups; the artifact carries an explicit
// "warning" field in that case instead of leaving the reader to notice.
// Emits into an open JSON object; trailing comma included.
inline void WriteHostParallelismFields(std::FILE* out, size_t max_parallel) {
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", cores);
  if (cores != 0 && max_parallel > cores) {
    std::fprintf(out,
                 "  \"warning\": \"sweep requests %zu-way parallelism but "
                 "the host reports %u cores; parallel speedups are "
                 "understated\",\n",
                 max_parallel, cores);
  }
}

// Paper methodology: nine repetitions, average of the five medians. For
// sub-millisecond work, each repetition is an inner loop calibrated to run
// at least ~10 ms so clock granularity and scheduler noise wash out; the
// reported time is per single execution.
inline double MeasureSeconds(const std::function<void()>& fn) {
  // Calibrate the inner repetition count.
  uint64_t inner = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < inner; ++i) {
      fn();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (elapsed >= 0.01 || inner >= (1u << 20)) {
      break;
    }
    inner *= elapsed <= 0.001 ? 8 : 2;
  }

  std::vector<double> times;
  times.reserve(9);
  for (int run = 0; run < 9; ++run) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < inner; ++i) {
      fn();
    }
    const auto end = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(end - start).count() /
                    static_cast<double>(inner));
  }
  std::sort(times.begin(), times.end());
  double total = 0.0;
  for (int i = 2; i <= 6; ++i) {
    total += times[i];
  }
  return total / 5.0;
}

struct PaperQuery {
  const char* name;
  const char* text;
  bool baseline_supported;  // Lucene/Terrier support (no WINDOW)
};

// The paper's evaluation queries (Section 8).
inline constexpr PaperQuery kPaperQueries[] = {
    {"Q4", "san francisco fault line", true},
    {"Q5",
     "dinosaur species list (image | picture | drawing | illustration)",
     true},
    {"Q6", "\"orange county convention center\" orlando", true},
    {"Q7", "\"san francisco\" \"fault line\"", true},
    {"Q8", "(windows emulator)WINDOW[50] (foss | \"free software\")", false},
    {"Q9", "(free wireless internet)PROXIMITY[10] service", true},
    {"Q10", "arizona ((fishing | hunting) (rules | regulations))WINDOW[20]",
     false},
    {"Q11",
     "\"rick warren\" (obama inauguration)PROXIMITY[4] "
     "(controversy invocation)PROXIMITY[15]",
     true},
};

}  // namespace graft::bench

#endif  // GRAFT_BENCH_BENCH_UTIL_H_
