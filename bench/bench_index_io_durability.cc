// Durability-tax microbenchmark for the index persistence path (v5).
//
// Quantifies what crash safety costs on this machine:
//   * CRC32C throughput (the per-byte checksum tax on save AND load);
//   * SaveIndex — the full atomic protocol: temp file, per-section CRC,
//     fsync(file), rename, fsync(directory);
//   * LoadIndex — parse + verify every section checksum.
//
// Methodology matches the other benches (paper §8): nine repetitions,
// average of the five medians. Durable writes care about the fsync, so
// runs are NOT meaningfully comparable across filesystems — treat the
// output as a per-machine profile, not a cross-machine score.
//
//   GRAFT_BENCH_DOCS=N   corpus size (default 30000)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32c.h"
#include "index/index_io.h"
#include "index/inverted_index.h"

namespace {

double FileSizeMb(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0.0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size <= 0 ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

}  // namespace

int main() {
  using graft::bench::MeasureSeconds;

  // --- raw CRC32C throughput ---
  {
    std::vector<char> buffer(64 * 1024 * 1024);
    for (size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] = static_cast<char>((i * 131) & 0xFF);
    }
    volatile uint32_t sink = 0;
    const double seconds = MeasureSeconds([&] {
      sink = graft::common::Crc32c(buffer.data(), buffer.size());
    });
    (void)sink;
    const double mb = static_cast<double>(buffer.size()) / (1024.0 * 1024.0);
    std::printf("crc32c_throughput            %8.0f MB/s\n", mb / seconds);
  }

  const graft::index::InvertedIndex& index = graft::bench::SharedBenchIndex();
  const std::string path = "graft_bench_durability_scratch.idx";

  // --- SaveIndex: full atomic-rename + fsync protocol ---
  {
    const double seconds = MeasureSeconds([&] {
      const graft::Status saved = graft::index::SaveIndex(index, path);
      if (!saved.ok()) {
        std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
        std::exit(1);
      }
    });
    const double mb = FileSizeMb(path);
    std::printf("save_atomic_fsync            %8.1f ms   (%.1f MB, %.0f MB/s)\n",
                seconds * 1e3, mb, mb / seconds);
  }

  // --- LoadIndex: parse + verify every section CRC ---
  {
    const double seconds = MeasureSeconds([&] {
      auto loaded = graft::index::LoadIndex(path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     loaded.status().ToString().c_str());
        std::exit(1);
      }
    });
    const double mb = FileSizeMb(path);
    std::printf("load_verify_checksums        %8.1f ms   (%.1f MB, %.0f MB/s)\n",
                seconds * 1e3, mb, mb / seconds);
  }

  std::remove(path.c_str());
  return 0;
}
