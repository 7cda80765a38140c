// LoadIndex hardening: truncated, bit-flipped, wrong-version, and
// length-inflated index files must all come back as a clean non-ok Status
// — never a crash, never undefined behavior, and never a giant
// allocation driven by a corrupt length field.
//
// Every format checksums every byte it stores (CRC32C), so the contract
// is stronger than "doesn't crash": EVERY corrupted or truncated file is
// rejected, with the failure class encoded in the status code —
//   kDataLoss        truncation / short read / bad magic
//   kVersionMismatch format-version skew
//   kCorruption      checksum mismatch or impossible structure
// The format-generic cases run on the committed v4 fixture and on what
// SaveIndex writes today (v5); the cases that name v4 byte offsets run on
// the fixture only.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "index/index_io.h"
#include "index/inverted_index.h"
#include "testutil/index_files.h"

namespace graft::index {
namespace {

using testutil::ReadFile;
using testutil::TempPath;
using testutil::WriteFile;

enum class Source { kV4Fixture, kSaveIndex };

// One 60-document corpus either way: the v4 fixture holds the same
// SeededCorpusIndex(60, 7) that the kSaveIndex case writes.
class IndexIoCorruptionTest : public ::testing::TestWithParam<Source> {
 protected:
  void SetUp() override {
    if (GetParam() == Source::kV4Fixture) {
      path_ = testutil::FixturePath("small60_v4.idx");
    } else {
      path_ = TempPath("corruption.idx");
      ASSERT_TRUE(SaveIndex(testutil::SeededCorpusIndex(60, 7), path_).ok());
    }
    bytes_ = ReadFile(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }

  std::string path_;
  std::string bytes_;
};

// Cases that walk the v4 layout by byte offset.
using IndexIoV4CorruptionTest = IndexIoCorruptionTest;

TEST_P(IndexIoCorruptionTest, IntactFileRoundTrips) {
  auto loaded = LoadIndex(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->doc_count(), 60u);
}

TEST_P(IndexIoCorruptionTest, TruncationAtEveryRegionFailsCleanly) {
  // Truncation points: inside the magic, inside the header scalars,
  // inside the doc-length array, and a dense sweep over the postings
  // region — every one must load as a non-ok Status.
  std::vector<size_t> cuts = {0, 1, 4, 7, 8, 9, 15, 16, 23, 24, 31};
  for (size_t cut = 32; cut < bytes_.size();
       cut += 1 + bytes_.size() / 257) {
    cuts.push_back(cut);
  }
  cuts.push_back(bytes_.size() - 1);
  const std::string truncated_path = TempPath("truncated.idx");
  for (const size_t cut : cuts) {
    ASSERT_LT(cut, bytes_.size());
    WriteFile(truncated_path, bytes_.substr(0, cut));
    auto loaded = LoadIndex(truncated_path);
    ASSERT_FALSE(loaded.ok()) << "truncation at " << cut
                              << " unexpectedly loaded";
    // Truncation is kDataLoss, except when the shrunken file trips the
    // term-count plausibility check first (kCorruption) — never any other
    // class, and never kVersionMismatch (the version byte is intact).
    EXPECT_TRUE(loaded.status().code() == StatusCode::kDataLoss ||
                loaded.status().code() == StatusCode::kCorruption)
        << "truncation at " << cut << ": " << loaded.status();
  }
}

TEST_P(IndexIoCorruptionTest, MidPayloadTruncationIsDataLoss) {
  // Chop the file in the middle of the postings region: the loader hits a
  // short read and must say so with kDataLoss specifically.
  const std::string truncated_path = TempPath("truncated_tail.idx");
  WriteFile(truncated_path, bytes_.substr(0, bytes_.size() - 9));
  auto loaded = LoadIndex(truncated_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status();
}

TEST_P(IndexIoCorruptionTest, BadMagicRejected) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  const std::string corrupt_path = TempPath("badmagic.idx");
  WriteFile(corrupt_path, corrupt);
  auto loaded = LoadIndex(corrupt_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST_P(IndexIoCorruptionTest, WrongFormatVersionRejectedDistinctly) {
  std::string corrupt = bytes_;
  corrupt[7] = '1';  // version byte; magic prefix intact
  const std::string corrupt_path = TempPath("badversion.idx");
  WriteFile(corrupt_path, corrupt);
  auto loaded = LoadIndex(corrupt_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kVersionMismatch);
  EXPECT_NE(loaded.status().message().find("format version"),
            std::string::npos)
      << loaded.status().message();
}

TEST_P(IndexIoV4CorruptionTest,
       InflatedLengthFieldsRejectedBeforeAllocating) {
  // Overwrite each of the first few u64 length/count fields with a huge
  // value; the loader must refuse (length exceeds remaining bytes or
  // count mismatch) rather than resize to petabytes.
  const size_t u64_offsets[] = {8, 24};  // doc_count, doc_lengths size
  for (const size_t offset : u64_offsets) {
    std::string corrupt = bytes_;
    for (size_t b = 0; b < 8; ++b) {
      corrupt[offset + b] = static_cast<char>(0xFF);
    }
    const std::string corrupt_path = TempPath("inflated.idx");
    WriteFile(corrupt_path, corrupt);
    auto loaded = LoadIndex(corrupt_path);
    EXPECT_FALSE(loaded.ok()) << "inflated u64 at offset " << offset;
  }
}

TEST_P(IndexIoCorruptionTest, EveryByteFlipIsRejectedWithTheRightClass) {
  // Deterministic sweep of single-byte flips across the file. Every byte
  // of the file is covered by the magic comparison, the version check, a
  // checksum, or (v5) a zero-padding check — so EVERY flip must be
  // rejected, and the status code must name the right failure class:
  //   offsets 0..6  magic          -> kDataLoss
  //   offset  7     version byte   -> kVersionMismatch
  //   offsets 8..   section data   -> kCorruption (checksum/structure) or
  //                                   kDataLoss (a flipped length field
  //                                   can fail the remaining-bytes check
  //                                   before its section CRC is reached)
  const std::string corrupt_path = TempPath("bitflip.idx");
  const size_t stride = 1 + bytes_.size() / 509;
  std::vector<size_t> offsets;
  for (size_t offset = 0; offset < 48 && offset < bytes_.size(); ++offset) {
    offsets.push_back(offset);  // dense over magic/version/header scalars
  }
  for (size_t offset = 48; offset < bytes_.size(); offset += stride) {
    offsets.push_back(offset);
  }
  offsets.push_back(bytes_.size() - 1);  // inside the final section CRC
  for (const size_t offset : offsets) {
    std::string corrupt = bytes_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5A);
    WriteFile(corrupt_path, corrupt);
    auto loaded = LoadIndex(corrupt_path);
    ASSERT_FALSE(loaded.ok())
        << "flip at offset " << offset << " went undetected";
    const StatusCode code = loaded.status().code();
    if (offset < 7) {
      EXPECT_EQ(code, StatusCode::kDataLoss) << "offset " << offset;
    } else if (offset == 7) {
      EXPECT_EQ(code, StatusCode::kVersionMismatch) << "offset " << offset;
    } else {
      EXPECT_TRUE(code == StatusCode::kCorruption ||
                  code == StatusCode::kDataLoss)
          << "offset " << offset << ": " << loaded.status();
    }
  }
}

TEST_P(IndexIoV4CorruptionTest, ChecksumByteFlipIsCorruption) {
  // The 4 bytes right after the doc-length payload are the header
  // section's stored CRC; flipping one must read back as kCorruption with
  // a message naming the section.
  const size_t doc_lengths_offset = 8 + 8 + 8 + 8;  // magic+ver, 2 u64s, len
  const size_t header_crc_offset = doc_lengths_offset + 60 * sizeof(uint32_t);
  ASSERT_LT(header_crc_offset + 3, bytes_.size());
  std::string corrupt = bytes_;
  corrupt[header_crc_offset] =
      static_cast<char>(corrupt[header_crc_offset] ^ 0xFF);
  const std::string corrupt_path = TempPath("badcrc.idx");
  WriteFile(corrupt_path, corrupt);
  auto loaded = LoadIndex(corrupt_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("header section"),
            std::string::npos)
      << loaded.status().message();
}

INSTANTIATE_TEST_SUITE_P(
    Formats, IndexIoCorruptionTest,
    ::testing::Values(Source::kV4Fixture, Source::kSaveIndex),
    [](const ::testing::TestParamInfo<Source>& info) {
      return info.param == Source::kV4Fixture ? "V4Fixture" : "SaveIndex";
    });
INSTANTIATE_TEST_SUITE_P(Formats, IndexIoV4CorruptionTest,
                         ::testing::Values(Source::kV4Fixture),
                         [](const ::testing::TestParamInfo<Source>&) {
                           return "V4Fixture";
                         });

TEST(IndexIoTest, MissingFileIsIOError) {
  auto loaded = LoadIndex(TempPath("does-not-exist.idx"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace graft::index
