// CRC32C (Castagnoli) correctness: known-answer vectors from RFC 3720
// §B.4 pin the polynomial and bit order, and the streaming property pins
// Crc32cExtend — the index file format depends on both never changing.
// The SSE4.2 and portable implementations must agree on every input.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/crc32c.h"

namespace graft::common {
namespace {

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // The classic check value for CRC-32C.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);

  // RFC 3720 §B.4 test vectors.
  uint8_t zeros[32];
  std::memset(zeros, 0x00, sizeof(zeros));
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);

  uint8_t ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);

  uint8_t ascending[32];
  for (size_t i = 0; i < sizeof(ascending); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46DD794Eu);

  uint8_t descending[32];
  for (size_t i = 0; i < sizeof(descending); ++i) {
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc32c(descending, sizeof(descending)), 0x113FDB5Cu);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0, nullptr, 0), 0u);
}

TEST(Crc32cTest, StreamingEqualsOneShot) {
  // Extending in arbitrary chunk sizes must equal the one-shot CRC; the
  // index writer checksums sections scalar-by-scalar, so this property is
  // exactly what its correctness rests on.
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data += static_cast<char>((i * 131 + 89) & 0xFF);
  }
  const uint32_t oneshot = Crc32c(data.data(), data.size());
  for (const size_t chunk : {1u, 3u, 7u, 8u, 64u, 999u}) {
    uint32_t crc = 0;
    for (size_t pos = 0; pos < data.size(); pos += chunk) {
      const size_t n = std::min<size_t>(chunk, data.size() - pos);
      crc = Crc32cExtend(crc, data.data() + pos, n);
    }
    EXPECT_EQ(crc, oneshot) << "chunk size " << chunk;
  }
}

TEST(Crc32cTest, SingleBitFlipsAlwaysDetected) {
  // Every single-bit flip in a small buffer must change the CRC — this is
  // the guarantee the bit-flip corruption tests in index_io lean on.
  std::string data = "GRAFT index section payload under test";
  const uint32_t baseline = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped.data(), flipped.size()), baseline)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32cTest, HardwareMatchesPortable) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  EXPECT_EQ(Crc32cExtendPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cExtendHardware(0, "123456789", 9), 0xE3069283u);

  // Every length 0..64 at every start offset 0..7, so the hardware path's
  // 8-byte words and byte tail meet every alignment.
  std::vector<uint8_t> bytes(64 + 8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 197 + 13);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(Crc32cExtendHardware(0, bytes.data() + start, length),
                Crc32cExtendPortable(0, bytes.data() + start, length))
          << "start " << start << " length " << length;
    }
  }

  std::mt19937_64 rng(20261020);
  std::vector<uint8_t> big(size_t{1} << 20);
  for (int round = 0; round < 4; ++round) {
    for (uint8_t& b : big) b = static_cast<uint8_t>(rng());
    const uint32_t seed = static_cast<uint32_t>(rng());
    EXPECT_EQ(Crc32cExtendHardware(seed, big.data(), big.size()),
              Crc32cExtendPortable(seed, big.data(), big.size()))
        << "round " << round;
  }

  // Extending at every split point equals the one-shot CRC.
  const uint32_t whole = Crc32cExtendPortable(0, bytes.data(), 40);
  for (size_t split = 0; split <= 40; ++split) {
    const uint32_t head = Crc32cExtendHardware(0, bytes.data(), split);
    EXPECT_EQ(Crc32cExtendHardware(head, bytes.data() + split, 40 - split),
              whole)
        << "split " << split;
    EXPECT_EQ(Crc32cExtendPortable(
                  Crc32cExtendPortable(0, bytes.data(), split),
                  bytes.data() + split, 40 - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace graft::common
