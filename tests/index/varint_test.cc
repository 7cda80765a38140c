#include "index/varint.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "index/types.h"

namespace graft::index {
namespace {

uint32_t RoundTrip(uint32_t value, size_t* bytes = nullptr) {
  std::vector<uint8_t> buffer;
  PutVarint32(&buffer, value);
  if (bytes != nullptr) *bytes = buffer.size();
  const uint8_t* p = buffer.data();
  const uint8_t* end = buffer.data() + buffer.size();
  uint32_t decoded = 0;
  EXPECT_TRUE(GetVarint32(&p, end, &decoded));
  EXPECT_EQ(p, end);
  return decoded;
}

TEST(VarintTest, Boundaries) {
  size_t bytes = 0;
  EXPECT_EQ(RoundTrip(0, &bytes), 0u);
  EXPECT_EQ(bytes, 1u);
  EXPECT_EQ(RoundTrip(127, &bytes), 127u);
  EXPECT_EQ(bytes, 1u);
  EXPECT_EQ(RoundTrip(128, &bytes), 128u);
  EXPECT_EQ(bytes, 2u);
  EXPECT_EQ(RoundTrip(16383, &bytes), 16383u);
  EXPECT_EQ(bytes, 2u);
  EXPECT_EQ(RoundTrip(16384, &bytes), 16384u);
  EXPECT_EQ(bytes, 3u);
  EXPECT_EQ(RoundTrip(std::numeric_limits<uint32_t>::max(), &bytes),
            std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(bytes, 5u);
}

TEST(VarintTest, RandomRoundTrips) {
  Rng rng(404);
  for (int i = 0; i < 5000; ++i) {
    const uint32_t value = static_cast<uint32_t>(rng.NextUint64());
    EXPECT_EQ(RoundTrip(value), value);
  }
}

TEST(VarintTest, SequencesDecodeInOrder) {
  std::vector<uint8_t> buffer;
  const uint32_t values[] = {0, 1, 300, 7, 1u << 30, 127, 128};
  for (const uint32_t v : values) {
    PutVarint32(&buffer, v);
  }
  const uint8_t* p = buffer.data();
  const uint8_t* end = buffer.data() + buffer.size();
  for (const uint32_t v : values) {
    uint32_t decoded = 0;
    ASSERT_TRUE(GetVarint32(&p, end, &decoded));
    EXPECT_EQ(decoded, v);
  }
  EXPECT_EQ(p, end);
}

TEST(VarintTest, ContinuationRunStopsAfterFiveBytes) {
  // A forged run of continuation bytes: the decoder gives up after the
  // longest varint PutVarint32 writes instead of shifting past bit 31
  // and reading on to the next byte below 0x80.
  const std::vector<uint8_t> run(16, 0x80);
  const uint8_t* p = run.data();
  uint32_t value = 0;
  EXPECT_FALSE(GetVarint32(&p, run.data() + run.size(), &value));
  EXPECT_EQ(p, run.data() + 5);
}

TEST(VarintTest, VarintCutByTheEndIsRejected) {
  std::vector<uint8_t> buffer;
  PutVarint32(&buffer, 1u << 30);  // five bytes
  ASSERT_EQ(buffer.size(), 5u);
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    const uint8_t* p = buffer.data();
    uint32_t value = 0;
    EXPECT_FALSE(GetVarint32(&p, buffer.data() + cut, &value)) << cut;
    EXPECT_EQ(p, buffer.data() + cut) << cut;
  }
}

TEST(VarintTest, DeltaEncodingOfTypicalOffsets) {
  // Posting offsets are small gaps: one byte each in the common case.
  std::vector<uint8_t> buffer;
  Offset previous = 0;
  for (const Offset offset : {3u, 5u, 9u, 40u, 41u, 120u}) {
    PutVarint32(&buffer, offset - previous);
    previous = offset;
  }
  EXPECT_EQ(buffer.size(), 6u);
}

}  // namespace
}  // namespace graft::index
