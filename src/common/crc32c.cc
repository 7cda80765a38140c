#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace graft::common {

namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 fold 8 input
  // bytes per iteration (slicing-by-8).
  uint32_t t[8][256];

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Tables& T() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size) {
  const Tables& tables = T();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;

  // Byte-align is unnecessary: we assemble the 8-byte block from
  // individual loads, so there are no unaligned-access or endianness
  // hazards — the fold below is written against little-endian byte order
  // explicitly.
  while (size >= 8) {
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    c = tables.t[7][lo & 0xFF] ^ tables.t[6][(lo >> 8) & 0xFF] ^
        tables.t[5][(lo >> 16) & 0xFF] ^ tables.t[4][lo >> 24] ^
        tables.t[3][p[4]] ^ tables.t[2][p[5]] ^ tables.t[1][p[6]] ^
        tables.t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    c = tables.t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return ~c;
}

#if defined(__x86_64__)

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHardware(
    uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; size > 0; ++p, --size) {
    c32 = _mm_crc32_u8(c32, *p);
  }
  return ~c32;
}

#else

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t size) {
  return Crc32cExtendPortable(crc, data, size);
}

#endif

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
  static const auto impl = Crc32cHardwareAvailable() ? Crc32cExtendHardware
                                                     : Crc32cExtendPortable;
  return impl(crc, data, size);
}

}  // namespace graft::common
