// LEB128-style varint coding for compressed posting storage, as used by
// production engines (Lucene, RocksDB): term positions are stored as
// delta-encoded varints, so position scans pay a real decode cost while
// the term-document arrays stay directly addressable — the physical
// asymmetry behind the pre-counting optimization.

#ifndef GRAFT_INDEX_VARINT_H_
#define GRAFT_INDEX_VARINT_H_

#include <cstdint>
#include <vector>

namespace graft::index {

// Appends `value` to a byte vector of any allocator.
template <typename Allocator>
void PutVarint32(std::vector<uint8_t, Allocator>* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

// Decodes one varint from [*p, end) into *value and advances *p past it.
// Reads at most 5 bytes, the longest PutVarint32 writes. Returns false on
// a varint cut by `end` or a continuation run longer than 5 bytes; *p
// then stands after the bytes read and *value is meaningless.
inline bool GetVarint32(const uint8_t** p, const uint8_t* end,
                        uint32_t* value) {
  *value = 0;
  for (int shift = 0; shift < 35 && *p < end; shift += 7) {
    const uint8_t byte = *(*p)++;
    *value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace graft::index

#endif  // GRAFT_INDEX_VARINT_H_
