// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum the index
// persistence layer stamps on every on-disk section. Two implementations
// compute the same function: the SSE4.2 `crc32` instruction (8 bytes per
// instruction), chosen once per process when the CPU has it, and a
// portable slicing-by-8 table fold (~1 byte/cycle), the reference used
// everywhere else. Crc32cExtend dispatches; the tests call both directly.
//
// Conventions match zlib's crc32 API: initial value 0, final XOR applied,
// and the streaming form takes the finalized CRC of the prefix:
//
//   uint32_t crc = Crc32c(a, na);             // one-shot
//   crc = Crc32cExtend(crc, b, nb);           // == Crc32c(a+b)
//
// Known-answer: Crc32c("123456789") == 0xE3069283.

#ifndef GRAFT_COMMON_CRC32C_H_
#define GRAFT_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace graft::common {

// CRC32C of the empty string is 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

// The portable slicing-by-8 implementation.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size);
// True when this CPU runs Crc32cExtendHardware (x86-64 with SSE4.2).
bool Crc32cHardwareAvailable();
// The SSE4.2 implementation; only call it when Crc32cHardwareAvailable().
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t size);

}  // namespace graft::common

#endif  // GRAFT_COMMON_CRC32C_H_
