#ifndef TDE_ENCODING_BITPACK_H_
#define TDE_ENCODING_BITPACK_H_

#include <cstddef>
#include <cstdint>

namespace tde {

/// Number of bytes occupied by n values of `bits` bits each.
inline size_t PackedBytes(size_t n, uint8_t bits) {
  return (n * static_cast<size_t>(bits) + 7) / 8;
}

/// Packs n unsigned values of `bits` significant bits each into `out`,
/// little-endian bit order. `out` must have PackedBytes(n, bits) writable
/// bytes, zeroed or about to be fully overwritten. bits may be 0 (no-op) up
/// to 64.
void PackBits(const uint64_t* values, size_t n, uint8_t bits, uint8_t* out);

/// Inverse of PackBits. Reads only the PackedBytes(n, bits) bytes at `in`:
/// widths 1..56 load one 8-byte window per value through a kernel
/// specialized for the width, except for the last values, whose window
/// would cross the end of the packed data; those, and widths 57..63, are
/// assembled a byte at a time.
void UnpackBits(const uint8_t* in, size_t n, uint8_t bits, uint64_t* out);

}  // namespace tde

#endif  // TDE_ENCODING_BITPACK_H_
