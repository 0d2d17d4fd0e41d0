#include "src/encoding/bitpack.h"

#include <array>
#include <cstring>
#include <utility>

namespace tde {

void PackBits(const uint64_t* values, size_t n, uint8_t bits, uint8_t* out) {
  if (bits == 0) return;
  if (bits == 64) {
    std::memcpy(out, values, n * 8);
    return;
  }
  std::memset(out, 0, PackedBytes(n, bits));
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  size_t bit_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = values[i] & mask;
    size_t byte = bit_pos >> 3;
    const unsigned shift = bit_pos & 7;
    // Write up to 9 bytes; the value occupies bits [shift, shift + bits).
    out[byte] |= static_cast<uint8_t>(v << shift);
    unsigned written = 8 - shift;
    v >>= written;
    while (written < bits) {
      ++byte;
      out[byte] |= static_cast<uint8_t>(v);
      v >>= 8;
      written += 8;
    }
    bit_pos += bits;
  }
}

namespace {

/// Widest field one unaligned 8-byte load always covers: a value starts at
/// most 7 bits into its first byte, and 7 + 56 < 64.
constexpr unsigned kMaxWindowBits = 56;

/// Values [begin, n) assembled a byte at a time: reads only bytes inside
/// PackedBytes(n, bits).
void UnpackBytewise(const uint8_t* in, size_t begin, size_t n, uint8_t bits,
                    uint64_t* out) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  size_t bit_pos = begin * bits;
  for (size_t i = begin; i < n; ++i) {
    size_t byte = bit_pos >> 3;
    const unsigned shift = bit_pos & 7;
    uint64_t v = static_cast<uint64_t>(in[byte]) >> shift;
    unsigned have = 8 - shift;
    while (have < bits) {
      ++byte;
      v |= static_cast<uint64_t>(in[byte]) << have;
      have += 8;
    }
    out[i] = v & mask;
    bit_pos += bits;
  }
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);  // little-endian, like the rest of the format
  return v;
}

/// The word-at-a-time kernel for one bit width: value i is one 8-byte
/// window load at byte i*kBits/8, a shift and a mask. Eight values span
/// exactly kBits bytes, so the inner loop unrolls into constant offsets.
/// Only values whose window ends inside PackedBytes(n, kBits) take this
/// path; the last few fall back to the byte loop, so a buffer sized
/// exactly to the packed data is never read past its end.
template <unsigned kBits>
void UnpackWidth(const uint8_t* in, size_t n, uint64_t* out) {
  constexpr uint64_t kMask = (uint64_t{1} << kBits) - 1;
  const size_t bytes = PackedBytes(n, kBits);
  // Value i is safe iff i*kBits/8 + 8 <= bytes.
  size_t safe = bytes < 8 ? 0 : ((bytes - 8) * 8 + 7) / kBits + 1;
  if (safe > n) safe = n;
  size_t i = 0;
  for (; i + 8 <= safe; i += 8) {
    const uint8_t* group = in + i / 8 * kBits;
#pragma GCC unroll 8
    for (unsigned j = 0; j < 8; ++j) {
      out[i + j] = (Load64(group + j * kBits / 8) >> (j * kBits % 8)) & kMask;
    }
  }
  for (; i < safe; ++i) {
    const size_t bit_pos = i * kBits;
    out[i] = (Load64(in + bit_pos / 8) >> (bit_pos % 8)) & kMask;
  }
  UnpackBytewise(in, i, n, kBits, out);
}

using UnpackFn = void (*)(const uint8_t*, size_t, uint64_t*);

template <size_t... kIdx>
constexpr std::array<UnpackFn, sizeof...(kIdx)> MakeKernels(
    std::index_sequence<kIdx...>) {
  return {&UnpackWidth<static_cast<unsigned>(kIdx) + 1>...};
}

/// kKernels[bits - 1] unpacks `bits`-bit values, for bits 1..56.
constexpr auto kKernels =
    MakeKernels(std::make_index_sequence<kMaxWindowBits>());

}  // namespace

void UnpackBits(const uint8_t* in, size_t n, uint8_t bits, uint64_t* out) {
  if (bits == 0) {
    std::memset(out, 0, n * 8);
    return;
  }
  if (bits == 64) {
    std::memcpy(out, in, n * 8);
    return;
  }
  if (bits > kMaxWindowBits) {
    UnpackBytewise(in, 0, n, bits, out);
    return;
  }
  kKernels[bits - 1](in, n, out);
}

}  // namespace tde
