#include "src/storage/pager/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tde {
namespace pager {

namespace {

// Slicing-by-4: four derived tables, built once at first use.
struct Tables {
  uint32_t t[4][256];
};

Tables BuildTables() {
  Tables tb{};
  constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tb.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    tb.t[1][i] = (tb.t[0][i] >> 8) ^ tb.t[0][tb.t[0][i] & 0xFF];
    tb.t[2][i] = (tb.t[1][i] >> 8) ^ tb.t[0][tb.t[1][i] & 0xFF];
    tb.t[3][i] = (tb.t[2][i] >> 8) ^ tb.t[0][tb.t[2][i] & 0xFF];
  }
  return tb;
}

#if defined(__x86_64__)
// The instruction computes the same reflected CRC-32C, eight bytes a step.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* data,
                                                       size_t n,
                                                       uint32_t seed) {
  uint64_t crc = ~seed;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, data, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  uint32_t c = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) c = _mm_crc32_u8(c, *data);
  return ~c;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

CrcFn ChooseCrc() {
#if defined(__x86_64__)
  if (CpuHasSse42()) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const uint8_t* data, size_t n, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const auto& t = kTables.t;
  uint32_t crc = ~seed;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(data[0]) |
           (static_cast<uint32_t>(data[1]) << 8) |
           (static_cast<uint32_t>(data[2]) << 16) |
           (static_cast<uint32_t>(data[3]) << 24);
    crc = t[3][crc & 0xFF] ^ t[2][(crc >> 8) & 0xFF] ^
          t[1][(crc >> 16) & 0xFF] ^ t[0][crc >> 24];
    data += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data++) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed) {
  static const CrcFn kCrc = ChooseCrc();
  return kCrc(data, n, seed);
}

bool Crc32cHardware() { return ChooseCrc() != Crc32cPortable; }

}  // namespace pager
}  // namespace tde
