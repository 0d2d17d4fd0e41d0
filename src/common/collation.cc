#include "src/common/collation.h"

#include <algorithm>
#include <cstring>

#include "src/common/hash.h"

namespace tde {

namespace {

// A tiny collation-element table: fold ASCII case and a few Latin-1
// accented code points. The point is not linguistic fidelity but a
// per-character table lookup cost comparable in shape to a real collator.
uint16_t CollationElement(unsigned char ch) {
  if (ch >= 'A' && ch <= 'Z') return static_cast<uint16_t>(ch - 'A' + 'a');
  // Latin-1 supplement accents folded to their base letter.
  if (ch >= 0xC0 && ch <= 0xC5) return 'a';
  if (ch >= 0xE0 && ch <= 0xE5) return 'a';
  if (ch >= 0xC8 && ch <= 0xCB) return 'e';
  if (ch >= 0xE8 && ch <= 0xEB) return 'e';
  return ch;
}

}  // namespace

int Collate(Collation c, std::string_view a, std::string_view b) {
  if (c == Collation::kBinary) {
    const int r = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
    if (r != 0) return r;
    return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  }
  // Locale collation: primary pass over folded elements, tie broken by a
  // secondary binary pass (so the order is total and deterministic).
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const uint16_t ea = CollationElement(static_cast<unsigned char>(a[i]));
    const uint16_t eb = CollationElement(static_cast<unsigned char>(b[i]));
    if (ea != eb) return ea < eb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  const int r = std::memcmp(a.data(), b.data(), a.size());
  return r;
}

uint64_t CollationHash(Collation c, std::string_view s) {
  if (c == Collation::kBinary) {
    // Eight bytes per step: each step is a bijection of the state, so
    // strings of one length that differ in one word never collide; the
    // length seeds the state, and the final mix spreads every bit into the
    // low bits a table masks.
    uint64_t h = 14695981039346656037ULL ^ s.size();
    const char* p = s.data();
    size_t n = s.size();
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    }
    if (n > 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    }
    return Mix64(h);
  }
  // FNV-1a over folded bytes.
  uint64_t h = 14695981039346656037ULL;
  for (char raw : s) {
    const uint16_t e = CollationElement(static_cast<unsigned char>(raw));
    h ^= static_cast<uint64_t>(e & 0xFF);
    h *= 1099511628211ULL;
    h ^= static_cast<uint64_t>(e >> 8);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace tde
