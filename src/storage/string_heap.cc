#include "src/storage/string_heap.h"

#include <cstring>

namespace tde {

Lane StringHeap::Add(std::string_view s) {
  const Lane token = static_cast<Lane>(buf_.size());
  const uint32_t len = static_cast<uint32_t>(s.size());
  const size_t old = buf_.size();
  // A view into this heap (Add(Get(t))) dangles once the buffer grows:
  // re-aim it at the same offset of the grown buffer.
  const uintptr_t at = reinterpret_cast<uintptr_t>(s.data()) -
                       reinterpret_cast<uintptr_t>(buf_.data());
  buf_.resize(old + 4 + s.size());
  if (at < old) {
    s = std::string_view(reinterpret_cast<const char*>(buf_.data() + at),
                         s.size());
  }
  std::memcpy(buf_.data() + old, &len, 4);
  std::memcpy(buf_.data() + old + 4, s.data(), s.size());
  ++entries_;
  return token;
}

std::string_view StringHeap::Get(Lane token) const {
  const uint64_t off = static_cast<uint64_t>(token);
  uint32_t len = 0;
  std::memcpy(&len, buf_.data() + off, 4);
  return std::string_view(
      reinterpret_cast<const char*>(buf_.data() + off + 4), len);
}

int StringHeap::CompareTokens(Lane a, Lane b) const {
  if (sorted_) {
    // Element order equals collation order: tokens compare directly.
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  return Collate(collation_, Get(a), Get(b));
}

std::vector<Lane> StringHeap::AllTokens() const {
  std::vector<Lane> tokens;
  tokens.reserve(entries_);
  uint64_t off = 0;
  while (off < buf_.size()) {
    tokens.push_back(static_cast<Lane>(off));
    uint32_t len = 0;
    std::memcpy(&len, buf_.data() + off, 4);
    off += 4 + len;
  }
  return tokens;
}

StringHeap StringHeap::FromParts(std::vector<uint8_t> buf, uint64_t entries,
                                 bool sorted, Collation collation) {
  StringHeap h(collation);
  h.buf_ = std::move(buf);
  h.entries_ = entries;
  h.sorted_ = sorted;
  return h;
}

}  // namespace tde
