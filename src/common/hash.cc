#include "src/common/hash.h"

#include <limits>

namespace tde {

namespace {
constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxPerfectSlots = uint64_t{1} << 24;
}  // namespace

const char* HashAlgorithmName(HashAlgorithm a) {
  switch (a) {
    case HashAlgorithm::kDirect:
      return "direct";
    case HashAlgorithm::kPerfect:
      return "perfect";
    case HashAlgorithm::kCollision:
      return "collision";
  }
  return "unknown";
}

HashAlgorithm ChooseHashAlgorithm(uint8_t width, bool range_known,
                                  int64_t min_value, int64_t max_value) {
  if (width <= 2) return HashAlgorithm::kDirect;
  if (width <= 4 && range_known) {
    const uint64_t slots =
        static_cast<uint64_t>(max_value) - static_cast<uint64_t>(min_value) + 1;
    if (slots <= kMaxPerfectSlots) return HashAlgorithm::kPerfect;
  }
  return HashAlgorithm::kCollision;
}

GroupMap::GroupMap(HashAlgorithm algorithm, int64_t min_value,
                   int64_t max_value)
    : algorithm_(algorithm), min_value_(min_value) {
  switch (algorithm_) {
    case HashAlgorithm::kDirect:
      min_value_ = 0;
      table_ = LazySlots(1u << 16);
      break;
    case HashAlgorithm::kPerfect: {
      const uint64_t slots = static_cast<uint64_t>(max_value) -
                             static_cast<uint64_t>(min_value) + 1;
      table_ = LazySlots(static_cast<size_t>(slots));
      break;
    }
    case HashAlgorithm::kCollision: {
      const uint64_t capacity = 1u << 10;
      slot_keys_.assign(capacity, 0);
      slot_groups_.assign(capacity, kEmpty);
      mask_ = capacity - 1;
      break;
    }
  }
}

uint32_t GroupMap::GetOrInsert(Lane key) {
  switch (algorithm_) {
    case HashAlgorithm::kDirect: {
      // Keys are at most 2 bytes wide; index by the low 16 bits.
      const uint32_t idx = static_cast<uint32_t>(key) & 0xFFFFu;
      uint32_t& slot = table_[idx];
      if (slot == 0) {
        keys_.push_back(key);
        slot = static_cast<uint32_t>(keys_.size());
      }
      return slot - 1;
    }
    case HashAlgorithm::kPerfect: {
      const uint64_t idx =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(min_value_);
      uint32_t& slot = table_[idx];
      if (slot == 0) {
        keys_.push_back(key);
        slot = static_cast<uint32_t>(keys_.size());
      }
      return slot - 1;
    }
    case HashAlgorithm::kCollision: {
      if ((used_ + 1) * 2 > slot_groups_.size()) Grow();
      uint64_t idx = Mix64(static_cast<uint64_t>(key)) & mask_;
      while (slot_groups_[idx] != kEmpty) {
        if (slot_keys_[idx] == key) return slot_groups_[idx];
        ++collisions_;
        idx = (idx + 1) & mask_;
      }
      slot_keys_[idx] = key;
      slot_groups_[idx] = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key);
      ++used_;
      return slot_groups_[idx];
    }
  }
  return kEmpty;
}

void GroupMap::Grow() {
  const uint64_t capacity = slot_groups_.size() * 2;
  std::vector<Lane> old_keys = std::move(slot_keys_);
  std::vector<uint32_t> old_groups = std::move(slot_groups_);
  slot_keys_.assign(capacity, 0);
  slot_groups_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
  for (size_t i = 0; i < old_groups.size(); ++i) {
    if (old_groups[i] == kEmpty) continue;
    uint64_t idx = Mix64(static_cast<uint64_t>(old_keys[i])) & mask_;
    while (slot_groups_[idx] != kEmpty) idx = (idx + 1) & mask_;
    slot_keys_[idx] = old_keys[i];
    slot_groups_[idx] = old_groups[i];
  }
}

}  // namespace tde
