#include "src/encoding/stats.h"

#include <limits>
#include <utility>
#include <vector>

#include "src/common/bitutil.h"
#include "src/common/hash.h"
#include "src/encoding/bitpack.h"

namespace tde {

namespace {
constexpr uint64_t kImpossible = std::numeric_limits<uint64_t>::max();

uint64_t BlocksFor(uint64_t count) {
  return (count + kBlockSize - 1) / kBlockSize;
}

/// Marks a free slot of the distinct set: an arbitrary value, rare in data.
constexpr Lane kFreeSlot = static_cast<Lane>(0x9e3779b97f4a7c15ULL);

/// Places `v` in `table`, a linear-probing set with a free slot left;
/// false if it holds `v` already.
bool Place(std::vector<Lane>* table, Lane v) {
  const uint64_t mask = table->size() - 1;
  uint64_t i = Mix64(static_cast<uint64_t>(v)) & mask;
  while ((*table)[i] != kFreeSlot) {
    if ((*table)[i] == v) return false;
    i = (i + 1) & mask;
  }
  (*table)[i] = v;
  return true;
}
}  // namespace

EncodingStats::EncodingStats() : distinct_(512, kFreeSlot) {}

void EncodingStats::TrackDistinct(Lane v) {
  const bool added = v == kFreeSlot ? !std::exchange(has_free_key_, true)
                                    : Place(&distinct_, v);
  if (!added) return;
  if (++distinct_count_ > kMaxDictEntries) {
    distinct_tracking_ = false;
    distinct_ = {};
    distinct_count_ = 0;
    return;
  }
  if (distinct_count_ * 2 > distinct_.size()) {
    std::vector<Lane> old(distinct_.size() * 2, kFreeSlot);
    old.swap(distinct_);
    for (const Lane k : old) {
      if (k != kFreeSlot) Place(&distinct_, k);
    }
  }
}

void EncodingStats::Update(const Lane* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const Lane v = values[i];
    if (v == kNullSentinel) ++nulls_;
    if (count_ == 0) {
      min_ = max_ = first_ = v;
      runs_ = 1;
      cur_run_ = 1;
      max_run_ = 1;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
      const __int128 delta =
          static_cast<__int128>(v) - static_cast<__int128>(prev_);
      if (count_ == 1) {
        min_delta_ = max_delta_ = delta;
      } else {
        if (delta < min_delta_) min_delta_ = delta;
        if (delta > max_delta_) max_delta_ = delta;
      }
      if (v == prev_) {
        ++cur_run_;
      } else {
        ++runs_;
        cur_run_ = 1;
      }
      if (cur_run_ > max_run_) max_run_ = cur_run_;
    }
    if (distinct_tracking_) TrackDistinct(v);
    prev_ = v;
    ++count_;
  }
}

uint64_t EncodingStats::EstimateSize(EncodingType type, uint8_t width) const {
  const uint64_t blocks = BlocksFor(count_);
  switch (type) {
    case EncodingType::kUncompressed:
      return 24 + blocks * kBlockSize * width;
    case EncodingType::kFrameOfReference: {
      const uint64_t range =
          static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_);
      const uint8_t bits = BitsFor(range);
      return 32 + blocks * PackedBytes(kBlockSize, bits);
    }
    case EncodingType::kDelta: {
      if (count_ < 2) return 32 + blocks * (8 + PackedBytes(kBlockSize, 0));
      const __int128 drange = max_delta_ - min_delta_;
      if (drange > static_cast<__int128>(
                       std::numeric_limits<uint64_t>::max())) {
        return kImpossible;
      }
      // The minimum delta is stored in an 8-byte header field (Fig. 1).
      if (min_delta_ < std::numeric_limits<int64_t>::min() ||
          min_delta_ > std::numeric_limits<int64_t>::max()) {
        return kImpossible;
      }
      const uint8_t bits = BitsFor(static_cast<uint64_t>(drange));
      return 32 + blocks * (8 + PackedBytes(kBlockSize, bits));
    }
    case EncodingType::kDictionary: {
      if (!distinct_tracking_ || distinct_count_ == 0) return kImpossible;
      const uint64_t card = distinct_count_;
      if (card > kMaxDictEntries) return kImpossible;
      uint8_t bits = BitsFor(card - 1);
      if (bits == 0) bits = 1;
      return 32 + width * (uint64_t{1} << bits) +
             blocks * PackedBytes(kBlockSize, bits);
    }
    case EncodingType::kAffine:
      if (count_ >= 2 && !constant_delta()) return kImpossible;
      if (count_ >= 2) {
        // base + row * delta must be exact in int64 for every row; the
        // tracked min/max already are, so only delta width can disqualify.
        const __int128 d = min_delta_;
        if (d < std::numeric_limits<int64_t>::min() ||
            d > std::numeric_limits<int64_t>::max()) {
          return kImpossible;
        }
      }
      return 40;
    case EncodingType::kRunLength: {
      const uint8_t count_width = MinUnsignedWidth(max_run_);
      const uint8_t value_width = MinSignedWidth(min_, max_);
      return 26 + run_count() * (count_width + value_width);
    }
    case EncodingType::kSegmented:
      // The container has no physical layout of its own; segments are
      // estimated individually.
      return kImpossible;
  }
  return kImpossible;
}

EncodingType EncodingStats::ChooseEncoding(uint8_t width,
                                           uint32_t allowed) const {
  // Preference order breaks ties toward the encodings with the most useful
  // downstream properties (affine => dense/unique, dictionary => domain).
  static constexpr EncodingType kOrder[] = {
      EncodingType::kAffine,     EncodingType::kDictionary,
      EncodingType::kFrameOfReference, EncodingType::kDelta,
      EncodingType::kRunLength,  EncodingType::kUncompressed,
  };
  EncodingType best = EncodingType::kUncompressed;
  uint64_t best_size = kImpossible;
  for (EncodingType t : kOrder) {
    if ((allowed & (1u << static_cast<int>(t))) == 0) continue;
    // Run-length encoding only makes sense when there are actual runs;
    // otherwise its apparent size advantage on tiny streams (everything
    // else pads to a complete decompression block) buys hostile access
    // patterns for nothing.
    if (t == EncodingType::kRunLength && run_count() * 2 > count_) continue;
    const uint64_t size = EstimateSize(t, width);
    if (size < best_size) {
      best = t;
      best_size = size;
    }
  }
  return best;
}

}  // namespace tde
