#ifndef TDE_ENCODING_STATS_H_
#define TDE_ENCODING_STATS_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/encoding/header.h"

namespace tde {

/// Bitmask of encodings a dynamic encoder is allowed to pick. The strategic
/// optimizer restricts this set for FlowTables on the inner side of hash
/// joins, whose random access patterns are hostile to run-length encoding
/// (Sect. 4.3).
enum EncodingMask : uint32_t {
  kAllowUncompressed = 1u << static_cast<int>(EncodingType::kUncompressed),
  kAllowFor = 1u << static_cast<int>(EncodingType::kFrameOfReference),
  kAllowDelta = 1u << static_cast<int>(EncodingType::kDelta),
  kAllowDict = 1u << static_cast<int>(EncodingType::kDictionary),
  kAllowAffine = 1u << static_cast<int>(EncodingType::kAffine),
  kAllowRle = 1u << static_cast<int>(EncodingType::kRunLength),
  kAllowAll = kAllowUncompressed | kAllowFor | kAllowDelta | kAllowDict |
              kAllowAffine | kAllowRle,
  /// Everything with good random access (no RLE) — hash join inner sides.
  kAllowRandomAccess =
      kAllowUncompressed | kAllowFor | kAllowDelta | kAllowDict | kAllowAffine,
};

/// Streaming column statistics (Sect. 3.2): "simple to gather, consisting
/// mostly of the value range and delta range". Updated one block at a time
/// before the block is inserted into the column's encoding stream; consulted
/// whenever an insert fails to pick the next encoding, and at the end to
/// pick the optimal one. Also the source of all extracted metadata
/// (Sect. 3.4.2).
class EncodingStats {
 public:
  EncodingStats();

  /// Folds a block of values into the statistics.
  void Update(const Lane* values, size_t count);

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  int64_t min_value() const { return min_; }
  int64_t max_value() const { return max_; }
  /// First value inserted (needed as the base of an affine encoding).
  int64_t first_value() const { return first_; }
  /// Last value inserted (the delta context for appended blocks).
  int64_t last_value() const { return prev_; }

  /// Delta range over consecutive values (valid once count >= 2). Deltas
  /// are tracked in 128-bit arithmetic so int64 extremes cannot overflow.
  __int128 min_delta() const { return min_delta_; }
  __int128 max_delta() const { return max_delta_; }
  bool has_deltas() const { return count_ >= 2; }

  /// True while every delta seen so far is >= 0 (column is sorted).
  bool sorted() const { return count_ < 2 || min_delta_ >= 0; }
  /// True while every delta is identical (affine applies).
  bool constant_delta() const {
    return count_ >= 2 && min_delta_ == max_delta_;
  }

  /// Number of runs of equal consecutive values.
  uint64_t run_count() const { return count_ == 0 ? 0 : runs_; }
  uint64_t max_run_length() const { return max_run_; }

  /// Distinct-value tracking, abandoned past the dictionary limit.
  bool cardinality_known() const { return distinct_tracking_; }
  uint64_t cardinality() const { return distinct_count_; }

  /// NULL sentinel occurrences.
  uint64_t null_count() const { return nulls_; }

  /// Estimated physical bytes if the whole column (current count) were
  /// encoded as `type` at element width `width`. Returns UINT64_MAX when
  /// the encoding cannot represent the data at all.
  uint64_t EstimateSize(EncodingType type, uint8_t width) const;

  /// The cheapest admissible encoding for the data seen so far
  /// (Sect. 3.2: "we can quickly determine the best of the available
  /// choices"). `width` is the column's element width; `allowed` masks the
  /// admissible encodings.
  EncodingType ChooseEncoding(uint8_t width, uint32_t allowed) const;

 private:
  /// Adds `v` to the distinct set, abandoning tracking past
  /// kMaxDictEntries values.
  void TrackDistinct(Lane v);

  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  int64_t first_ = 0;
  int64_t prev_ = 0;
  __int128 min_delta_ = 0;
  __int128 max_delta_ = 0;
  uint64_t runs_ = 0;
  uint64_t cur_run_ = 0;
  uint64_t max_run_ = 0;
  uint64_t nulls_ = 0;
  bool distinct_tracking_ = true;
  // The distinct values: a linear-probing set kept at most half full, in
  // which kFreeSlot marks a free slot (and has_free_key_ the value itself).
  std::vector<Lane> distinct_;
  uint64_t distinct_count_ = 0;
  bool has_free_key_ = false;
};

}  // namespace tde

#endif  // TDE_ENCODING_STATS_H_
