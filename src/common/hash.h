#ifndef TDE_COMMON_HASH_H_
#define TDE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace tde {

/// The TDE's tactical hash family (Sect. 2.3.4): keys of 1-2 bytes use a
/// direct 64K-element table; 3-4 byte keys with a known range use a perfect
/// hash (index = value - min); anything wider needs a general hash with
/// collision detection.
enum class HashAlgorithm : uint8_t {
  kDirect = 0,
  kPerfect = 1,
  kCollision = 2,
};

const char* HashAlgorithmName(HashAlgorithm a);

/// Tactical choice of hash algorithm for a single key column.
///
/// `width` is the physical byte width of the key (after any narrowing).
/// If [min_value, max_value] is known (range_known), a perfect hash can be
/// built whenever the range has at most 2^24 slots.
HashAlgorithm ChooseHashAlgorithm(uint8_t width, bool range_known,
                                  int64_t min_value, int64_t max_value);

/// 64-bit finalizing mix (splitmix64) used by collision hash tables.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A zero-initialized array of `n` uint32 slots whose memory is allocated
/// and zeroed one 4 KiB page at a time, on first write: its cost follows
/// the slots a caller touches, not `n`. Tables indexed by a key value, a
/// heap offset or a dictionary code use it, so grouping a few rows (one
/// small morsel) over a wide key range, a large heap or a large dictionary
/// pays for those rows only.
class LazySlots {
 public:
  LazySlots() = default;
  explicit LazySlots(size_t n)
      : n_(n), pages_((n + kPageSlots - 1) / kPageSlots) {}

  size_t size() const { return n_; }
  /// Slot `i` for writing; allocates its page.
  uint32_t& operator[](size_t i) {
    std::unique_ptr<uint32_t[]>& page = pages_[i / kPageSlots];
    if (page == nullptr) page = std::make_unique<uint32_t[]>(kPageSlots);
    return page[i % kPageSlots];
  }
  /// Slot `i`'s value (0 on an unallocated page); allocates nothing, so
  /// concurrent readers are safe once writing is done.
  uint32_t Get(size_t i) const {
    const std::unique_ptr<uint32_t[]>& page = pages_[i / kPageSlots];
    return page == nullptr ? 0 : page[i % kPageSlots];
  }

 private:
  static constexpr size_t kPageSlots = 1024;
  size_t n_ = 0;
  std::vector<std::unique_ptr<uint32_t[]>> pages_;
};

/// Maps key lanes to dense group ids [0, group_count) using whichever of the
/// three algorithms the tactical optimizer selected: the grouping kernel
/// behind hash aggregation. (A join's key index maps keys to inner rows
/// directly; see JoinBuild.)
class GroupMap {
 public:
  /// For kDirect the table is always 65536 entries; for kPerfect it spans
  /// [min_value, max_value]; min/max are ignored for kCollision.
  GroupMap(HashAlgorithm algorithm, int64_t min_value, int64_t max_value);

  /// Returns the group id for `key`, assigning the next id if unseen.
  uint32_t GetOrInsert(Lane key);

  uint32_t group_count() const { return static_cast<uint32_t>(keys_.size()); }
  HashAlgorithm algorithm() const { return algorithm_; }

  /// The distinct keys in insertion (group-id) order.
  const std::vector<Lane>& keys() const { return keys_; }

  /// Number of probe collisions GetOrInsert observed (always 0 for
  /// direct/perfect); exposed so benchmarks can show the cost the tactical
  /// choice avoids.
  uint64_t collisions() const { return collisions_; }

 private:
  void Grow();

  HashAlgorithm algorithm_;
  int64_t min_value_ = 0;
  // Direct/perfect: slot per possible key value, group id + 1 (0 = empty).
  LazySlots table_;
  // Collision: open addressing over (key, group) slots.
  std::vector<Lane> slot_keys_;
  std::vector<uint32_t> slot_groups_;
  uint64_t mask_ = 0;
  uint64_t used_ = 0;
  uint64_t collisions_ = 0;
  std::vector<Lane> keys_;
};

}  // namespace tde

#endif  // TDE_COMMON_HASH_H_
