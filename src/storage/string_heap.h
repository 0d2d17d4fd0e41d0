#ifndef TDE_STORAGE_STRING_HEAP_H_
#define TDE_STORAGE_STRING_HEAP_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/collation.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace tde {

/// Variable-width string storage (the TDE's "heap" compression,
/// Sect. 2.3.2). Each element is a 4-byte length followed by the bytes; a
/// string token is the element's byte offset. Tokens of a *sorted* heap are
/// directly comparable — comparing tokens is comparing strings — which is
/// the payoff Sect. 6.3 measures, because it replaces expensive
/// locale-sensitive comparisons with integer comparisons.
class StringHeap {
 public:
  explicit StringHeap(Collation collation = Collation::kLocale)
      : collation_(collation) {}

  /// Appends a string and returns its token (byte offset). No
  /// deduplication — that is the HeapAccelerator's job.
  Lane Add(std::string_view s);

  /// Resolves a token.
  std::string_view Get(Lane token) const;

  /// Compares two tokens' strings. O(1) integer comparison when the heap
  /// is sorted, a full collation otherwise.
  int CompareTokens(Lane a, Lane b) const;

  uint64_t byte_size() const { return buf_.size(); }
  uint64_t entry_count() const { return entries_; }

  /// All element tokens in heap (insertion) order: the domain a
  /// dictionary-code predicate is evaluated over.
  std::vector<Lane> AllTokens() const;

  /// Whether element order equals collation order.
  bool sorted() const { return sorted_; }
  void set_sorted(bool v) { sorted_ = v; }

  /// Whether the heap may hold a string more than once. The per-block
  /// heaps of string functions and of a CASE over several heaps skip
  /// deduplication, which a filter or projection over them does not need,
  /// and say so; consumers that take equal tokens for equal strings
  /// (COUNTD, string group keys) then go by the text instead.
  bool may_repeat() const { return may_repeat_; }
  void set_may_repeat(bool v) { may_repeat_ = v; }

  Collation collation() const { return collation_; }

  const std::vector<uint8_t>& buffer() const { return buf_; }

  /// Restores a heap from serialized parts.
  static StringHeap FromParts(std::vector<uint8_t> buf, uint64_t entries,
                              bool sorted, Collation collation);

 private:
  std::vector<uint8_t> buf_;
  uint64_t entries_ = 0;
  bool sorted_ = false;
  bool may_repeat_ = false;
  Collation collation_;
};

}  // namespace tde

#endif  // TDE_STORAGE_STRING_HEAP_H_
