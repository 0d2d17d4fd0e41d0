#ifndef TDE_EXEC_SORT_H_
#define TDE_EXEC_SORT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/sort_keys.h"

namespace tde {

struct SortKey {
  std::string column;
  bool ascending = true;
};

struct SortOptions {
  /// Compare string keys in the integer domain: raw tokens when the heap
  /// is sorted, else lanes translated once through a per-heap code->rank
  /// cache. Off = per-comparison CompareTokens (the enable_dict_sort kill
  /// switch).
  bool dict_sort = true;
};

/// Stop-and-go sort. String keys compare through the heap: an integer
/// comparison when the heap is sorted, a locale collation otherwise —
/// which is why FlowTable's heap sorting (Sect. 6.3) speeds up downstream
/// sorts. Inputs whose blocks carry different string heaps (per-block
/// output heaps from computed projections) are re-interned into one
/// unified heap per column before sorting.
class Sort : public Operator {
 public:
  Sort(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
       SortOptions options = {});

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  // Observed while sorting; read by the executor's instrumentation hook.
  uint64_t rows_sorted() const { return order_.size(); }
  /// String keys that compared as integers (raw sorted-heap tokens or
  /// cached ranks) instead of running the collation per comparison.
  uint64_t dict_key_sorts() const { return dict_key_sorts_; }
  /// Chunks sorted as parallel scheduler tasks (0 = serial sort).
  uint64_t parallel_chunks() const { return parallel_chunks_; }

 private:
  /// True when row `a` orders strictly before row `b`.
  bool RowBefore(uint64_t a, uint64_t b) const;
  void SortOrder();

  std::unique_ptr<Operator> child_;
  std::vector<SortKey> keys_;
  SortOptions options_;
  std::vector<ColumnVector> cols_;  // materialized input, unified heaps
  std::vector<sortkeys::HeapUnifier> unifiers_;
  std::vector<sortkeys::PreparedKey> prepared_;
  /// Comparison lanes per prepared key: rank-translated vectors for
  /// kRanks keys, else nullptr (compare the column's lanes directly).
  std::vector<std::vector<Lane>> rank_lanes_;
  std::vector<const Lane*> key_lanes_;
  std::vector<uint64_t> order_;
  uint64_t emit_ = 0;
  uint64_t dict_key_sorts_ = 0;
  uint64_t parallel_chunks_ = 0;
};

}  // namespace tde

#endif  // TDE_EXEC_SORT_H_
