#ifndef TDE_EXEC_ORDERED_AGGREGATE_H_
#define TDE_EXEC_ORDERED_AGGREGATE_H_

#include <memory>

#include "src/exec/hash_aggregate.h"

namespace tde {

/// Ordered ("sandwiched", Sect. 4.2.2) aggregation: the input is grouped —
/// all rows of a group arrive contiguously — so no hash table is needed;
/// the operator streams, closing a group whenever the key changes. The
/// IndexedScan plan of Sect. 6.6 sorts the index by value to establish
/// exactly this property on a non-primary sort key.
///
/// Only single-key grouping is supported (the grouped-input property is a
/// per-key ordering statement).
class OrderedAggregate : public Operator {
 public:
  OrderedAggregate(std::unique_ptr<Operator> child, AggregateOptions options);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }

  /// Groups whose key strings were materialized at emit time rather than
  /// compared per row; 0 when dictionary-code grouping did not engage.
  uint64_t groups_late_materialized() const {
    return groups_late_materialized_;
  }

 private:
  /// Finalizes the open group into the pending output row buffer (fails
  /// on an overflowing integer SUM).
  Status CloseGroup();

  std::unique_ptr<Operator> child_;
  AggregateOptions options_;
  Schema schema_;
  size_t key_idx_ = 0;
  std::vector<size_t> agg_idx_;
  TypeId key_type_ = TypeId::kInteger;
  std::shared_ptr<const StringHeap> key_heap_;

  // Dictionary-code grouping: group boundaries compare dense per-heap
  // codes (stable across heap changes mid-stream); pending keys hold codes
  // that resolve to tokens at emit. -1 = undecided until the first block.
  std::unique_ptr<StringKeyNormalizer> norm_;
  int norm_state_ = -1;
  uint64_t groups_late_materialized_ = 0;

  bool group_open_ = false;
  Lane group_key_ = 0;
  std::vector<AggStates> states_;  // one group (the open one) per agg

  // Output rows buffered until a block fills; a string result's token
  // resolves against its entry in pending_heaps_.
  std::vector<Lane> pending_keys_;
  std::vector<std::vector<Lane>> pending_aggs_;
  std::vector<std::vector<std::shared_ptr<const StringHeap>>> pending_heaps_;
  bool input_done_ = false;
};

}  // namespace tde

#endif  // TDE_EXEC_ORDERED_AGGREGATE_H_
