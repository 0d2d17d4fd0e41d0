#ifndef TDE_EXEC_PARALLEL_ROLLUP_H_
#define TDE_EXEC_PARALLEL_ROLLUP_H_

#include <functional>
#include <memory>

#include "src/exec/hash_aggregate.h"
#include "src/exec/indexed_scan.h"

namespace tde {

/// Index roll-up (Sect. 8): applies an order-preserving calculation (e.g.
/// truncating a date to the start of its month) to the *index* of a sorted
/// run-length column, then re-aggregates the ranges with MIN(start) and
/// SUM(count). This converts an index on raw values into an index on the
/// rolled-up values without touching the raw rows.
///
/// Requires the index to be sorted by value and `fn` to be
/// order-preserving; the resulting ranges must stay contiguous per rolled
/// value or an error is returned.
Result<std::vector<IndexEntry>> RollUpIndex(
    const std::vector<IndexEntry>& index,
    const std::function<Lane(Lane)>& fn);

/// Parallel ordered aggregation over an index (Sect. 8): partitions the
/// value-sorted index across `workers` at group boundaries, runs
/// IndexedScan + OrderedAggregate per partition as a task group on the
/// shared TaskScheduler pool, and concatenates the partition results —
/// which are globally ordered because the partitions are value-disjoint.
struct ParallelRollupOptions {
  std::string value_name;
  TypeId value_type = TypeId::kInteger;
  std::vector<AggSpec> aggs;  // inputs resolved against payload columns
  std::vector<std::string> payload;
  /// <= 0 derives the partition count from the shared pool's size, clamped
  /// so one query cannot monopolize the pool
  /// (TaskScheduler::SuggestedQueryParallelism).
  int workers = 0;
};

struct ParallelRollupResult {
  Schema schema;
  std::vector<Block> blocks;
  /// Index entries folded in O(1) instead of row expansion (0 when the
  /// fold path did not engage).
  uint64_t runs_folded = 0;
};

Result<ParallelRollupResult> ParallelIndexedAggregate(
    std::shared_ptr<const Table> table, std::vector<IndexEntry> index,
    const ParallelRollupOptions& options);

/// Options for RunFoldAggregate. Aggregate inputs must all name the index
/// value column (or be COUNT(*)); there is no payload — that restriction
/// is what makes every aggregate foldable per run.
struct RunFoldOptions {
  std::string value_name;
  TypeId value_type = TypeId::kInteger;
  std::shared_ptr<const StringHeap> value_heap;
  /// Group by the index value: one output row per distinct value in
  /// first-occurrence order (matching HashAggregate over the expanded
  /// rows). When false, a single whole-table row.
  bool group_by_value = true;
  std::vector<AggSpec> aggs;
};

/// Aggregation in the compressed domain (Sect. 4): consumes IndexTable
/// rows directly and folds each (value, count) run in O(1) —
/// `sum += value * count` — instead of expanding `count` rows through a
/// scan. Output is identical to HashAggregate over the decoded rows.
class RunFoldAggregate : public Operator {
 public:
  RunFoldAggregate(std::vector<IndexEntry> index, RunFoldOptions options);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  const Schema& output_schema() const override { return schema_; }

  uint64_t runs_folded() const { return runs_folded_; }

 private:
  std::vector<IndexEntry> index_;
  RunFoldOptions options_;
  Schema schema_;
  std::vector<Lane> out_keys_;
  std::vector<std::vector<Lane>> out_aggs_;   // [agg][group]
  uint64_t groups_ = 0;
  uint64_t emit_ = 0;
  uint64_t runs_folded_ = 0;
};

}  // namespace tde

#endif  // TDE_EXEC_PARALLEL_ROLLUP_H_
