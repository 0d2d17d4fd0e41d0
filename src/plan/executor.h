#ifndef TDE_PLAN_EXECUTOR_H_
#define TDE_PLAN_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/observe/query_stats.h"
#include "src/plan/plan.h"
#include "src/plan/strategic.h"
#include "src/plan/tactical.h"
#include "src/storage/segment/segment.h"

namespace tde {

class MorselStats;

/// A lowered plan: the operator tree plus the column properties derived
/// while lowering (which the tactical optimizer consumed along the way).
struct BuiltPlan {
  std::unique_ptr<Operator> op;
  PropMap props;
  /// Non-empty when the operator's output is known to arrive grouped on
  /// this column (contiguous key runs) — enables ordered aggregation.
  std::string grouped_on;
  /// Human-readable record of the tactical decisions made while lowering
  /// (join strategy, hash algorithm, index sorting), for EXPLAIN output.
  std::vector<std::string> notes;
  /// Root of the per-operator stats tree `op` records into (null when
  /// stats collection is disabled). Mirrors the lowered operator tree.
  std::shared_ptr<observe::OperatorStats> stats;
  /// Set while `op` is a chain that can run as several copies: a scan of
  /// a segmented table under any filters, projections, joins and
  /// invisible joins. This is the one way a scan's segments become work
  /// units. `morsels` are the scan's surviving segment ranges, in row
  /// order. `zones`, the zone map of each one's segment, is set by the
  /// scan alone: the Top-N's segment sources read it, and only over a
  /// bare scan.
  /// `replicate(ranges, stats)` builds another copy of `op` that reads
  /// only the scan rows in `ranges` (some of the morsels), sharing what
  /// lowering built once (lowered predicates with their dictionary
  /// translations, join builds, code maps, code tables); the copy's
  /// operators record into `stats`. The morsel-parallel HashAggregate and
  /// the Top-N's segment sources make one copy per morsel; a partitioned
  /// Exchange deals the morsels round robin to its partitions, one copy
  /// per partition.
  std::function<std::unique_ptr<Operator>(std::vector<RowRange> ranges,
                                          MorselStats* stats)>
      replicate;
  std::vector<RowRange> morsels;
  std::vector<SegmentZone> zones;
};

/// Lowers a logical plan to an executable operator tree, making tactical
/// decisions (join strategy, hash algorithm, ordered aggregation, index
/// sorting) from derived metadata. `options` are the ones the plan was
/// optimized under: their dictionary-predicate, dictionary-grouping,
/// dictionary-sort and sort-pruning switches decide which compressed-domain
/// lowerings apply.
Result<BuiltPlan> BuildExecutable(const PlanNodePtr& node,
                                  const StrategicOptions& options = {});

/// A fully materialized query result.
class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(Schema schema, std::vector<Block> blocks);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Lane at (row, col).
  Lane Value(uint64_t row, size_t col) const;
  /// Formatted value at (row, col) — strings resolved through their heap.
  std::string ValueString(uint64_t row, size_t col) const;

  const std::vector<Block>& blocks() const { return blocks_; }

  /// Renders the first `max_rows` rows as an aligned text table.
  std::string ToString(uint64_t max_rows = 20) const;

  /// Renders the whole result as CSV (header row, quoted strings).
  std::string ToCsv() const;

  /// The runtime profile collected while the query ran (per-operator rows,
  /// blocks and wall time plus tactical notes). Null when stats collection
  /// was disabled or the result was not produced by the executor.
  const observe::QueryStats* stats() const { return stats_.get(); }
  void set_stats(std::shared_ptr<const observe::QueryStats> s) {
    stats_ = std::move(s);
  }

 private:
  const ColumnVector* Locate(uint64_t row, size_t col, size_t* offset) const;

  Schema schema_;
  std::vector<Block> blocks_;
  uint64_t rows_ = 0;
  std::shared_ptr<const observe::QueryStats> stats_;
};

/// Optimizes (strategic, under `options`), lowers (tactical) and runs a
/// plan.
Result<QueryResult> ExecutePlan(const Plan& plan,
                                const StrategicOptions& options = {});
/// Lowers (under the `options` it was optimized under) and runs an
/// already-optimized plan tree, then charges its operators' counts
/// (OperatorStats::counts) to the registry and the query's journal entry.
Result<QueryResult> ExecutePlanNode(const PlanNodePtr& root,
                                    const StrategicOptions& options);

/// EXPLAIN: the plan tree as optimized under `options` plus the tactical
/// decisions the executor would make (join strategy, hash algorithm,
/// index ordering). Lowers the plan — building invisible joins' code maps
/// and indexed scans' run indexes — but does not run it, so it records no
/// journal entry and charges no counter.
Result<std::string> ExplainPlan(const Plan& plan,
                                const StrategicOptions& options = {});

/// EXPLAIN ANALYZE: optimizes under `options`, lowers and *runs* the plan,
/// returning the operator tree annotated with per-operator rows, blocks
/// and wall time, followed by the tactical notes. The executed result is
/// copied out through `result` when non-null (stats collection is forced
/// on for the duration of the call).
Result<std::string> ExplainAnalyzePlan(const Plan& plan,
                                       QueryResult* result = nullptr,
                                       const StrategicOptions& options = {});

}  // namespace tde

#endif  // TDE_PLAN_EXECUTOR_H_
