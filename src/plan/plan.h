#ifndef TDE_PLAN_PLAN_H_
#define TDE_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/exchange.h"
#include "src/exec/flow_table.h"
#include "src/exec/hash_aggregate.h"
#include "src/exec/hash_join.h"
#include "src/exec/project.h"
#include "src/exec/sort.h"
#include "src/storage/table.h"

namespace tde {

enum class PlanNodeKind {
  kScan,
  kFilter,
  kProject,
  kAggregate,
  kSort,
  kJoinTable,      // explicit many-to-one join against a stored table
  kInvisibleJoin,  // decompression join through a code map (4.1)
  kIndexedScan,    // rank join against an IndexTable (4.2)
  kExchange,
  kMaterialize,    // FlowTable sink
  kLimit,
  kTopN,           // Limit-over-Sort fused into a bounded heap
};

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// A logical plan node. The strategic optimizer rewrites trees of these;
/// the executor lowers them to operators, making tactical choices from
/// derived metadata as it goes.
struct PlanNode {
  PlanNodeKind kind;
  std::vector<PlanNodePtr> children;

  // kScan
  std::shared_ptr<const Table> table;
  std::vector<std::string> columns;  // empty = all
  /// Group-by keys emitted as dense dictionary codes with the entry table
  /// attached (set by the dict-grouping rewrite; cleared when
  /// StrategicOptions::enable_dict_grouping is off).
  std::vector<std::string> code_columns;

  // kFilter
  ExprPtr predicate;
  /// Lowering may evaluate eligible predicate subtrees in the compressed
  /// (dictionary-code) domain. Cleared by the strategic optimizer when
  /// StrategicOptions::enable_dict_predicates is off.
  bool compressed_eval = true;

  // kProject
  std::vector<ProjectedColumn> projections;

  // kAggregate
  AggregateOptions agg;
  /// Input is known grouped on the key: use ordered aggregation.
  bool grouped_input = false;
  /// Force hash aggregation even over grouped input (benchmark control).
  bool force_hash_agg = false;
  /// Set by the run-aggregation rewrite: the child is an IndexedScan over
  /// the aggregate's only input column, and every aggregate folds whole
  /// (value, count) runs in O(1) instead of consuming expanded rows.
  bool fold_runs = false;
  /// Set by the metadata-aggregate rewrite: one answer lane per aggregate
  /// spec, computed from directory facts. The scan child is kept for
  /// schema derivation but never built or opened.
  bool metadata_answered = false;
  std::vector<Lane> metadata_row;

  // kSort / kTopN
  std::vector<SortKey> sort_keys;
  /// Lowering may compare string sort keys in the integer domain (raw
  /// tokens of a sorted heap, else a per-heap code->rank cache). Cleared by
  /// the strategic optimizer when StrategicOptions::enable_dict_sort is
  /// off.
  bool dict_sort = true;

  // kTopN (also uses `limit`)
  /// The executor may split a Top-N directly over a scan into per-segment
  /// sources and skip segments whose zone map cannot beat the heap's
  /// current worst row. Cleared when
  /// StrategicOptions::enable_sort_pruning is off.
  bool sort_pruning = true;

  // kJoinTable
  std::shared_ptr<const Table> inner_table;
  HashJoinOptions join;

  // kInvisibleJoin: expand dictionary-compressed column `dict_column` of
  // the child scan through its dictionary; `inner_predicate` and
  // `inner_projections` were pushed down to the dictionary side, and run
  // once per entry (a code map). Output: the scan's columns, then the
  // computations.
  std::string dict_column;
  ExprPtr inner_predicate;
  std::vector<ProjectedColumn> inner_projections;

  // kIndexedScan: rank-join the RLE column `index_column` of `table`.
  std::string index_column;
  ExprPtr index_predicate;
  /// Sort the index by value before scanning (ordered retrieval, 4.2.2);
  /// when unset the executor decides tactically.
  std::optional<bool> sort_index_by_value;
  /// Set by the run-sort rewrite (an ORDER BY on an RLE column became
  /// ordered run retrieval): sorting touched runs, not rows — counted as
  /// sort.runs_sorted.
  bool sort_runs = false;
  std::vector<std::string> payload;

  // kExchange
  /// <= 0 sizes the exchange from the shared scheduler pool at build time
  /// (TaskScheduler::SuggestedQueryParallelism).
  int exchange_workers = 0;
  bool order_preserving = false;

  // kMaterialize
  FlowTableOptions flow;

  // kLimit
  uint64_t limit = 0;
  /// Rows a metadata-pruned filter proved away (set on the LIMIT 0 node
  /// that replaces it, for metrics and EXPLAIN ANALYZE).
  uint64_t pruned_rows = 0;
};

/// Fluent builder for logical plans.
class Plan {
 public:
  static Plan Scan(std::shared_ptr<const Table> table,
                   std::vector<std::string> columns = {});

  Plan Filter(ExprPtr predicate) &&;
  Plan Project(std::vector<ProjectedColumn> projections) &&;
  Plan Aggregate(std::vector<std::string> group_by,
                 std::vector<AggSpec> aggs) &&;
  Plan OrderBy(std::vector<SortKey> keys) &&;
  Plan Join(std::shared_ptr<const Table> inner, HashJoinOptions join) &&;
  Plan ExchangeBy(int workers, bool order_preserving = false) &&;
  Plan Limit(uint64_t n) &&;
  Plan Materialize(FlowTableOptions options = {}) &&;

  const PlanNodePtr& root() const { return root_; }

 private:
  PlanNodePtr root_;
};

/// Pretty-prints a plan tree (one node per line, indented).
std::string PlanToString(const PlanNodePtr& node);

/// Deep-copies a plan tree. Strategic optimization rewrites node fields in
/// place (predicates are reassigned, scan column lists narrowed, rewrite
/// flags cleared), so executing one parsed plan twice — or under different
/// StrategicOptions — requires a fresh tree each time. Expressions and
/// tables are immutable after construction and stay shared.
PlanNodePtr ClonePlan(const PlanNodePtr& node);

}  // namespace tde

#endif  // TDE_PLAN_PLAN_H_
