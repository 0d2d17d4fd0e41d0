#ifndef TDE_OBSERVE_QUERY_STATS_H_
#define TDE_OBSERVE_QUERY_STATS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/observe/journal.h"

namespace tde {
namespace observe {

/// Per-operator runtime observations, collected by the execution layer's
/// instrumentation wrapper. Mirrors the operator tree: one node per
/// lowered operator, children in plan order. Times are inclusive of the
/// subtree (each wrapper surrounds its operator's Open/Next/Close, and the
/// operator drives its children from inside those calls).
struct OperatorStats {
  std::string name;      // e.g. "TableScan(lineitem)", "Filter"
  uint64_t rows = 0;     // rows emitted
  uint64_t blocks = 0;   // non-empty blocks emitted
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;  // total across all Next() calls
  uint64_t close_ns = 0;
  /// Set on an operator whose input ran as parallel morsel tasks (the
  /// morsel-parallel aggregate): the tasks' time summed — each task's wall
  /// time from start to end, so it includes time the thread was
  /// descheduled or blocked — plus the operator's time outside them. The
  /// input nodes' times are sums over the same tasks, so self time
  /// subtracts them from this; the parent still subtracts the wall time,
  /// total_ns(). 0 for every serial operator.
  uint64_t task_ns = 0;
  /// The query counters this operator accounts for, in QueryCounter order:
  /// lowering sets the plan-time ones (pruning, dictionary rewrites,
  /// metadata answers, runs skipped or sorted) on the node it attaches, and
  /// Close hooks the run-time ones. This is the one record of an
  /// operator-level counter: the executor charges the tree's counts to the
  /// registry and the query's StatsScope once the query has run, and
  /// EXPLAIN ANALYZE shows each nonzero one under its tde_queries column
  /// name.
  std::array<uint64_t, kNumQueryCounters> counts{};
  /// Operator-specific observations that are not query counters (e.g.
  /// Exchange's per-worker queue-wait and emit counts), as (label, value)
  /// pairs.
  std::vector<std::pair<std::string, uint64_t>> extras;
  /// Observations that are words, not counts (e.g. whether a join built
  /// its key index or reused a kept one), as (label, value) pairs.
  std::vector<std::pair<std::string, std::string>> tags;
  std::vector<std::shared_ptr<OperatorStats>> children;

  uint64_t total_ns() const { return open_ns + next_ns + close_ns; }
  /// Subtree time spent in this operator alone (time summed over tasks
  /// when task_ns is set), never negative.
  uint64_t self_ns() const;

  void Count(QueryCounter c, uint64_t n) {
    counts[static_cast<size_t>(c)] += n;
  }
  /// Adds the counts of this node and of every node below it to `sum`.
  void SumCounts(std::array<uint64_t, kNumQueryCounters>* sum) const;
};

/// The runtime profile of one executed query: the operator stats tree plus
/// the tactical notes recorded while lowering. Attached to QueryResult by
/// the executor; rendered by EXPLAIN ANALYZE.
struct QueryStats {
  std::shared_ptr<OperatorStats> root;
  uint64_t total_ns = 0;
  std::vector<std::string> notes;
  /// Id of this query's entry in the global QueryJournal (0 when the
  /// journal did not record it). Printed by EXPLAIN ANALYZE so the plan
  /// can be joined against tde_queries after the fact.
  uint64_t journal_id = 0;

  /// The operator tree annotated with rows/blocks/ms per node, one node
  /// per line, followed by the tactical notes:
  ///   Filter  rows=1204 blocks=2 time=0.41ms (self 0.12ms)
  ///     TableScan(t)  rows=6000 blocks=6 time=0.29ms
  std::string ToString() const;
  /// Machine-readable dump for bench perf records.
  std::string ToJson() const;
};

}  // namespace observe
}  // namespace tde

#endif  // TDE_OBSERVE_QUERY_STATS_H_
