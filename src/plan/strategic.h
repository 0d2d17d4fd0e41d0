#ifndef TDE_PLAN_STRATEGIC_H_
#define TDE_PLAN_STRATEGIC_H_

#include <vector>

#include "src/plan/plan.h"
#include "src/storage/segment/segment.h"

namespace tde {

/// The one place for rewrite and lowering switches: StrategicOptimize reads
/// them all, and BuildExecutable, given the same struct, reads the
/// dictionary-predicate, dictionary-grouping, dictionary-sort and
/// sort-pruning switches.
struct StrategicOptions {
  /// Rewrite filters over dictionary-compressed columns into invisible
  /// joins with predicate push-down (Sect. 4.1).
  bool enable_invisible_join = true;
  /// Rewrite filter+aggregate over run-length columns into IndexTable rank
  /// joins (Sect. 4.2).
  bool enable_rank_join = true;
  /// Force order-preserving routing on exchanges whose output is encoded
  /// downstream (Sect. 4.3).
  bool enforce_order_preserving_exchange = true;
  /// Expression simplification: constant folding and boolean identities
  /// over every predicate and projection (Sect. 2.3.1). Filters whose
  /// predicate folds to TRUE are removed.
  bool enable_simplification = true;
  /// Filtering move-around (Sect. 2.3.1): push filters through projections
  /// when the predicate only touches pass-through columns, so they can
  /// reach scans and become decompression-join rewrites.
  bool enable_filter_pushdown = true;
  /// Narrow unrestricted scans to the columns the plan above actually
  /// reads. With the paged v2 format this is what makes a single-column
  /// query materialize a single column: untouched columns stay cold.
  bool enable_projection_pruning = true;
  /// Metadata pruning (Sect. 3.4.2 applied to filtering): fold predicates
  /// against per-column min/max/nullability. A provably-false filter over
  /// a scan becomes LIMIT 0 (the scan never opens, so cold columns stay on
  /// disk); a provably-true one dissolves. All facts come from the
  /// directory — deciding never faults data in.
  bool enable_metadata_pruning = true;
  /// Run-level predicate evaluation (Sect. 4.2 beyond aggregation): a
  /// single-column filter over a scan whose column is run-length encoded
  /// becomes an IndexedScan that evaluates the predicate once per run and
  /// emits or skips whole runs, preserving row order.
  bool enable_run_filters = true;
  /// Dictionary-code predicates: let the tactical lowering translate
  /// single-string-column boolean predicates into token ranges/sets
  /// evaluated on integer codes (no per-row heap lookups or collation).
  bool enable_dict_predicates = true;
  /// Dictionary-code grouping (Sect. 4 applied to aggregation): string
  /// group-by keys are grouped on dense per-heap codes via a translation
  /// cache and one key string per *group* materializes at finalize time,
  /// instead of one heap lookup per row.
  bool enable_dict_grouping = true;
  /// Run-level aggregate folding: Aggregate-over-Scan whose aggregates all
  /// read one run-length encoded column (or are COUNT(*)) becomes an
  /// aggregation over the IndexTable that folds each run in O(1)
  /// (`sum += value * count`).
  bool enable_run_aggregation = true;
  /// Metadata aggregate short-circuits: whole-table COUNT(*) / COUNT /
  /// MIN / MAX / COUNTD answered from directory facts at strategic time.
  /// The scan is never built, so cold columns stay on disk.
  bool enable_metadata_aggregates = true;
  /// Limit-over-Sort fusion: ORDER BY ... LIMIT k keeps the k best rows in
  /// a bounded heap (O(n log k), O(k) materialized rows) instead of fully
  /// sorting and then discarding. Ties and output order match the full
  /// sort exactly.
  bool enable_topn = true;
  /// Compressed-domain sort keys: string ORDER BY columns compare as
  /// integers — raw tokens when the heap is sorted, per-heap collation
  /// ranks otherwise — instead of running the locale collation per
  /// comparison.
  bool enable_dict_sort = true;
  /// Run/segment awareness for ordering: a single-key ascending ORDER BY
  /// on an uncompressed run-length column becomes ordered run retrieval
  /// (sorting runs, not rows), and a Top-N directly over a segmented scan
  /// skips whole segments whose zone map cannot beat the heap's worst
  /// kept row.
  bool enable_sort_pruning = true;
};

/// The strategic (compile-time) optimizer: rule-based rewrites over the
/// logical plan, driven by storage-level properties the decompression-join
/// model exposes to it (Sect. 4). The arrangement of operators is decided
/// here; their implementations are chosen tactically at run time.
Result<PlanNodePtr> StrategicOptimize(PlanNodePtr root,
                                      const StrategicOptions& options = {});

/// Outcome of folding a filter predicate against per-segment zone maps.
struct SegmentPruneResult {
  /// Row ranges the scan must still visit. Empty when nothing was pruned
  /// (scan everything); the degenerate {0,0} when every segment was
  /// pruned.
  std::vector<RowRange> ranges;
  /// Zone-map verdicts that skipped a segment (counted per predicate
  /// column — the EXPLAIN ANALYZE `filter.segments_pruned` figure).
  uint64_t segments_pruned = 0;
  /// Rows inside the skipped ranges.
  uint64_t rows_pruned = 0;
};

/// Segment pruning (the tentpole of zone-map filtering): folds `predicate`
/// once per segment of every segmented column it references, substituting
/// the segment's zone map for the column's metadata. Segments whose fold is
/// provably false are dropped from the scan's visit list — their blobs
/// never fault in on the lazy v3 path. Consults directory facts only.
SegmentPruneResult PruneScanSegments(const Table& table,
                                     const ExprPtr& predicate);

}  // namespace tde

#endif  // TDE_PLAN_STRATEGIC_H_
