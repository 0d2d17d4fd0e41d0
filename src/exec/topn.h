#ifndef TDE_EXEC_TOPN_H_
#define TDE_EXEC_TOPN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/sort.h"
#include "src/exec/sort_keys.h"

namespace tde {

/// One input of a TopN. A plain LIMIT-over-ORDER-BY has a single source;
/// the executor may split a Top-N directly over a scan into one source per
/// storage segment, attaching the first sort key's zone (segment min/max)
/// so whole segments are skipped — never opened, their cold columns never
/// faulted — once the heap's worst kept row proves they cannot contribute.
struct TopNSource {
  std::unique_ptr<Operator> op;
  /// First-key zone of this source's rows, when known. Only trusted for
  /// key types whose lane order is the sort order (LaneComparable).
  bool zone_known = false;
  Lane min_value = 0;
  Lane max_value = 0;
  bool has_nulls = true;
};

struct TopNOptions {
  /// Integer-domain string key comparisons (see SortOptions::dict_sort).
  bool dict_sort = true;
  /// Rows arrive non-decreasing on the first sort key (single ascending
  /// sorted source): once the heap is full and a row cannot enter, no
  /// later row can, so the drain short-circuits.
  bool input_sorted = false;
};

/// Bounded-heap ORDER BY ... LIMIT k: keeps the k best rows in a
/// max-heap-of-the-worst while streaming the input, O(n log k) comparisons
/// and O(k) materialized rows instead of a full sort's O(n log n) / O(n).
/// Output order and tie-breaking match Sort exactly (stable: equal-key
/// rows win by earlier input position), so enable_topn never changes
/// results, only work.
class TopN : public Operator {
 public:
  TopN(std::vector<TopNSource> sources, std::vector<SortKey> keys,
       uint64_t limit, TopNOptions options = {});
  TopN(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
       uint64_t limit, TopNOptions options = {});

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  const Schema& output_schema() const override;

  // Observed while draining; read by the executor's instrumentation hook.
  uint64_t input_rows() const { return input_rows_; }
  /// Rows copied into the bounded store (appends + replacements) — the
  /// sort.rows_materialized of a Top-N, ideally << input_rows.
  uint64_t rows_materialized() const { return rows_materialized_; }
  /// Sources skipped without opening because their zone could not beat
  /// the heap's worst row.
  uint64_t segments_skipped() const { return segments_skipped_; }
  /// String keys compared in the integer domain (tokens or ranks).
  uint64_t dict_keys() const { return dict_keys_; }
  /// Whether a sorted input let the drain stop before exhaustion.
  bool early_stopped() const { return early_stopped_; }

 private:
  /// True when stored row `a` orders strictly before stored row `b`
  /// (full keys, then input order — the stable tie-break).
  bool RowLess(uint32_t a, uint32_t b) const;
  /// True when the candidate (comparison lanes in cand_) beats stored row
  /// `slot`. Key ties lose: the candidate arrived later.
  bool CandidateBeats(uint32_t slot) const;
  /// Re-derives each string key's comparison mode from its column's heap
  /// state, rebuilding that key's stored comparison lanes on a change.
  void RefreshKeys();
  Status DrainSource(Operator* op, bool sorted_source);
  void Finalize();

  std::vector<TopNSource> sources_;
  std::vector<SortKey> keys_;
  uint64_t limit_ = 0;
  TopNOptions options_;

  std::vector<size_t> key_cols_;
  std::vector<sortkeys::PreparedKey> prepared_;
  std::vector<sortkeys::HeapUnifier> unifiers_;
  /// Column ever re-interned a foreign heap: its heap now grows, so rank /
  /// raw-token modes are off the table (downgraded to kCollate).
  std::vector<char> translated_;
  sortkeys::StringRankCache rank_cache_;

  std::vector<ColumnVector> store_;            // kept rows, <= limit
  std::vector<std::vector<Lane>> key_store_;   // comparison lanes per key
  std::vector<uint64_t> seq_store_;            // input position per row
  std::vector<uint32_t> heap_;                 // slots, worst row on top
  std::vector<Lane> cand_;                     // current row's key lanes

  std::vector<uint32_t> result_;  // store slots in output order
  uint64_t emit_ = 0;
  uint64_t seq_ = 0;

  uint64_t input_rows_ = 0;
  uint64_t rows_materialized_ = 0;
  uint64_t segments_skipped_ = 0;
  uint64_t dict_keys_ = 0;
  bool early_stopped_ = false;
};

}  // namespace tde

#endif  // TDE_EXEC_TOPN_H_
