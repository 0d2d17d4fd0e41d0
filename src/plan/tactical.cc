#include "src/plan/tactical.h"

namespace tde {

GroupingChoice ChooseGrouping(const ColumnProps& key) {
  GroupingChoice c;
  const ColumnMetadata& m = key.meta;
  // The hash sees decoded lanes, so the deciding width is that of the
  // value range, not of the stored (possibly dictionary-packed) tokens.
  const uint8_t value_width =
      m.min_max_known ? MinSignedWidth(m.min_value, m.max_value) : key.width;
  c.algorithm = ChooseHashAlgorithm(value_width, m.min_max_known,
                                    m.min_value, m.max_value);
  if (key.codes) {
    // The entry table: the cardinality, plus an entry for NULL unless the
    // column has none.
    if (m.cardinality_known) {
      c.domain = {0, m.cardinality + (m.null_known && !m.has_nulls ? 0 : 1)};
    }
  } else if (m.min_max_known && m.max_value >= m.min_value) {
    // A span of 2^64 wraps to 0: unknown.
    c.domain = {m.min_value, static_cast<uint64_t>(m.max_value) -
                                 static_cast<uint64_t>(m.min_value) + 1};
  }
  return c;
}

IndexedAggChoice ChooseIndexedAggregation(
    const std::vector<IndexEntry>& entries, bool already_value_ordered) {
  IndexedAggChoice c;
  if (already_value_ordered) {
    // Primary sort key: the index is in value order for free.
    c.ordered_aggregation = true;
    return c;
  }
  if (entries.empty()) return c;
  uint64_t total = 0;
  for (const IndexEntry& e : entries) total += e.count;
  const uint64_t avg_run = total / entries.size();
  // Runs shorter than the block iteration size make the system process
  // many more small blocks, degrading past what ordered aggregation can
  // compensate (Sect. 6.6).
  if (avg_run >= kBlockSize) {
    c.sort_index = true;
    c.ordered_aggregation = true;
  }
  return c;
}

}  // namespace tde
