#ifndef TDE_PLAN_TACTICAL_H_
#define TDE_PLAN_TACTICAL_H_

#include <map>
#include <string>

#include "src/common/hash.h"
#include "src/encoding/metadata.h"
#include "src/exec/hash_aggregate.h"
#include "src/exec/indexed_scan.h"

namespace tde {

/// Per-column properties derived on the go during plan lowering
/// (Sect. 2.3.1's "this time property derivation happens on-the-go and can
/// be more accurate"). Width matters because hash algorithm choice is a
/// function of key width (Sect. 2.3.4).
struct ColumnProps {
  ColumnMetadata meta;
  uint8_t width = 8;
  TypeId type = TypeId::kInteger;
  /// The lanes are dictionary codes (a dict-code scan's group key), dense
  /// in an entry table of about meta.cardinality entries.
  bool codes = false;
};

using PropMap = std::map<std::string, ColumnProps>;

/// Tactical choice of grouping for one aggregation key: the hash
/// algorithm a lone key groups with, from its width and range (Sect.
/// 2.3.4), and the key's id domain (AggregateOptions::key_domains) — a
/// dictionary-code key's entry table as the metadata estimates it (the
/// operator sizes its index from the table itself), otherwise the metadata
/// range of the key's lanes. Unknown (span 0) without metadata.
struct GroupingChoice {
  HashAlgorithm algorithm = HashAlgorithm::kCollision;
  KeyDomain domain;
};
GroupingChoice ChooseGrouping(const ColumnProps& key);

/// Tactical choice for an IndexedScan feeding an aggregation
/// (Sect. 4.2.2/6.6): sorting the index by value enables ordered
/// aggregation, but if the runs are small the many small blocks cost more
/// than the ordered aggregation saves. The threshold is the block
/// iteration size, per the paper's conclusion.
struct IndexedAggChoice {
  bool sort_index = false;
  bool ordered_aggregation = false;
};
IndexedAggChoice ChooseIndexedAggregation(
    const std::vector<IndexEntry>& entries, bool already_value_ordered);

}  // namespace tde

#endif  // TDE_PLAN_TACTICAL_H_
