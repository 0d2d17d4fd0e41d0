#ifndef TDE_EXEC_TABLE_SCAN_H_
#define TDE_EXEC_TABLE_SCAN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/block.h"
#include "src/storage/segment/segment.h"
#include "src/storage/table.h"

namespace tde {

/// The code_columns entry tables of one lowered scan, shared by every copy
/// of it (the per-segment scans of morsel-parallel aggregation, the
/// partitions of an Exchange): the first copy to open builds them and the
/// others reuse them, so a column's dictionary is copied out of its stream
/// once per query, not once per copy.
struct ScanCodeTables {
  std::mutex mu;
  bool built = false;
  std::vector<std::shared_ptr<const ArrayDictionary>> dicts;
};

struct TableScanOptions {
  /// Columns to scan (empty = all), in output order.
  std::vector<std::string> columns;
  /// Columns to emit as dense dictionary codes with the code -> lane entry
  /// table attached (ColumnVector::dict): a dictionary-coded stream's codes
  /// (entries are heap tokens for strings), or an array-dictionary
  /// column's stored tokens (entries are its values). Set for the group
  /// keys of the dict-grouping rewrite and for an invisible join's column;
  /// ignored for columns that have no dense code.
  std::vector<std::string> code_columns;
  /// Row ranges to visit (empty = the whole table). Set by the scan's
  /// lowering: the ranges zone-map pruning leaves, or the morsels one copy
  /// of the scan reads; normalized (sorted, disjoint, clamped to the
  /// table) at Open. Rows outside the ranges are never decoded — for a
  /// segmented cold column their segments never fault in.
  std::vector<RowRange> ranges;
  /// Entry tables for `code_columns`, shared with the other copies of this
  /// scan. Null = a table set of this scan's own.
  std::shared_ptr<ScanCodeTables> code_tables;
};

/// The code -> lane entry table a code-mode scan attaches to `column`'s
/// codes: an array-dictionary column's dictionary, or a dictionary-coded
/// heap column's entries (heap tokens). Null when it has no dense code.
/// `pin` is the column's pinned payload (null for a hot column).
std::shared_ptr<const ArrayDictionary> CodeEntryTable(
    const std::shared_ptr<const Column>& column,
    const pager::LoadedColumn* pin);

/// Scans a stored table block by block, decoding each column's encoded
/// stream one decompression block per iteration block (they are the same
/// size by design, Sect. 3.1).
class TableScan : public Operator {
 public:
  TableScan(std::shared_ptr<const Table> table, TableScanOptions options = {});

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override;
  const Schema& output_schema() const override { return schema_; }

 private:
  std::shared_ptr<const Table> table_;
  TableScanOptions options_;
  std::vector<std::shared_ptr<Column>> cols_;
  /// Pins for cold columns (null entries for hot ones), taken in Open and
  /// dropped in Close: the payloads cannot be evicted mid-query, and the
  /// heap/dict pointers emitted into blocks stay valid as long as the
  /// blocks share them.
  std::vector<std::shared_ptr<const pager::LoadedColumn>> pins_;
  Schema schema_;
  /// Per-column code -> lane entry table for code_columns, built at Open;
  /// null for columns emitted normally.
  std::vector<std::shared_ptr<const ArrayDictionary>> code_dicts_;
  /// Normalized visit list (always non-empty after Open; one full-table
  /// range when options_.ranges is empty) and the cursor into it.
  std::vector<RowRange> ranges_;
  size_t range_idx_ = 0;
  uint64_t row_ = 0;
  /// Scan-volume accounting, flushed to the query counters at Close: plain
  /// members updated per block so the decode loop touches no atomics.
  uint64_t rows_scanned_ = 0;
  uint64_t stored_bytes_per_block_row_ = 0;  // sum of per-row stored widths
  Status init_error_;
};

}  // namespace tde

#endif  // TDE_EXEC_TABLE_SCAN_H_
