#ifndef TDE_EXEC_FLOW_TABLE_H_
#define TDE_EXEC_FLOW_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/table_scan.h"
#include "src/observe/import_stats.h"
#include "src/storage/table.h"

namespace tde {

struct FlowTableOptions {
  /// Apply lightweight encodings (off = the paper's baseline config).
  bool enable_encodings = true;
  /// Maintain the heap accelerator for string columns (Sect. 5.1.4).
  bool heap_acceleration = true;
  /// Run the post-processing manipulations of Sect. 3.4: type narrowing,
  /// heap sorting for dictionary-encoded string columns, metadata
  /// extraction.
  bool post_process = true;
  /// Rows per sealed segment (0 = the TDE_SEGMENT_ROWS knob / 64K
  /// default). Columns no longer than one segment stay monolithic.
  uint64_t segment_rows = 0;
  std::string table_name = "flow";
};

/// FlowTable (Sect. 3.3): the stop-and-go operator that turns a stream of
/// row blocks into a table. The drain collects the blocks; then one task
/// per column on the shared pool interns that column's strings and
/// dynamically encodes it, and the Sect. 3.4 manipulations run as a
/// post-processing step of each column's build, extracting metadata for
/// the tactical optimizer along the way.
class FlowTable : public Operator {
 public:
  FlowTable(std::unique_ptr<Operator> child, FlowTableOptions options = {});

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override;
  const Schema& output_schema() const override;

  /// The built table; valid after Open().
  std::shared_ptr<Table> table() const { return table_; }

  /// Per-column encoding telemetry (chosen encoding, input vs. encoded
  /// bytes, re-encode count, header manipulations); valid after Open()
  /// when stats collection is enabled.
  const std::vector<observe::ColumnImportStats>& column_stats() const {
    return column_stats_;
  }
  /// Wall time of the column tasks (string interning and encoding; the
  /// drain excluded); valid after Open().
  double encode_seconds() const { return encode_seconds_; }

  /// One-shot: drain `child` and build the table.
  static Result<std::shared_ptr<Table>> Build(
      std::unique_ptr<Operator> child, FlowTableOptions options = {});

 private:
  std::unique_ptr<Operator> child_;
  FlowTableOptions options_;
  std::shared_ptr<Table> table_;
  std::unique_ptr<TableScan> scan_;
  Schema schema_;
  bool built_ = false;
  std::vector<observe::ColumnImportStats> column_stats_;
  double encode_seconds_ = 0;
};

/// The per-column build pipeline FlowTable runs; exposed for reuse by the
/// import path and tests. Builds one encoded Column from accumulated lanes
/// (plus, for strings, the heap built during the drain).
struct ColumnBuildInput {
  std::string name;
  TypeId type;
  std::vector<Lane> lanes;
  std::shared_ptr<StringHeap> heap;  // strings only
  // Accelerator observations (strings with acceleration on):
  bool accel_active = false;
  uint64_t accel_distinct = 0;
  bool accel_arrived_sorted = false;
};

/// Builds one encoded column. When `stats_out` is non-null the encoding
/// outcome (chosen encoding, input vs. encoded bytes, re-encode count,
/// header manipulations) is recorded into it.
Result<std::shared_ptr<Column>> BuildColumn(
    ColumnBuildInput in, const FlowTableOptions& options,
    observe::ColumnImportStats* stats_out = nullptr);

}  // namespace tde

#endif  // TDE_EXEC_FLOW_TABLE_H_
