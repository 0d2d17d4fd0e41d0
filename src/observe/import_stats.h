#ifndef TDE_OBSERVE_IMPORT_STATS_H_
#define TDE_OBSERVE_IMPORT_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tde {
namespace observe {

/// The encoding outcome of one imported column — the (column stats →
/// chosen encoding → achieved ratio) record an encoding advisor would
/// learn from, and the raw material of the paper's Fig. 5/8/9 analyses.
struct ColumnImportStats {
  std::string column;
  std::string type;          // logical type name
  std::string encoding;      // final encoding name (e.g. "dictionary")
  uint64_t rows = 0;
  uint64_t input_bytes = 0;    // un-encoded footprint (lanes + heap)
  uint64_t encoded_bytes = 0;  // stream + heap + array dictionary
  int encoding_changes = 0;    // mid-stream re-encodes (Sect. 3.2)
  uint64_t bytes_written = 0;  // total written including rewrites
  /// O(1)/O(entries) header manipulations applied in post-processing
  /// (type narrowing, dictionary-entry remapping for heap sorting).
  uint64_t header_manipulations = 0;
  uint8_t token_width = 8;  // final per-row token width in bytes
  /// Wall time of the column's build task: string interning plus encoding.
  /// The longest task bounds the import's encode phase.
  double task_seconds = 0;

  double compression_ratio() const {
    return encoded_bytes == 0
               ? 0.0
               : static_cast<double>(input_bytes) /
                     static_cast<double>(encoded_bytes);
  }
};

/// Telemetry for one import (TextScan parse + FlowTable encode).
struct ImportStats {
  std::string table_name;
  // Parse phase.
  uint64_t bytes_parsed = 0;
  uint64_t rows = 0;
  uint64_t parse_errors = 0;
  double parse_seconds = 0;
  // Encode phase: wall time of FlowTable's column tasks, which intern each
  // string column into its own heap as well as encode it.
  double encode_seconds = 0;
  std::vector<ColumnImportStats> columns;

  uint64_t input_bytes() const;
  uint64_t encoded_bytes() const;
  double compression_ratio() const;
  /// Parse throughput in rows per second (0 when unmeasured).
  double rows_per_second() const {
    return parse_seconds > 0 ? static_cast<double>(rows) / parse_seconds : 0;
  }

  /// Human-readable per-column table.
  std::string ToString() const;
  /// Machine-readable perf record for benches and the tde_stats dump.
  std::string ToJson() const;
};

}  // namespace observe
}  // namespace tde

#endif  // TDE_OBSERVE_IMPORT_STATS_H_
