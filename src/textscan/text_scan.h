#ifndef TDE_TEXTSCAN_TEXT_SCAN_H_
#define TDE_TEXTSCAN_TEXT_SCAN_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "src/exec/block.h"
#include "src/textscan/inference.h"

namespace tde {

/// Parse-side telemetry of one TextScan run (import observability).
struct TextScanStats {
  uint64_t bytes = 0;         // input bytes (whole buffer/file)
  uint64_t rows = 0;          // rows produced so far
  uint64_t parse_errors = 0;  // unparseable fields turned into NULLs
  double parse_seconds = 0;   // wall time spent inside FillBatch
  double rows_per_second() const {
    return parse_seconds > 0 ? static_cast<double>(rows) / parse_seconds : 0;
  }
};

struct TextScanOptions {
  /// Provide to skip type/name inference.
  std::optional<Schema> schema;
  std::optional<bool> has_header;
  /// 0 = infer.
  char field_separator = 0;
  size_t sample_rows = 100;
  /// Columns to emit (empty = all) — e.g. only the scalar columns for the
  /// Fig. 4 "Scalars" configuration.
  std::vector<std::string> columns;
};

/// TextScan (Sect. 5.1): a flow operator that reads a memory-mapped byte
/// stream and produces blocks of typed data, inferring separator, types
/// and header if no schema is given. Unparseable fields become NULLs and
/// are counted.
///
/// Parsing runs on the shared pool: each batch is cut into record-aligned
/// chunks of one block each, every chunk parses in its own task into its
/// own lanes and heaps, and the blocks come out in input order, so the
/// output does not depend on the pool size.
class TextScan : public Operator {
 public:
  static Result<std::unique_ptr<TextScan>> FromFile(const std::string& path,
                                                    TextScanOptions options = {});
  static std::unique_ptr<TextScan> FromBuffer(std::string data,
                                              TextScanOptions options = {});

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  const Schema& output_schema() const override { return schema_; }

  uint64_t parse_errors() const { return parse_errors_; }
  char field_separator() const { return format_.field_separator; }
  bool has_header() const { return format_.has_header; }
  /// The full inferred schema (before column projection).
  const Schema& file_schema() const { return format_.schema; }
  /// Parse telemetry (bytes, rows, errors, wall time).
  const TextScanStats& scan_stats() const { return scan_stats_; }

 private:
  explicit TextScan(std::string data, TextScanOptions options)
      : data_(std::move(data)), options_(std::move(options)) {}

  Status FillBatch();
  /// Tokenizes and parses the `rows` non-empty records in [begin, end) of
  /// the buffer into `out`; returns the count of unparseable fields.
  uint64_t ParseChunk(size_t begin, size_t end, size_t rows, Block* out) const;
  /// Renames format_.schema's fields from the first record — for callers
  /// forcing has_header=true past inference's verdict.
  void AdoptHeaderNames();

  std::string data_;
  TextScanOptions options_;
  InferredFormat format_;
  Schema schema_;                  // projected output schema
  std::vector<size_t> col_map_;    // output column -> file column
  size_t pos_ = 0;
  uint64_t parse_errors_ = 0;
  std::deque<Block> pending_;
  bool input_done_ = false;
  TextScanStats scan_stats_;
};

}  // namespace tde

#endif  // TDE_TEXTSCAN_TEXT_SCAN_H_
