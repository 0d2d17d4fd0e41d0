#ifndef TDE_TEXTSCAN_INFERENCE_H_
#define TDE_TEXTSCAN_INFERENCE_H_

#include <string_view>
#include <vector>

#include "src/storage/schema.h"

namespace tde {

/// Splits a record into fields on `sep`, honoring RFC-4180 quoting: a
/// separator inside a double-quoted field is field content, not a split
/// point, and a doubled quote inside a quoted field is a literal quote.
/// Fields keep their surrounding quotes (UnquoteField strips and
/// unescapes them at consumption time).
void SplitRecord(std::string_view record, char sep,
                 std::vector<std::string_view>* fields);

/// Iterates records of a byte buffer (records separated by end-of-line).
/// A newline inside a double-quoted field is field content and does not
/// terminate the record (RFC 4180). Returns the next record and advances
/// *pos past its terminator; false at end of buffer.
bool NextRecord(std::string_view data, size_t* pos, std::string_view* record);

/// Advances *pos past up to `max_rows` non-empty records, ending each where
/// NextRecord would, and returns how many it passed. It looks only at
/// newlines and quote parity, so a reader can cut a buffer into
/// record-aligned chunks before any chunk is tokenized.
size_t SkipRecords(std::string_view data, size_t* pos, size_t max_rows);

/// The format TextScan inferred (Sect. 5.1.1): field separator via simple
/// statistical analysis of a sample, column types by competitive parsing
/// (the parser with the fewest errors wins), and header detection by
/// applying the winning parsers to the first row.
struct InferredFormat {
  char field_separator = ',';
  bool has_header = false;
  Schema schema;
};

struct InferenceOptions {
  size_t sample_rows = 100;
  /// 0 = infer the separator from {',', '\t', '|', ';'}.
  char field_separator = 0;
};

Result<InferredFormat> InferFormat(std::string_view data,
                                   const InferenceOptions& options = {});

}  // namespace tde

#endif  // TDE_TEXTSCAN_INFERENCE_H_
