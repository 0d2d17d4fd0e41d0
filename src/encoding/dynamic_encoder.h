#ifndef TDE_ENCODING_DYNAMIC_ENCODER_H_
#define TDE_ENCODING_DYNAMIC_ENCODER_H_

#include <memory>

#include "src/encoding/stream.h"

namespace tde {

/// Options controlling a dynamic encoder.
struct DynamicEncoderOptions {
  /// With encoding disabled, values pass straight into an uncompressed
  /// stream and no statistics are gathered (the paper's "encoding off"
  /// baseline configuration).
  bool enable_encodings = true;
  /// Bitmask of admissible encodings (EncodingMask); narrowed to
  /// kAllowUncompressed when encodings are disabled.
  uint32_t allowed = kAllowAll;
  /// Extra packing bits beyond what the observed data requires, so modest
  /// drift does not immediately force a re-encode.
  uint8_t headroom_bits = 2;
  /// Convert to the optimal encoding at Finalize if the current one is not
  /// (Sect. 3.2: "compare the current encoding with the optimal one and
  /// convert to this optimal format if desired").
  bool convert_to_optimal = true;
  /// Element width and signedness of the stream.
  uint8_t width = 8;
  bool sign_extend = true;
  /// Prefer dictionary encoding whenever it compresses at all, even if a
  /// pure size ranking would pick frame-of-reference or delta. Used for
  /// string token streams (Sect. 6.3: heap tokens "typically end up being
  /// dictionary encoded if the domain is small"), because the dictionary's
  /// entry list is what makes cheap heap sorting and invisible-join
  /// reasoning possible. Affine still wins when it applies — it is the
  /// paper's own c_name example.
  bool prefer_dictionary = false;
};

/// The finished product of dynamically encoding one column.
struct EncodedColumn {
  std::unique_ptr<EncodedStream> stream;
  EncodingStats stats;
  /// Number of times the encoder had to re-encode mid-stream (the paper
  /// reports 2 for TPC-H SF-1 lineitem).
  int encoding_changes = 0;
  /// Total bytes written including rewrites — comparable against the
  /// unencoded column size to verify rewrites still save I/O.
  uint64_t bytes_written = 0;
};

/// Dynamic encoding (Sect. 3.2): statistics are tracked continually as
/// values are inserted; each block updates the stats *before* being
/// appended, so whenever an append fails (representation limits, full
/// dictionary) the encoder can consult the stats, pick the new best
/// encoding and rewrite the stream. At Finalize the current encoding is
/// compared against the optimal one and converted if requested.
class DynamicEncoder {
 public:
  explicit DynamicEncoder(DynamicEncoderOptions options);

  DynamicEncoder(const DynamicEncoder&) = delete;
  DynamicEncoder& operator=(const DynamicEncoder&) = delete;

  /// Appends one block of lanes.
  Status Append(const Lane* values, size_t count);

  /// Finalizes (optionally converting to the optimal encoding) and
  /// releases the encoded column. Terminal: the stats move into the
  /// result, so stats() is empty afterwards.
  Result<EncodedColumn> Finalize();

  const EncodingStats& stats() const { return stats_; }
  int encoding_changes() const { return changes_; }
  /// Current encoding choice (for tests and progress reporting).
  EncodingType current_encoding() const;

 private:
  EncodingType Choose() const;
  Status Reencode(EncodingType next, const Lane* more, size_t more_count);

  DynamicEncoderOptions options_;
  EncodingStats stats_;
  std::unique_ptr<EncodedStream> stream_;
  int changes_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace tde

#endif  // TDE_ENCODING_DYNAMIC_ENCODER_H_
