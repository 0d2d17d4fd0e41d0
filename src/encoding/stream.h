#ifndef TDE_ENCODING_STREAM_H_
#define TDE_ENCODING_STREAM_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/encoding/header.h"
#include "src/encoding/stats.h"

namespace tde {

/// One run of a run-length encoded stream.
struct RleRun {
  Lane value;
  uint64_t count;
};

/// An encoded stream (Sect. 2.3.2): externally a paged array of fixed-width
/// values, internally one of the Sect. 3.1 formats serialized into a single
/// byte buffer whose first bytes are the Fig.-1 header. Encodings are
/// semantically neutral — they see 64-bit lanes and an element width, never
/// the logical type.
///
/// Building protocol: Append() blocks of lanes (all-or-nothing; a
/// representation failure returns OutOfRange/CapacityExceeded and leaves the
/// stream untouched so the dynamic encoder can re-encode), then Finalize()
/// once, which pads the tail to a complete decompression block and stamps
/// the logical size. Get() provides random access at any point.
class EncodedStream {
 public:
  virtual ~EncodedStream() = default;

  EncodedStream(const EncodedStream&) = delete;
  EncodedStream& operator=(const EncodedStream&) = delete;

  /// Creates an empty stream of the given encoding. `stats` describes the
  /// data about to be inserted (at minimum the first pending block) and
  /// parameterizes the format: frame value, minimum delta, dictionary bits,
  /// affine base/delta, run field widths. `headroom_bits` widens the bit
  /// field beyond what `stats` strictly requires so that the encoding
  /// survives modest drift before the dynamic encoder must re-encode.
  static Result<std::unique_ptr<EncodedStream>> Create(
      EncodingType type, uint8_t width, bool sign_extend,
      const EncodingStats& stats, uint8_t headroom_bits);

  /// Opens a finalized serialized stream (takes ownership of the buffer).
  static Result<std::unique_ptr<EncodedStream>> Open(std::vector<uint8_t> buf);

  /// Appends `count` lanes; all-or-nothing on representation failure.
  virtual Status Append(const Lane* values, size_t count) = 0;

  /// Flushes the pending tail as a complete decompression block and stamps
  /// the header. Idempotent.
  virtual Status Finalize() = 0;

  /// Random access: decodes lanes [row, row + count).
  virtual Status Get(uint64_t row, size_t count, Lane* out) const = 0;

  /// Runs of the stream, in order (cheap for run-length streams, derived
  /// for others). Used to build IndexTables (Sect. 4.2).
  virtual Status GetRuns(std::vector<RleRun>* out) const;

  /// Dictionary-coded fast path: writes the dense dictionary code of rows
  /// [row, row + count) into `out`, skipping the per-row entry decode.
  /// Codes index CodeEntries(). Returns false (out unspecified) for
  /// streams that are not dictionary-coded.
  virtual bool GetCodes(uint64_t row, size_t count, Lane* out) const {
    (void)row;
    (void)count;
    (void)out;
    return false;
  }

  /// Entry table of a dictionary-coded stream: code -> decoded lane, in
  /// code order. Empty unless GetCodes is supported.
  virtual std::vector<Lane> CodeEntries() const { return {}; }

  EncodingType type() const { return header().algorithm(); }
  uint8_t width() const { return header().width(); }
  uint8_t bits() const { return header().bits(); }

  /// True for SegmentedStream: the column is an ordered list of
  /// independently-encoded segments rather than one serialized buffer, and
  /// buffer() holds only a synthetic header (no packed data).
  virtual bool segmented() const { return false; }

  /// Bytes one logical value occupies in the packed representation: the
  /// packed code width for dictionaries, the run value field width for
  /// run-length, the element width otherwise. Prices scans in compressed
  /// bytes (Sect. 6.5).
  virtual uint8_t TokenWidthBytes() const;

  /// Logical number of values (including not-yet-finalized ones).
  virtual uint64_t size() const = 0;

  /// Serialized bytes (header + packed data) — the on-disk footprint.
  virtual uint64_t PhysicalSize() const { return buf_.size(); }
  /// Physical size once pending values are flushed into complete blocks
  /// (equals PhysicalSize() after Finalize).
  virtual uint64_t ProjectedPhysicalSize() const { return buf_.size(); }
  /// Un-encoded footprint: logical size * element width (Fig. 5's
  /// "logical size" baseline).
  uint64_t LogicalBytes() const { return size() * width(); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t>* mutable_buffer() { return &buf_; }

 protected:
  EncodedStream() = default;

  ConstHeaderView header() const { return ConstHeaderView(buf_); }
  HeaderView mheader() { return HeaderView(&buf_); }

  std::vector<uint8_t> buf_;
};

/// Shared implementation for the five block-structured encodings
/// (uncompressed, frame-of-reference, delta, dictionary, affine). Run-length
/// encoding has its own layout and implementation (RleStream).
class BlockedStream : public EncodedStream {
 public:
  Status Append(const Lane* values, size_t count) override;
  Status Finalize() override;
  Status Get(uint64_t row, size_t count, Lane* out) const override;
  uint64_t size() const override {
    return finalized_ + pending_.size();
  }
  uint64_t ProjectedPhysicalSize() const override {
    const uint64_t tail_blocks =
        (pending_.size() + kBlockSize - 1) / kBlockSize;
    return buf_.size() + tail_blocks * BlockBytes();
  }

 protected:
  /// Bytes one packed decompression block occupies.
  virtual size_t BlockBytes() const = 0;
  /// Verifies every value is representable given the current stream state
  /// and appends to pending_ what PackBlock packs for them: the values
  /// themselves, or a dictionary's codes. A failure leaves the stream as it
  /// was.
  virtual Status Stage(const Lane* values, size_t count) = 0;
  /// Packs exactly kBlockSize staged lanes and appends them to buf_.
  virtual void PackBlock(const Lane* staged) = 0;
  /// Decodes finalized block `block_idx` into out[kBlockSize].
  virtual void DecodeBlock(uint64_t block_idx, Lane* out) const = 0;

  const uint8_t* BlockData(uint64_t block_idx) const {
    return buf_.data() + header().data_offset() + block_idx * BlockBytes();
  }

  uint64_t finalized_ = 0;        // values packed into buf_
  std::vector<Lane> pending_;     // staged tail not yet forming a block
  bool finalized_stream_ = false;
};

}  // namespace tde

#endif  // TDE_ENCODING_STREAM_H_
