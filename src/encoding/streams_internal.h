#ifndef TDE_ENCODING_STREAMS_INTERNAL_H_
#define TDE_ENCODING_STREAMS_INTERNAL_H_

#include <vector>

#include "src/common/hash.h"
#include "src/encoding/stream.h"

namespace tde {
namespace internal {

/// Bit 0 of the reserved header byte: sign-extend values narrower than 8
/// bytes on load. A storage detail, not type knowledge: encodings remain
/// semantically neutral, they just need a lossless load.
inline constexpr uint8_t kSignExtendFlag = 1;

inline bool SignExtendOf(const ConstHeaderView& h) {
  return (h.GetU64(16) >> 56) & kSignExtendFlag;  // byte 23
}

/// Sizes the buffer to `data_offset` and writes the common 24-byte prefix.
inline void InitHeader(std::vector<uint8_t>* buf, EncodingType type,
                       uint8_t width, uint8_t bits, bool sign_extend,
                       uint64_t data_offset) {
  buf->assign(data_offset, 0);
  HeaderView h(buf);
  h.set_logical_size(0);
  h.set_data_offset(data_offset);
  h.set_block_size(kBlockSize);
  h.set_algorithm(type);
  h.set_width(width);
  h.set_bits(bits);
  if (sign_extend) (*buf)[23] = kSignExtendFlag;
}

/// Loads a `width`-byte value honoring the stream's sign-extension flag.
inline Lane LoadLane(const uint8_t* p, uint8_t width, bool sign_extend) {
  return sign_extend ? LoadSigned(p, width)
                     : static_cast<Lane>(LoadUnsigned(p, width));
}

/// True if `v` can be stored in `width` bytes under the given signedness.
inline bool LaneFits(Lane v, uint8_t width, bool sign_extend) {
  return sign_extend ? FitsSigned(v, width)
                     : FitsUnsigned(static_cast<uint64_t>(v), width);
}

/// Uncompressed: raw little-endian `width`-byte values, bits == 8 * width.
class UncompressedStream : public BlockedStream {
 public:
  static std::unique_ptr<UncompressedStream> Make(uint8_t width,
                                                  bool sign_extend);
  static std::unique_ptr<UncompressedStream> FromBuffer(
      std::vector<uint8_t> buf);

 protected:
  size_t BlockBytes() const override;
  Status Stage(const Lane* values, size_t count) override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Frame-of-reference (Sect. 3.1.1): header holds an 8-byte frame value;
/// packed values are added to it.
class ForStream : public BlockedStream {
 public:
  static constexpr uint64_t kFrameOffset = 24;
  static std::unique_ptr<ForStream> Make(uint8_t width, int64_t frame,
                                         uint8_t bits);
  static std::unique_ptr<ForStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t frame() const { return header().GetI64(kFrameOffset); }

 protected:
  size_t BlockBytes() const override;
  Status Stage(const Lane* values, size_t count) override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Delta (Sect. 3.1.2): header holds the 8-byte minimum delta; each block
/// starts with an 8-byte running total (the block's first value) so the
/// stream supports random as well as sequential access.
class DeltaStream : public BlockedStream {
 public:
  static constexpr uint64_t kMinDeltaOffset = 24;
  static std::unique_ptr<DeltaStream> Make(uint8_t width, int64_t min_delta,
                                           uint8_t bits);
  static std::unique_ptr<DeltaStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t min_delta() const { return header().GetI64(kMinDeltaOffset); }

 protected:
  size_t BlockBytes() const override;
  Status Stage(const Lane* values, size_t count) override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;

 private:
  bool have_last_ = false;
  Lane last_ = 0;
};

/// Dictionary (Sect. 3.1.3): header holds the entry count followed by space
/// for 2^bits entries of `width` bytes, so the dictionary can grow in place
/// up to the limit; packed values are indexes. While the stream accepts
/// appends, an open-addressed map sized for 2^bits entries (at most 2^15)
/// takes each value to its code in one probe; the staged tail holds the
/// codes, so packing looks nothing up again. A finalized stream only
/// decodes and carries no map.
class DictStream : public BlockedStream {
 public:
  static constexpr uint64_t kEntryCountOffset = 24;
  static constexpr uint64_t kEntriesOffset = 32;

  static std::unique_ptr<DictStream> Make(uint8_t width, bool sign_extend,
                                          uint8_t bits);
  static std::unique_ptr<DictStream> FromBuffer(std::vector<uint8_t> buf);

  Status Get(uint64_t row, size_t count, Lane* out) const override;
  Status Finalize() override;

  uint64_t entry_count() const { return header().GetU64(kEntryCountOffset); }
  /// All entries, in index order.
  std::vector<Lane> Entries() const;
  /// Slots of the value->index map (0 once finalized or opened).
  uint64_t map_slots() const { return map_.slots.size(); }

  /// Compressed-domain reads: codes are the packed indexes themselves, so
  /// this skips the per-row entry decode of Get().
  bool GetCodes(uint64_t row, size_t count, Lane* out) const override;
  std::vector<Lane> CodeEntries() const override { return Entries(); }

 protected:
  size_t BlockBytes() const override;
  /// Codes each value, adding unseen ones as entries. A value too wide for
  /// the element width fails with OutOfRange, and one past the capacity
  /// with CapacityExceeded (a too-wide value anywhere in the batch takes
  /// precedence); either failure removes the entries this call added.
  Status Stage(const Lane* values, size_t count) override;
  void PackBlock(const Lane* codes) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;

 private:
  /// Linear-probing map value->code, at most half full: one probe finds a
  /// value's code or the free slot where it goes.
  struct CodeMap {
    struct Slot {
      Lane key;
      uint32_t code;  // code + 1; 0 marks a free slot
    };
    std::vector<Slot> slots;
    uint64_t mask = 0;
    void Init(uint64_t slot_count) {
      slots.assign(slot_count, Slot{0, 0});
      mask = slot_count - 1;
    }
    /// The slot holding `key`, or the free slot where it belongs.
    Slot& Probe(Lane key) {
      uint64_t i = Mix64(static_cast<uint64_t>(key)) & mask;
      while (slots[i].code != 0 && slots[i].key != key) i = (i + 1) & mask;
      return slots[i];
    }
  };

  Lane Entry(uint64_t code) const;

  CodeMap map_;
};

/// Affine (Sect. 3.1.4): value = base + row * delta; zero packed bits.
class AffineStream : public BlockedStream {
 public:
  static constexpr uint64_t kBaseOffset = 24;
  static constexpr uint64_t kDeltaOffset = 32;

  static std::unique_ptr<AffineStream> Make(uint8_t width, int64_t base,
                                            int64_t delta);
  static std::unique_ptr<AffineStream> FromBuffer(std::vector<uint8_t> buf);

  int64_t base() const { return header().GetI64(kBaseOffset); }
  int64_t delta() const { return header().GetI64(kDeltaOffset); }

 protected:
  size_t BlockBytes() const override { return 0; }
  Status Stage(const Lane* values, size_t count) override;
  void PackBlock(const Lane* values) override;
  void DecodeBlock(uint64_t block_idx, Lane* out) const override;
};

/// Run-length (Sect. 3.1.5): its own format — the common prefix plus two
/// field-width bytes, then length/value pairs. A read finds its first run
/// by binary search over sparse checkpoints (the start row of every
/// kCheckpointStride-th pair, recorded as pairs are emitted or when a
/// stream is opened) and walks at most kCheckpointStride pairs from there,
/// so forward and backward seeks cost the same and concurrent readers
/// share no state. The planner still keeps RLE off hash-join inner sides
/// (Sect. 4.3): each random probe pays that search.
class RleStream : public EncodedStream {
 public:
  static constexpr uint64_t kCountWidthOffset = 24;
  static constexpr uint64_t kValueWidthOffset = 25;
  static constexpr uint64_t kPairsOffset = 32;
  static constexpr uint64_t kCheckpointStride = 64;

  static std::unique_ptr<RleStream> Make(uint8_t width, bool sign_extend,
                                         uint8_t count_width,
                                         uint8_t value_width);
  static std::unique_ptr<RleStream> FromBuffer(std::vector<uint8_t> buf);

  Status Append(const Lane* values, size_t count) override;
  /// Appends a whole run in O(1) (used by RLE rebuild, Sect. 3.4.1).
  Status AppendRun(Lane value, uint64_t count);
  Status Finalize() override;
  Status Get(uint64_t row, size_t count, Lane* out) const override;
  Status GetRuns(std::vector<RleRun>* out) const override;
  uint64_t size() const override { return total_; }

  uint8_t count_width() const { return buf_[kCountWidthOffset]; }
  uint8_t value_width() const { return buf_[kValueWidthOffset]; }
  uint64_t run_count() const;

 private:
  void EmitRun();
  /// Notes stored pair `pair_idx` (of `run_len` rows) in the checkpoints.
  void RecordPair(uint64_t pair_idx, uint64_t run_len);
  uint64_t StoredPairs() const;
  Lane RunValue(uint64_t pair_idx) const;
  uint64_t RunCount(uint64_t pair_idx) const;

  uint64_t total_ = 0;
  bool in_run_ = false;
  Lane cur_value_ = 0;
  uint64_t cur_count_ = 0;
  bool finalized_stream_ = false;
  // checkpoints_[k] = first row of stored pair k * kCheckpointStride;
  // stored_rows_ = rows covered by the stored pairs.
  std::vector<uint64_t> checkpoints_;
  uint64_t stored_rows_ = 0;
};

}  // namespace internal
}  // namespace tde

#endif  // TDE_ENCODING_STREAMS_INTERNAL_H_
