#include "src/encoding/stream.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/bitutil.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {

Status EncodedStream::GetRuns(std::vector<RleRun>* out) const {
  // Generic derivation: scan the stream block-wise and coalesce runs.
  out->clear();
  const uint64_t n = size();
  std::vector<Lane> buf(kBlockSize);
  for (uint64_t row = 0; row < n; row += kBlockSize) {
    const size_t take = static_cast<size_t>(std::min<uint64_t>(kBlockSize, n - row));
    TDE_RETURN_NOT_OK(Get(row, take, buf.data()));
    for (size_t i = 0; i < take; ++i) {
      if (!out->empty() && out->back().value == buf[i]) {
        ++out->back().count;
      } else {
        out->push_back({buf[i], 1});
      }
    }
  }
  return Status::OK();
}

Status BlockedStream::Append(const Lane* values, size_t count) {
  if (finalized_stream_) {
    return Status::Internal("append to a finalized stream");
  }
  TDE_RETURN_NOT_OK(Stage(values, count));
  // Pack every complete decompression block.
  size_t consumed = 0;
  while (pending_.size() - consumed >= kBlockSize) {
    PackBlock(pending_.data() + consumed);
    finalized_ += kBlockSize;
    consumed += kBlockSize;
  }
  if (consumed > 0) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(consumed));
  }
  return Status::OK();
}

Status BlockedStream::Finalize() {
  if (finalized_stream_) return Status::OK();
  const uint64_t logical = finalized_ + pending_.size();
  if (!pending_.empty()) {
    // Streams contain only complete decompression blocks (Sect. 3.1): pad
    // the tail with its last staged lane, which is representable by
    // construction.
    std::vector<Lane> block(pending_.begin(), pending_.end());
    block.resize(kBlockSize, pending_.back());
    PackBlock(block.data());
    finalized_ += pending_.size();
    pending_.clear();
  }
  mheader().set_logical_size(logical);
  finalized_stream_ = true;
  return Status::OK();
}

Status BlockedStream::Get(uint64_t row, size_t count, Lane* out) const {
  const uint64_t logical = size();
  if (row + count > logical) {
    return Status::OutOfRange("read past end of stream");
  }
  size_t produced = 0;
  // Finalized (packed) region.
  if (row < finalized_) {
    Lane block_buf[kBlockSize];
    while (produced < count && row + produced < finalized_) {
      const uint64_t abs = row + produced;
      const uint64_t block = abs / kBlockSize;
      const uint64_t in_block = abs % kBlockSize;
      if (in_block == 0 && count - produced >= kBlockSize &&
          finalized_ - abs >= kBlockSize) {
        DecodeBlock(block, out + produced);  // a whole block: no staging
        produced += kBlockSize;
        continue;
      }
      DecodeBlock(block, block_buf);
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(kBlockSize - in_block,
                             std::min<uint64_t>(count - produced,
                                                finalized_ - abs)));
      std::memcpy(out + produced, block_buf + in_block, take * sizeof(Lane));
      produced += take;
    }
  }
  // Pending tail.
  while (produced < count) {
    const uint64_t abs = row + produced;
    out[produced] = pending_[abs - finalized_];
    ++produced;
  }
  return Status::OK();
}

Result<std::unique_ptr<EncodedStream>> EncodedStream::Create(
    EncodingType type, uint8_t width, bool sign_extend,
    const EncodingStats& stats, uint8_t headroom_bits) {
  switch (type) {
    case EncodingType::kUncompressed:
      return {std::unique_ptr<EncodedStream>(
          internal::UncompressedStream::Make(width, sign_extend))};
    case EncodingType::kFrameOfReference: {
      const uint64_t range = static_cast<uint64_t>(stats.max_value()) -
                             static_cast<uint64_t>(stats.min_value());
      uint8_t bits = BitsFor(range);
      bits = static_cast<uint8_t>(std::min<int>(64, bits + headroom_bits));
      // Center the headroom: future values may drift below the observed
      // minimum just as easily as above the maximum.
      int64_t frame = stats.min_value();
      if (headroom_bits > 0 && bits < 64) {
        const uint64_t capacity = (uint64_t{1} << bits) - 1;
        const uint64_t slack = (capacity - range) / 2;
        const __int128 lowered = static_cast<__int128>(frame) -
                                 static_cast<__int128>(slack);
        frame = lowered < std::numeric_limits<int64_t>::min()
                    ? std::numeric_limits<int64_t>::min()
                    : static_cast<int64_t>(lowered);
      }
      return {std::unique_ptr<EncodedStream>(
          internal::ForStream::Make(width, frame, bits))};
    }
    case EncodingType::kDelta: {
      __int128 min_delta = stats.has_deltas() ? stats.min_delta() : 0;
      __int128 drange =
          stats.has_deltas() ? stats.max_delta() - stats.min_delta() : 0;
      if (min_delta < std::numeric_limits<int64_t>::min() ||
          min_delta > std::numeric_limits<int64_t>::max() ||
          drange > static_cast<__int128>(std::numeric_limits<uint64_t>::max())) {
        return {Status::OutOfRange("delta range not representable")};
      }
      uint8_t bits = BitsFor(static_cast<uint64_t>(drange));
      bits = static_cast<uint8_t>(std::min<int>(64, bits + headroom_bits));
      // Center the delta headroom as well.
      __int128 base_delta = min_delta;
      if (headroom_bits > 0 && bits < 64) {
        const uint64_t capacity = (uint64_t{1} << bits) - 1;
        const uint64_t slack =
            (capacity - static_cast<uint64_t>(drange)) / 2;
        base_delta -= static_cast<__int128>(slack);
        if (base_delta < std::numeric_limits<int64_t>::min()) {
          base_delta = std::numeric_limits<int64_t>::min();
        }
      }
      return {std::unique_ptr<EncodedStream>(internal::DeltaStream::Make(
          width, static_cast<int64_t>(base_delta), bits))};
    }
    case EncodingType::kDictionary: {
      if (!stats.cardinality_known()) {
        return {Status::CapacityExceeded("domain exceeds dictionary limit")};
      }
      const uint64_t card = std::max<uint64_t>(1, stats.cardinality());
      uint8_t bits = std::max<uint8_t>(1, BitsFor(card - 1));
      bits = static_cast<uint8_t>(std::min<int>(15, bits + headroom_bits));
      return {std::unique_ptr<EncodedStream>(
          internal::DictStream::Make(width, sign_extend, bits))};
    }
    case EncodingType::kAffine: {
      const int64_t delta =
          stats.has_deltas() ? static_cast<int64_t>(stats.min_delta()) : 0;
      return {std::unique_ptr<EncodedStream>(
          internal::AffineStream::Make(width, stats.first_value(), delta))};
    }
    case EncodingType::kRunLength: {
      const uint8_t count_width =
          MinUnsignedWidth(std::max<uint64_t>(1, stats.max_run_length()));
      uint8_t value_width = MinSignedWidth(stats.min_value(),
                                           stats.max_value());
      if (headroom_bits > 0 && value_width < 8) {
        value_width = static_cast<uint8_t>(value_width * 2);
      }
      return {std::unique_ptr<EncodedStream>(internal::RleStream::Make(
          width, sign_extend, count_width, value_width))};
    }
    case EncodingType::kSegmented:
      // Segmented is a container over the physical encodings above, built
      // through SegmentedStream, never through the dynamic encoder.
      return {Status::InvalidArgument(
          "segmented streams are built via SegmentedStream")};
  }
  return {Status::InvalidArgument("unknown encoding type")};
}

uint8_t EncodedStream::TokenWidthBytes() const {
  switch (type()) {
    case EncodingType::kDictionary:
      // The per-row data of a dictionary-encoded stream is its packed index.
      return static_cast<uint8_t>((bits() + 7) / 8);
    case EncodingType::kRunLength:
      // Per-row values occupy the run value field width.
      return buf_[internal::RleStream::kValueWidthOffset];
    default:
      return width();
  }
}

namespace {

/// Structural validation of a serialized stream before trusting it: a
/// corrupt single-file database must fail cleanly, never fault.
Status ValidateStreamBuffer(const std::vector<uint8_t>& buf) {
  if (buf.size() < HeaderView::kExtraOffset) {
    return Status::IOError("stream buffer too small for header");
  }
  const ConstHeaderView h(buf);
  const uint8_t w = h.width();
  if (w != 1 && w != 2 && w != 4 && w != 8) {
    return Status::IOError("invalid element width in stream header");
  }
  if (h.bits() > 64) {
    return Status::IOError("invalid packing bit count in stream header");
  }
  if (h.block_size() == 0 || h.block_size() % 32 != 0) {
    return Status::IOError("invalid decompression block size");
  }
  if (h.data_offset() < HeaderView::kExtraOffset ||
      h.data_offset() > buf.size()) {
    return Status::IOError("data offset outside stream buffer");
  }
  const uint64_t logical = h.logical_size();
  const uint64_t data_bytes = buf.size() - h.data_offset();
  switch (h.algorithm()) {
    case EncodingType::kUncompressed:
    case EncodingType::kFrameOfReference:
    case EncodingType::kDelta:
    case EncodingType::kDictionary: {
      uint64_t block_bytes = PackedBytes(h.block_size(), h.bits());
      if (h.algorithm() == EncodingType::kDelta) block_bytes += 8;
      if (h.algorithm() == EncodingType::kUncompressed) {
        block_bytes = static_cast<uint64_t>(h.block_size()) * w;
      }
      const uint64_t blocks =
          (logical + h.block_size() - 1) / h.block_size();
      if (blocks * block_bytes > data_bytes) {
        return Status::IOError("stream data truncated");
      }
      if (h.algorithm() == EncodingType::kDictionary) {
        if (h.bits() > 15) {
          return Status::IOError("dictionary bit count exceeds limit");
        }
        const uint64_t entry_space =
            static_cast<uint64_t>(w) * (uint64_t{1} << h.bits());
        if (32 + entry_space > h.data_offset()) {
          return Status::IOError("dictionary entry space truncated");
        }
        if (h.GetU64(24) > (uint64_t{1} << h.bits())) {
          return Status::IOError("dictionary entry count exceeds capacity");
        }
      }
      break;
    }
    case EncodingType::kAffine:
      if (h.data_offset() < 40) {
        return Status::IOError("affine header truncated");
      }
      break;
    case EncodingType::kRunLength: {
      const uint8_t cw = buf[24];
      const uint8_t vw = buf[25];
      if (cw == 0 || cw > 8 || vw == 0 || vw > 8) {
        return Status::IOError("invalid run-length field widths");
      }
      uint64_t total = 0;
      const uint64_t pairs = data_bytes / (cw + vw);
      for (uint64_t i = 0; i < pairs && total < logical; ++i) {
        total += LoadUnsigned(
            buf.data() + h.data_offset() + i * (cw + vw), cw);
      }
      if (total < logical) {
        return Status::IOError("run-length pairs cover fewer values than "
                               "the logical size");
      }
      break;
    }
    default:
      return Status::IOError("unknown encoding in stream header");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<EncodedStream>> EncodedStream::Open(
    std::vector<uint8_t> buf) {
  TDE_RETURN_NOT_OK(ValidateStreamBuffer(buf));
  const EncodingType type = ConstHeaderView(buf).algorithm();
  switch (type) {
    case EncodingType::kUncompressed:
      return {std::unique_ptr<EncodedStream>(
          internal::UncompressedStream::FromBuffer(std::move(buf)))};
    case EncodingType::kFrameOfReference:
      return {std::unique_ptr<EncodedStream>(
          internal::ForStream::FromBuffer(std::move(buf)))};
    case EncodingType::kDelta:
      return {std::unique_ptr<EncodedStream>(
          internal::DeltaStream::FromBuffer(std::move(buf)))};
    case EncodingType::kDictionary:
      return {std::unique_ptr<EncodedStream>(
          internal::DictStream::FromBuffer(std::move(buf)))};
    case EncodingType::kAffine:
      return {std::unique_ptr<EncodedStream>(
          internal::AffineStream::FromBuffer(std::move(buf)))};
    case EncodingType::kRunLength:
      return {std::unique_ptr<EncodedStream>(
          internal::RleStream::FromBuffer(std::move(buf)))};
    case EncodingType::kSegmented:
      // A segmented column is recorded as a directory segment table, never
      // as one serialized stream blob (ValidateStreamBuffer rejects it too).
      return {Status::IOError("segmented container is not a stream blob")};
  }
  return {Status::InvalidArgument("unknown encoding in stream header")};
}

}  // namespace tde
