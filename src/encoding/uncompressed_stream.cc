#include <cstring>
#include <memory>

#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<UncompressedStream> UncompressedStream::Make(
    uint8_t width, bool sign_extend) {
  auto s = std::unique_ptr<UncompressedStream>(new UncompressedStream());
  InitHeader(s->mutable_buffer(), EncodingType::kUncompressed, width,
             static_cast<uint8_t>(8 * width), sign_extend,
             HeaderView::kExtraOffset);
  return s;
}

std::unique_ptr<UncompressedStream> UncompressedStream::FromBuffer(
    std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<UncompressedStream>(new UncompressedStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

size_t UncompressedStream::BlockBytes() const {
  return static_cast<size_t>(kBlockSize) * width();
}

Status UncompressedStream::Stage(const Lane* values, size_t count) {
  const uint8_t w = width();
  if (w < 8) {
    const bool se = SignExtendOf(header());
    for (size_t i = 0; i < count; ++i) {
      if (!LaneFits(values[i], w, se)) {
        return Status::OutOfRange("value exceeds element width");
      }
    }
  }
  pending_.insert(pending_.end(), values, values + count);
  return Status::OK();
}

void UncompressedStream::PackBlock(const Lane* values) {
  const uint8_t w = width();
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  uint8_t* out = buf_.data() + old;
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    StoreBytes(out + static_cast<size_t>(i) * w,
               static_cast<uint64_t>(values[i]), w);
  }
}

namespace {

/// Widens kBlockSize contiguous `T` values; the integer conversion from T
/// sign- or zero-extends exactly like LoadLane.
template <typename T>
void WidenBlock(const uint8_t* in, Lane* out) {
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    T v;
    std::memcpy(&v, in + static_cast<size_t>(i) * sizeof(T), sizeof(T));
    out[i] = static_cast<Lane>(v);
  }
}

}  // namespace

void UncompressedStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  const bool se = SignExtendOf(header());
  const uint8_t* in = BlockData(block_idx);
  switch (width()) {
    case 1:
      return se ? WidenBlock<int8_t>(in, out) : WidenBlock<uint8_t>(in, out);
    case 2:
      return se ? WidenBlock<int16_t>(in, out) : WidenBlock<uint16_t>(in, out);
    case 4:
      return se ? WidenBlock<int32_t>(in, out) : WidenBlock<uint32_t>(in, out);
    default:  // 8: element widths are 1, 2, 4 or 8
      std::memcpy(out, in, static_cast<size_t>(kBlockSize) * sizeof(Lane));
  }
}

}  // namespace internal
}  // namespace tde
