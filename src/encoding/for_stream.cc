#include <memory>

#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<ForStream> ForStream::Make(uint8_t width, int64_t frame,
                                           uint8_t bits) {
  auto s = std::unique_ptr<ForStream>(new ForStream());
  InitHeader(s->mutable_buffer(), EncodingType::kFrameOfReference, width, bits,
             /*sign_extend=*/false, kFrameOffset + 8);
  HeaderView(s->mutable_buffer()).SetI64(kFrameOffset, frame);
  return s;
}

std::unique_ptr<ForStream> ForStream::FromBuffer(std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<ForStream>(new ForStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

size_t ForStream::BlockBytes() const {
  return PackedBytes(kBlockSize, bits());
}

Status ForStream::Stage(const Lane* values, size_t count) {
  const int64_t f = frame();
  const uint8_t b = bits();
  for (size_t i = 0; i < count; ++i) {
    // Packed value = v - frame, which must be in [0, 2^bits).
    if (values[i] < f) return Status::OutOfRange("value below frame");
    const uint64_t packed =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(f);
    if (b < 64 && packed >= (uint64_t{1} << b)) {
      return Status::OutOfRange("value exceeds frame range");
    }
  }
  pending_.insert(pending_.end(), values, values + count);
  return Status::OK();
}

void ForStream::PackBlock(const Lane* values) {
  const int64_t f = frame();
  uint64_t packed[kBlockSize];
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    packed[i] = static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(f);
  }
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  PackBits(packed, kBlockSize, bits(), buf_.data() + old);
}

void ForStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  const uint64_t f = static_cast<uint64_t>(frame());
  // Unpack into `out` (Lane aliases uint64_t legally), then add the frame.
  uint64_t* packed = reinterpret_cast<uint64_t*>(out);
  UnpackBits(BlockData(block_idx), kBlockSize, bits(), packed);
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    out[i] = static_cast<Lane>(f + packed[i]);
  }
}

}  // namespace internal
}  // namespace tde
