#include <memory>

#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<AffineStream> AffineStream::Make(uint8_t width, int64_t base,
                                                 int64_t delta) {
  auto s = std::unique_ptr<AffineStream>(new AffineStream());
  InitHeader(s->mutable_buffer(), EncodingType::kAffine, width, /*bits=*/0,
             /*sign_extend=*/false, kDeltaOffset + 8);
  HeaderView h(s->mutable_buffer());
  h.SetI64(kBaseOffset, base);
  h.SetI64(kDeltaOffset, delta);
  return s;
}

std::unique_ptr<AffineStream> AffineStream::FromBuffer(
    std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<AffineStream>(new AffineStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

Status AffineStream::Stage(const Lane* values, size_t count) {
  // value must equal base + row * delta for its row.
  const uint64_t b = static_cast<uint64_t>(base());
  const uint64_t d = static_cast<uint64_t>(delta());
  uint64_t row = size();
  for (size_t i = 0; i < count; ++i, ++row) {
    const uint64_t expect = b + row * d;
    if (static_cast<uint64_t>(values[i]) != expect) {
      return Status::OutOfRange("value breaks affine progression");
    }
  }
  pending_.insert(pending_.end(), values, values + count);
  return Status::OK();
}

void AffineStream::PackBlock(const Lane*) {
  // Affine streams carry no packed data (bits == 0); values are recomputed
  // as base + row * delta.
}

void AffineStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  const uint64_t b = static_cast<uint64_t>(base());
  const uint64_t d = static_cast<uint64_t>(delta());
  uint64_t row = block_idx * kBlockSize;
  for (uint32_t i = 0; i < kBlockSize; ++i, ++row) {
    out[i] = static_cast<Lane>(b + row * d);
  }
}

}  // namespace internal
}  // namespace tde
