#include <memory>

#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<DeltaStream> DeltaStream::Make(uint8_t width,
                                               int64_t min_delta,
                                               uint8_t bits) {
  auto s = std::unique_ptr<DeltaStream>(new DeltaStream());
  InitHeader(s->mutable_buffer(), EncodingType::kDelta, width, bits,
             /*sign_extend=*/false, kMinDeltaOffset + 8);
  HeaderView(s->mutable_buffer()).SetI64(kMinDeltaOffset, min_delta);
  return s;
}

std::unique_ptr<DeltaStream> DeltaStream::FromBuffer(
    std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<DeltaStream>(new DeltaStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  s->finalized_stream_ = true;
  return s;
}

size_t DeltaStream::BlockBytes() const {
  // 8-byte running total (the block's first value) + packed deltas.
  return 8 + PackedBytes(kBlockSize, bits());
}

Status DeltaStream::Stage(const Lane* values, size_t count) {
  const __int128 md = min_delta();
  const uint8_t b = bits();
  bool have_prev = have_last_;
  Lane prev = last_;
  for (size_t i = 0; i < count; ++i) {
    if (have_prev) {
      const __int128 delta =
          static_cast<__int128>(values[i]) - static_cast<__int128>(prev);
      const __int128 packed = delta - md;
      if (packed < 0 ||
          (b < 64 && packed >= (static_cast<__int128>(1) << b))) {
        return Status::OutOfRange("delta exceeds encoded range");
      }
    }
    prev = values[i];
    have_prev = true;
  }
  pending_.insert(pending_.end(), values, values + count);
  last_ = prev;
  have_last_ = have_prev;
  return Status::OK();
}

void DeltaStream::PackBlock(const Lane* values) {
  const int64_t md = min_delta();
  uint64_t packed[kBlockSize];
  packed[0] = 0;  // values[0] is stored raw as the running total
  for (uint32_t i = 1; i < kBlockSize; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(values[i - 1]);
    packed[i] = delta - static_cast<uint64_t>(md);
  }
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  StoreBytes(buf_.data() + old, static_cast<uint64_t>(values[0]), 8);
  PackBits(packed, kBlockSize, bits(), buf_.data() + old + 8);
}

void DeltaStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  const uint64_t md = static_cast<uint64_t>(min_delta());
  const uint8_t* data = BlockData(block_idx);
  // Unpack the deltas into `out` (Lane aliases uint64_t legally), then
  // turn them into a running total in place.
  uint64_t* packed = reinterpret_cast<uint64_t*>(out);
  UnpackBits(data + 8, kBlockSize, bits(), packed);
  uint64_t v = LoadUnsigned(data, 8);
  out[0] = static_cast<Lane>(v);
  for (uint32_t i = 1; i < kBlockSize; ++i) {
    v += md + packed[i];
    out[i] = static_cast<Lane>(v);
  }
}

}  // namespace internal
}  // namespace tde
