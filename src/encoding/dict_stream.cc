#include <algorithm>
#include <cstring>
#include <memory>

#include "src/common/hash.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<DictStream> DictStream::Make(uint8_t width, bool sign_extend,
                                             uint8_t bits) {
  auto s = std::unique_ptr<DictStream>(new DictStream());
  // Reserve entry space for 2^bits entries up front so the dictionary can
  // grow in place (Sect. 3.1.3) without moving the packed data.
  const uint64_t data_offset =
      kEntriesOffset + static_cast<uint64_t>(width) * (uint64_t{1} << bits);
  InitHeader(s->mutable_buffer(), EncodingType::kDictionary, width, bits,
             sign_extend, data_offset);
  HeaderView(s->mutable_buffer()).SetU64(kEntryCountOffset, 0);
  // Twice the capacity: the map is at most half full, so it never grows.
  s->map_.Init(uint64_t{2} << bits);
  return s;
}

std::unique_ptr<DictStream> DictStream::FromBuffer(std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<DictStream>(new DictStream());
  *s->mutable_buffer() = std::move(buf);
  s->finalized_ = s->header().logical_size();
  // A finalized stream never looks a value up, so it carries no map.
  s->finalized_stream_ = true;
  return s;
}

Status DictStream::Get(uint64_t row, size_t count, Lane* out) const {
  TDE_RETURN_NOT_OK(BlockedStream::Get(row, count, out));
  // Rows past the packed blocks come back as their staged codes.
  for (uint64_t r = std::max(row, finalized_); r < row + count; ++r) {
    out[r - row] = Entry(static_cast<uint64_t>(out[r - row]));
  }
  return Status::OK();
}

Status DictStream::Finalize() {
  TDE_RETURN_NOT_OK(BlockedStream::Finalize());
  map_ = CodeMap();  // no appends from here on
  return Status::OK();
}

Lane DictStream::Entry(uint64_t code) const {
  const uint8_t w = width();
  return LoadLane(buf_.data() + kEntriesOffset + code * w, w,
                  SignExtendOf(header()));
}

std::vector<Lane> DictStream::Entries() const {
  std::vector<Lane> out(entry_count());
  for (uint64_t i = 0; i < out.size(); ++i) out[i] = Entry(i);
  return out;
}

size_t DictStream::BlockBytes() const {
  return PackedBytes(kBlockSize, bits());
}

Status DictStream::Stage(const Lane* values, size_t count) {
  const uint64_t capacity = uint64_t{1} << bits();
  const uint8_t w = width();
  const bool se = SignExtendOf(header());
  uint8_t* entries = buf_.data() + kEntriesOffset;
  const uint64_t before = entry_count();
  uint64_t n = before;
  const size_t at = pending_.size();
  pending_.resize(at + count);
  Lane* codes = pending_.data() + at;
  Status st;
  for (size_t i = 0; i < count; ++i) {
    CodeMap::Slot& slot = map_.Probe(values[i]);
    if (slot.code == 0) {
      if (!LaneFits(values[i], w, se)) {
        st = Status::OutOfRange("dictionary entry exceeds element width");
        break;
      }
      if (n == capacity) {
        st = Status::CapacityExceeded("dictionary full");
        for (size_t j = i + 1; j < count; ++j) {
          // Values already coded fit, so any that does not is new.
          if (!LaneFits(values[j], w, se)) {
            st = Status::OutOfRange("dictionary entry exceeds element width");
            break;
          }
        }
        break;
      }
      slot = {values[i], static_cast<uint32_t>(n + 1)};
      StoreBytes(entries + n * w, static_cast<uint64_t>(values[i]), w);
      ++n;
    }
    codes[i] = static_cast<Lane>(slot.code - 1);
  }
  if (!st.ok()) {
    // Remove this call's entries newest first: each then sits where its
    // probe ended, and clearing it restores the map as it was.
    while (n > before) {
      --n;
      map_.Probe(LoadLane(entries + n * w, w, se)).code = 0;
      std::memset(entries + n * w, 0, w);
    }
    pending_.resize(at);
    return st;
  }
  mheader().SetU64(kEntryCountOffset, n);
  return Status::OK();
}

void DictStream::PackBlock(const Lane* codes) {
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  // Codes are non-negative; Lane is the signed counterpart of uint64_t, so
  // the cast aliases legally.
  PackBits(reinterpret_cast<const uint64_t*>(codes), kBlockSize, bits(),
           buf_.data() + old);
}

namespace {

/// Replaces each code in `lanes` by its `T`-sized entry; the integer
/// conversion from T sign- or zero-extends exactly like LoadLane.
template <typename T>
void GatherEntries(const uint8_t* entries, Lane* lanes) {
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    T e;
    std::memcpy(&e, entries + static_cast<size_t>(lanes[i]) * sizeof(T),
                sizeof(T));
    lanes[i] = static_cast<Lane>(e);
  }
}

}  // namespace

void DictStream::DecodeBlock(uint64_t block_idx, Lane* out) const {
  // Unpack the codes into `out` (Lane is the signed counterpart of
  // uint64_t, so the cast aliases legally), then gather entries in place.
  // Every code is below 2^bits, and the header reserves room for 2^bits
  // entries, so the gather stays inside the entry area.
  UnpackBits(BlockData(block_idx), kBlockSize, bits(),
             reinterpret_cast<uint64_t*>(out));
  const uint8_t* entries = buf_.data() + kEntriesOffset;
  const bool se = SignExtendOf(header());
  switch (width()) {
    case 1:
      return se ? GatherEntries<int8_t>(entries, out)
                : GatherEntries<uint8_t>(entries, out);
    case 2:
      return se ? GatherEntries<int16_t>(entries, out)
                : GatherEntries<uint16_t>(entries, out);
    case 4:
      return se ? GatherEntries<int32_t>(entries, out)
                : GatherEntries<uint32_t>(entries, out);
    default:  // 8: element widths are 1, 2, 4 or 8
      return GatherEntries<int64_t>(entries, out);
  }
}

bool DictStream::GetCodes(uint64_t row, size_t count, Lane* out) const {
  if (row + count > size()) return false;
  size_t produced = 0;
  uint64_t packed[kBlockSize];
  // Finalized (packed) region: unpack the indexes, skip the entry decode.
  while (produced < count && row + produced < finalized_) {
    const uint64_t abs = row + produced;
    const uint64_t block = abs / kBlockSize;
    const uint64_t in_block = abs % kBlockSize;
    if (in_block == 0 && count - produced >= kBlockSize &&
        finalized_ - abs >= kBlockSize) {
      // Aligned full block: unpack straight into the caller's lanes.
      // Lane is the signed counterpart of uint64_t, so the cast aliases
      // legally.
      UnpackBits(BlockData(block), kBlockSize, bits(),
                 reinterpret_cast<uint64_t*>(out + produced));
      produced += kBlockSize;
      continue;
    }
    UnpackBits(BlockData(block), kBlockSize, bits(), packed);
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(kBlockSize - in_block,
                           std::min<uint64_t>(count - produced,
                                              finalized_ - abs)));
    for (size_t i = 0; i < take; ++i) {
      out[produced + i] = static_cast<Lane>(packed[in_block + i]);
    }
    produced += take;
  }
  // Staged tail: the codes themselves.
  if (produced < count) {
    const Lane* staged = pending_.data() + (row + produced - finalized_);
    std::copy(staged, staged + (count - produced), out + produced);
  }
  return true;
}

}  // namespace internal
}  // namespace tde
