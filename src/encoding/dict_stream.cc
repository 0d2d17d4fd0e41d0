#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/encoding/bitpack.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

namespace {
constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
}  // namespace

void DictStream::Cuckoo::Init(uint64_t capacity_pow2) {
  keys.assign(capacity_pow2, 0);
  vals.assign(capacity_pow2, 0);
  used.assign(capacity_pow2, 0);
  mask = capacity_pow2 - 1;
  count = 0;
}

uint32_t DictStream::Cuckoo::Find(Lane key) const {
  if (keys.empty()) return kAbsent;
  const uint64_t h1 = Bucket1(key);
  if (used[h1] && keys[h1] == key) return vals[h1];
  const uint64_t h2 = Bucket2(key);
  if (used[h2] && keys[h2] == key) return vals[h2];
  return kAbsent;
}

void DictStream::Cuckoo::Insert(Lane key, uint32_t val) {
  // Two-choice cuckoo hashing stays cheap below half load.
  if ((count + 1) * 2 > mask + 1) Grow();
  Lane k = key;
  uint32_t v = val;
  uint64_t pos = Bucket1(k);
  if (used[pos] && !used[Bucket2(k)]) pos = Bucket2(k);
  // Displacement walk with a relocation bound; grow and retry on a cycle.
  for (int kick = 0; kick < 128; ++kick) {
    if (!used[pos]) {
      keys[pos] = k;
      vals[pos] = v;
      used[pos] = 1;
      ++count;
      return;
    }
    std::swap(k, keys[pos]);
    std::swap(v, vals[pos]);
    // The displaced key moves to its other bucket, never back to this one.
    const uint64_t h1 = Bucket1(k);
    pos = pos == h1 ? Bucket2(k) : h1;
  }
  Grow();
  Insert(k, v);
}

void DictStream::Cuckoo::Grow() {
  std::vector<Lane> old_keys = std::move(keys);
  std::vector<uint32_t> old_vals = std::move(vals);
  std::vector<uint8_t> old_used = std::move(used);
  Init((mask + 1) * 2);
  for (size_t i = 0; i < old_used.size(); ++i) {
    if (old_used[i]) Insert(old_keys[i], old_vals[i]);
  }
}

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
  s->map_.Init(256);
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

Status DictStream::Finalize() {
  TDE_RETURN_NOT_OK(BlockedStream::Finalize());
  map_ = Cuckoo();  // no appends from here on
  return Status::OK();
}

std::vector<Lane> DictStream::Entries() const {
  const uint64_t n = entry_count();
  const uint8_t w = width();
  const bool se = SignExtendOf(header());
  const uint8_t* entries = buf_.data() + kEntriesOffset;
  std::vector<Lane> out(n);
  for (uint64_t i = 0; i < n; ++i) out[i] = LoadLane(entries + i * w, w, se);
  return out;
}

size_t DictStream::BlockBytes() const {
  return PackedBytes(kBlockSize, bits());
}

Status DictStream::CheckAppend(const Lane* values, size_t count) const {
  const uint64_t capacity = uint64_t{1} << bits();
  const uint8_t w = width();
  const bool se = SignExtendOf(header());
  uint64_t new_entries = 0;
  std::unordered_set<Lane> batch_new;
  for (size_t i = 0; i < count; ++i) {
    if (map_.Find(values[i]) != kAbsent) continue;
    if (!LaneFits(values[i], w, se)) {
      return Status::OutOfRange("dictionary entry exceeds element width");
    }
    if (batch_new.insert(values[i]).second) ++new_entries;
  }
  if (entry_count() + new_entries > capacity) {
    return Status::CapacityExceeded("dictionary full");
  }
  return Status::OK();
}

void DictStream::OnCommit(const Lane* values, size_t count) {
  HeaderView h = mheader();
  uint64_t n = entry_count();
  const uint8_t w = width();
  for (size_t i = 0; i < count; ++i) {
    if (map_.Find(values[i]) != kAbsent) continue;
    map_.Insert(values[i], static_cast<uint32_t>(n));
    StoreBytes(buf_.data() + kEntriesOffset + n * w,
               static_cast<uint64_t>(values[i]), w);
    ++n;
  }
  h.SetU64(kEntryCountOffset, n);
}

void DictStream::PackBlock(const Lane* values) {
  uint64_t packed[kBlockSize];
  for (uint32_t i = 0; i < kBlockSize; ++i) {
    packed[i] = Lookup(values[i]);
  }
  const size_t old = buf_.size();
  buf_.resize(old + BlockBytes());
  PackBits(packed, kBlockSize, bits(), buf_.data() + old);
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
  // Pending tail: OnCommit registered every committed value, so the map
  // resolves each one.
  while (produced < count) {
    const uint64_t abs = row + produced;
    const uint32_t c = map_.Find(pending_[abs - finalized_]);
    if (c == kAbsent) return false;
    out[produced++] = static_cast<Lane>(c);
  }
  return true;
}

}  // namespace internal
}  // namespace tde
