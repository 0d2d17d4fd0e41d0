#include "src/storage/segment/segmented_stream.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/storage/segment/segment_builder.h"

namespace tde {

SegmentedStream::SegmentedStream(DynamicEncoderOptions options,
                                 uint64_t target_rows)
    : options_(options),
      target_rows_(target_rows == 0 ? DefaultSegmentRows() : target_rows) {
  // Synthetic Fig.-1 header: the non-virtual type()/width()/bits()
  // accessors read it, so consumers keyed on the encoding (the strategic
  // rewrites, introspection) see the representative segment encoding. No
  // packed data ever follows it.
  buf_.assign(HeaderView::kExtraOffset, 0);
  HeaderView h(&buf_);
  h.set_data_offset(HeaderView::kExtraOffset);
  h.set_block_size(kBlockSize);
  h.set_algorithm(EncodingType::kSegmented);
  h.set_width(options_.width);
  h.set_bits(0);
}

void SegmentedStream::set_charge_hook(ChargeHook hook) {
  charge_ = std::move(hook);
}

Status SegmentedStream::AddSealed(std::shared_ptr<EncodedStream> stream,
                                  SegmentZone zone) {
  if (stream == nullptr || stream->size() == 0) {
    return Status::InvalidArgument("sealed segment must have rows");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!tail_.empty()) {
    return Status::InvalidArgument(
        "cannot add sealed segments behind an open tail");
  }
  Slot s;
  s.shape.start_row = sealed_rows_;
  s.shape.rows = stream->size();
  s.shape.encoding = stream->type();
  s.shape.width = stream->width();
  s.shape.bits = stream->bits();
  s.shape.token_width = stream->TokenWidthBytes();
  s.shape.physical_bytes = stream->PhysicalSize();
  s.shape.resident = true;
  s.shape.zone = std::move(zone);
  s.stream = std::move(stream);
  sealed_rows_ += s.shape.rows;
  slots_.push_back(std::move(s));
  codes_.reset();
  RefreshHeaderLocked();
  return Status::OK();
}

Status SegmentedStream::AddCold(const SegmentShape& shape, Loader loader) {
  if (shape.rows == 0) {
    return Status::InvalidArgument("cold segment must have rows");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!tail_.empty()) {
    return Status::InvalidArgument(
        "cannot add cold segments behind an open tail");
  }
  Slot s;
  s.shape = shape;
  s.shape.start_row = sealed_rows_;
  s.shape.resident = false;
  s.shape.open_tail = false;
  s.cold = true;
  s.loader = std::move(loader);
  sealed_rows_ += s.shape.rows;
  slots_.push_back(std::move(s));
  codes_.reset();
  RefreshHeaderLocked();
  return Status::OK();
}

Status SegmentedStream::Append(const Lane* values, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  tail_.insert(tail_.end(), values, values + count);
  size_t at = 0;
  while (tail_.size() - at >= target_rows_) {
    TDE_RETURN_NOT_OK(SealLocked(tail_.data() + at, target_rows_));
    at += target_rows_;
  }
  if (at > 0) {
    tail_.erase(tail_.begin(),
                tail_.begin() + static_cast<ptrdiff_t>(at));
  }
  codes_.reset();
  RefreshHeaderLocked();
  return Status::OK();
}

Status SegmentedStream::Finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tail_.empty()) {
    TDE_RETURN_NOT_OK(SealLocked(tail_.data(), tail_.size()));
    tail_.clear();
  }
  RefreshHeaderLocked();
  return Status::OK();
}

Status SegmentedStream::SealLocked(const Lane* values, uint64_t count) {
  TDE_ASSIGN_OR_RETURN(SealedSegment sealed,
                       EncodeSegment(values, count, options_));
  Slot s;
  s.shape.start_row = sealed_rows_;
  s.shape.rows = count;
  s.shape.encoding = sealed.stream->type();
  s.shape.width = sealed.stream->width();
  s.shape.bits = sealed.stream->bits();
  s.shape.token_width = sealed.stream->TokenWidthBytes();
  s.shape.physical_bytes = sealed.stream->PhysicalSize();
  s.shape.resident = true;
  s.shape.zone = sealed.zone;
  s.stream = std::move(sealed.stream);
  sealed_rows_ += count;
  changes_ += sealed.encoding_changes;
  bytes_written_ += sealed.bytes_written;
  slots_.push_back(std::move(s));
  codes_.reset();
  return Status::OK();
}

void SegmentedStream::RefreshHeaderLocked() {
  HeaderView h(&buf_);
  h.set_logical_size(sealed_rows_ + tail_.size());
  EncodingType rep = EncodingType::kSegmented;
  if (!slots_.empty() && tail_.empty()) {
    rep = slots_.front().shape.encoding;
    for (const Slot& s : slots_) {
      if (s.shape.encoding != rep) {
        rep = EncodingType::kSegmented;
        break;
      }
    }
  }
  h.set_algorithm(rep);
  uint8_t width = options_.width;
  uint8_t bits = 0;
  for (const Slot& s : slots_) {
    width = std::max(width, s.shape.width);
    bits = std::max(bits, s.shape.bits);
  }
  h.set_width(width);
  h.set_bits(bits);
}

size_t SegmentedStream::SlotForRowLocked(uint64_t row) const {
  if (row >= sealed_rows_) return slots_.size();
  size_t lo = 0, hi = slots_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (slots_[mid].shape.start_row <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<std::shared_ptr<EncodedStream>> SegmentedStream::StreamAtLocked(
    std::unique_lock<std::mutex>* lock, size_t idx) const {
  for (;;) {
    Slot& s = const_cast<Slot&>(slots_[idx]);
    if (s.stream != nullptr) return {std::shared_ptr<EncodedStream>(s.stream)};
    if (!s.loading) {
      s.loading = true;
      break;
    }
    cv_.wait(*lock);
  }
  Loader loader = slots_[idx].loader;
  lock->unlock();
  Result<std::shared_ptr<EncodedStream>> loaded =
      loader ? loader()
             : Result<std::shared_ptr<EncodedStream>>(
                   Status::Internal("cold segment has no loader"));
  lock->lock();
  Slot& s = const_cast<Slot&>(slots_[idx]);
  s.loading = false;
  cv_.notify_all();
  if (!loaded.ok()) return {loaded.status()};
  std::shared_ptr<EncodedStream> result;
  if (s.stream == nullptr) {
    s.stream = loaded.value();
    s.shape.resident = true;
    result = s.stream;
    if (charge_) {
      // Lock order is cache -> stream, so the accounting hook (which takes
      // the cache lock) must not run under mu_. `result` pins the payload
      // across the gap.
      const uint64_t bytes = s.shape.physical_bytes;
      ChargeHook hook = charge_;
      lock->unlock();
      hook(bytes);
      lock->lock();
    }
  } else {
    result = s.stream;
  }
  return {std::move(result)};
}

Status SegmentedStream::Get(uint64_t row, size_t count, Lane* out) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (row + count > sealed_rows_ + tail_.size()) {
    return Status::InvalidArgument("segmented read past end of stream");
  }
  while (count > 0) {
    if (row >= sealed_rows_) {
      const uint64_t off = row - sealed_rows_;
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(count, tail_.size() - off));
      std::copy_n(tail_.begin() + static_cast<ptrdiff_t>(off), n, out);
      return Status::OK();
    }
    const size_t si = SlotForRowLocked(row);
    const uint64_t seg_start = slots_[si].shape.start_row;
    const uint64_t seg_rows = slots_[si].shape.rows;
    TDE_ASSIGN_OR_RETURN(std::shared_ptr<EncodedStream> stream,
                         StreamAtLocked(&lock, si));
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(count, seg_start + seg_rows - row));
    lock.unlock();
    TDE_RETURN_NOT_OK(stream->Get(row - seg_start, n, out));
    row += n;
    out += n;
    count -= n;
    lock.lock();
  }
  return Status::OK();
}

Status SegmentedStream::GetRuns(std::vector<RleRun>* out) const {
  out->clear();
  std::unique_lock<std::mutex> lock(mu_);
  const size_t num_slots = slots_.size();
  for (size_t si = 0; si < num_slots; ++si) {
    TDE_ASSIGN_OR_RETURN(std::shared_ptr<EncodedStream> stream,
                         StreamAtLocked(&lock, si));
    lock.unlock();
    std::vector<RleRun> seg;
    TDE_RETURN_NOT_OK(stream->GetRuns(&seg));
    for (const RleRun& r : seg) {
      if (!out->empty() && out->back().value == r.value) {
        out->back().count += r.count;  // merge across the boundary
      } else {
        out->push_back(r);
      }
    }
    lock.lock();
  }
  for (const Lane v : tail_) {
    if (!out->empty() && out->back().value == v) {
      ++out->back().count;
    } else {
      out->push_back({v, 1});
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const SegmentedStream::CodeTable>>
SegmentedStream::CodeTableLocked(std::unique_lock<std::mutex>* lock) const {
  // One build at a time: the build drops the lock while segments fault
  // in, and a second concurrent build would replace (and free) the table
  // the first caller's readers are using.
  cv_.wait(*lock, [&] { return codes_ != nullptr || !codes_building_; });
  if (codes_ == nullptr) {
    codes_building_ = true;
    Result<std::shared_ptr<const CodeTable>> built =
        BuildCodeTableLocked(lock);
    codes_building_ = false;
    cv_.notify_all();
    TDE_RETURN_NOT_OK(built.status());
    codes_ = built.MoveValue();
  }
  if (!codes_->valid) {
    return {Status::InvalidArgument("not dictionary coded")};
  }
  return codes_;
}

Result<std::shared_ptr<const SegmentedStream::CodeTable>>
SegmentedStream::BuildCodeTableLocked(
    std::unique_lock<std::mutex>* lock) const {
  auto table = std::make_shared<CodeTable>();
  bool eligible = !slots_.empty() && tail_.empty();
  for (const Slot& s : slots_) {
    if (s.shape.encoding != EncodingType::kDictionary) {
      eligible = false;
      break;
    }
  }
  if (!eligible) return {std::shared_ptr<const CodeTable>(std::move(table))};
  // Build the global union code table: one entry per distinct decoded
  // lane, plus a local-code -> global-code remap per segment. Faults every
  // segment in — the dictionary-grouping rewrite reads the whole column
  // anyway.
  std::unordered_map<Lane, Lane> global;
  const size_t num_slots = slots_.size();
  table->remap.resize(num_slots);
  for (size_t si = 0; si < num_slots; ++si) {
    TDE_ASSIGN_OR_RETURN(std::shared_ptr<EncodedStream> stream,
                         StreamAtLocked(lock, si));
    lock->unlock();
    const std::vector<Lane> entries = stream->CodeEntries();
    lock->lock();
    std::vector<Lane>& remap = table->remap[si];
    remap.reserve(entries.size());
    for (const Lane e : entries) {
      auto [it, inserted] =
          global.emplace(e, static_cast<Lane>(table->entries.size()));
      if (inserted) table->entries.push_back(e);
      remap.push_back(it->second);
    }
  }
  table->valid = true;
  return {std::shared_ptr<const CodeTable>(std::move(table))};
}

bool SegmentedStream::GetCodes(uint64_t row, size_t count, Lane* out) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (row + count > sealed_rows_) return false;
  Result<std::shared_ptr<const CodeTable>> codes = CodeTableLocked(&lock);
  if (!codes.ok()) return false;
  // Held across the unlocks below: the table outlives any reset.
  const std::shared_ptr<const CodeTable> table = codes.MoveValue();
  while (count > 0) {
    const size_t si = SlotForRowLocked(row);
    const uint64_t seg_start = slots_[si].shape.start_row;
    const uint64_t seg_rows = slots_[si].shape.rows;
    Result<std::shared_ptr<EncodedStream>> stream = StreamAtLocked(&lock, si);
    if (!stream.ok()) return false;
    const std::vector<Lane>& remap = table->remap[si];
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(count, seg_start + seg_rows - row));
    lock.unlock();
    if (!stream.value()->GetCodes(row - seg_start, n, out)) return false;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t local = static_cast<uint64_t>(out[i]);
      if (local >= remap.size()) return false;
      out[i] = remap[local];
    }
    row += n;
    out += n;
    count -= n;
    lock.lock();
  }
  return true;
}

std::vector<Lane> SegmentedStream::CodeEntries() const {
  std::unique_lock<std::mutex> lock(mu_);
  Result<std::shared_ptr<const CodeTable>> codes = CodeTableLocked(&lock);
  if (!codes.ok()) return {};
  return codes.value()->entries;
}

uint64_t SegmentedStream::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_rows_ + tail_.size();
}

uint64_t SegmentedStream::PhysicalSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = buf_.size();
  for (const Slot& s : slots_) n += s.shape.physical_bytes;
  return n;
}

uint64_t SegmentedStream::ProjectedPhysicalSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = buf_.size();
  for (const Slot& s : slots_) n += s.shape.physical_bytes;
  // The open tail is unencoded; project it at full lane width.
  if (!tail_.empty()) {
    n += HeaderView::kExtraOffset + tail_.size() * options_.width;
  }
  return n;
}

uint8_t SegmentedStream::TokenWidthBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint8_t w = tail_.empty() ? 0 : uint8_t{8};
  for (const Slot& s : slots_) w = std::max(w, s.shape.token_width);
  return w == 0 ? options_.width : w;
}

size_t SegmentedStream::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size() + (tail_.empty() ? 0 : 1);
}

bool SegmentedStream::has_open_tail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !tail_.empty();
}

std::vector<SegmentShape> SegmentedStream::Shapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SegmentShape> out;
  out.reserve(slots_.size() + 1);
  for (const Slot& s : slots_) out.push_back(s.shape);
  if (!tail_.empty()) {
    SegmentShape t;
    t.start_row = sealed_rows_;
    t.rows = tail_.size();
    t.encoding = EncodingType::kUncompressed;
    t.width = options_.width;
    t.bits = 0;
    t.token_width = 8;
    t.physical_bytes = 0;
    t.resident = true;
    t.open_tail = true;
    EncodingStats stats;
    stats.Update(tail_.data(), tail_.size());
    t.zone.meta = ExtractMetadata(stats);
    t.zone.null_count = static_cast<int64_t>(stats.null_count());
    out.push_back(t);
  }
  return out;
}

Result<std::shared_ptr<EncodedStream>> SegmentedStream::SegmentStreamForRead(
    size_t idx) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (idx >= slots_.size()) {
    return {Status::InvalidArgument("segment index out of range")};
  }
  return StreamAtLocked(&lock, idx);
}

uint64_t SegmentedStream::ReleaseColdSegments() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t freed = 0;
  for (Slot& s : slots_) {
    if (s.cold && s.stream != nullptr && !s.loading &&
        s.stream.use_count() == 1) {
      s.stream.reset();
      s.shape.resident = false;
      freed += s.shape.physical_bytes;
    }
  }
  return freed;
}

Result<std::shared_ptr<EncodedStream>> SegmentedStream::EncodeTailCopy(
    SegmentZone* zone) const {
  std::vector<Lane> tail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tail_.empty()) {
      return {Status::InvalidArgument("no open tail to encode")};
    }
    tail = tail_;
  }
  TDE_ASSIGN_OR_RETURN(SealedSegment sealed,
                       EncodeSegment(tail.data(), tail.size(), options_));
  if (zone != nullptr) *zone = sealed.zone;
  return {std::move(sealed.stream)};
}

void SegmentedStream::RefreshSegmentFacts() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& s : slots_) {
    if (s.stream == nullptr) continue;
    s.shape.encoding = s.stream->type();
    s.shape.width = s.stream->width();
    s.shape.bits = s.stream->bits();
    s.shape.token_width = s.stream->TokenWidthBytes();
    s.shape.physical_bytes = s.stream->PhysicalSize();
  }
  codes_.reset();
  RefreshHeaderLocked();
}

std::vector<uint8_t>* SegmentedStream::MutableSegmentBuffer(size_t idx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (idx >= slots_.size()) return nullptr;
  Slot& s = slots_[idx];
  if (s.cold || s.stream == nullptr) return nullptr;
  codes_.reset();
  return s.stream->mutable_buffer();
}

int SegmentedStream::encoding_changes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return changes_;
}

uint64_t SegmentedStream::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace tde
