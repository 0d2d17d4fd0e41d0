#include <algorithm>
#include <memory>

#include "src/encoding/streams_internal.h"

namespace tde {
namespace internal {

std::unique_ptr<RleStream> RleStream::Make(uint8_t width, bool sign_extend,
                                           uint8_t count_width,
                                           uint8_t value_width) {
  auto s = std::unique_ptr<RleStream>(new RleStream());
  InitHeader(s->mutable_buffer(), EncodingType::kRunLength, width, /*bits=*/0,
             sign_extend, kPairsOffset);
  (*s->mutable_buffer())[kCountWidthOffset] = count_width;
  (*s->mutable_buffer())[kValueWidthOffset] = value_width;
  return s;
}

std::unique_ptr<RleStream> RleStream::FromBuffer(std::vector<uint8_t> buf) {
  auto s = std::unique_ptr<RleStream>(new RleStream());
  *s->mutable_buffer() = std::move(buf);
  s->total_ = s->header().logical_size();
  s->finalized_stream_ = true;
  const uint64_t pairs = s->StoredPairs();
  s->checkpoints_.reserve(pairs / kCheckpointStride + 1);
  for (uint64_t i = 0; i < pairs; ++i) s->RecordPair(i, s->RunCount(i));
  return s;
}

void RleStream::RecordPair(uint64_t pair_idx, uint64_t run_len) {
  if (pair_idx % kCheckpointStride == 0) checkpoints_.push_back(stored_rows_);
  stored_rows_ += run_len;
}

uint64_t RleStream::StoredPairs() const {
  return (buf_.size() - header().data_offset()) /
         (count_width() + value_width());
}

uint64_t RleStream::run_count() const {
  return StoredPairs() + (in_run_ ? 1 : 0);
}

Lane RleStream::RunValue(uint64_t pair_idx) const {
  const uint64_t pair_bytes = count_width() + value_width();
  const uint8_t* p =
      buf_.data() + header().data_offset() + pair_idx * pair_bytes;
  // Value follows the count within the pair; values honor signedness.
  return LoadLane(p + count_width(), value_width(), SignExtendOf(header()));
}

uint64_t RleStream::RunCount(uint64_t pair_idx) const {
  const uint64_t pair_bytes = count_width() + value_width();
  const uint8_t* p =
      buf_.data() + header().data_offset() + pair_idx * pair_bytes;
  return LoadUnsigned(p, count_width());
}

void RleStream::EmitRun() {
  const uint8_t cw = count_width();
  const uint8_t vw = value_width();
  RecordPair(StoredPairs(), cur_count_);
  const size_t old = buf_.size();
  buf_.resize(old + cw + vw);
  StoreBytes(buf_.data() + old, cur_count_, cw);
  StoreBytes(buf_.data() + old + cw, static_cast<uint64_t>(cur_value_), vw);
  in_run_ = false;
  cur_count_ = 0;
}

Status RleStream::Append(const Lane* values, size_t count) {
  if (finalized_stream_) {
    return Status::Internal("append to a finalized stream");
  }
  const uint8_t vw = value_width();
  const bool se = SignExtendOf(header());
  for (size_t i = 0; i < count; ++i) {
    if (!LaneFits(values[i], vw, se)) {
      return Status::OutOfRange("run value exceeds value field width");
    }
  }
  const uint64_t max_count =
      count_width() >= 8 ? ~uint64_t{0}
                         : (uint64_t{1} << (8 * count_width())) - 1;
  for (size_t i = 0; i < count; ++i) {
    if (in_run_ && values[i] == cur_value_ && cur_count_ < max_count) {
      ++cur_count_;
    } else {
      if (in_run_) EmitRun();
      in_run_ = true;
      cur_value_ = values[i];
      cur_count_ = 1;
    }
  }
  total_ += count;
  return Status::OK();
}

Status RleStream::AppendRun(Lane value, uint64_t count) {
  if (finalized_stream_) {
    return Status::Internal("append to a finalized stream");
  }
  if (count == 0) return Status::OK();
  if (!LaneFits(value, value_width(), SignExtendOf(header()))) {
    return Status::OutOfRange("run value exceeds value field width");
  }
  const uint64_t max_count =
      count_width() >= 8 ? ~uint64_t{0}
                         : (uint64_t{1} << (8 * count_width())) - 1;
  if (in_run_ && value != cur_value_) EmitRun();
  if (!in_run_) {
    in_run_ = true;
    cur_value_ = value;
    cur_count_ = 0;
  }
  // Split into as many maximal pairs as the count field requires.
  uint64_t remaining = count;
  while (cur_count_ + remaining > max_count) {
    const uint64_t take = max_count - cur_count_;
    cur_count_ = max_count;
    remaining -= take;
    EmitRun();
    in_run_ = true;
    cur_value_ = value;
    cur_count_ = 0;
  }
  cur_count_ += remaining;
  if (cur_count_ == 0) in_run_ = false;
  total_ += count;
  return Status::OK();
}

Status RleStream::Finalize() {
  if (finalized_stream_) return Status::OK();
  if (in_run_) EmitRun();
  mheader().set_logical_size(total_);
  finalized_stream_ = true;
  return Status::OK();
}

Status RleStream::Get(uint64_t row, size_t count, Lane* out) const {
  if (row + count > total_) {
    return Status::OutOfRange("read past end of stream");
  }
  const uint64_t stored_pairs = StoredPairs();
  // Start from the last checkpoint at or before `row`.
  uint64_t pair = 0;
  uint64_t pair_start = 0;
  const auto after =
      std::upper_bound(checkpoints_.begin(), checkpoints_.end(), row);
  if (after != checkpoints_.begin()) {
    const uint64_t k = static_cast<uint64_t>(after - checkpoints_.begin()) - 1;
    pair = k * kCheckpointStride;
    pair_start = checkpoints_[k];
  }
  size_t produced = 0;
  while (produced < count) {
    uint64_t run_len;
    Lane value;
    if (pair < stored_pairs) {
      run_len = RunCount(pair);
      value = RunValue(pair);
    } else {
      run_len = cur_count_;
      value = cur_value_;
    }
    const uint64_t run_end = pair_start + run_len;
    const uint64_t abs = row + produced;
    if (abs >= run_end) {
      pair_start = run_end;
      ++pair;
      continue;
    }
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(run_end - abs, count - produced));
    for (size_t i = 0; i < take; ++i) out[produced + i] = value;
    produced += take;
  }
  return Status::OK();
}

Status RleStream::GetRuns(std::vector<RleRun>* out) const {
  out->clear();
  const uint64_t stored_pairs = StoredPairs();
  out->reserve(stored_pairs + 1);
  for (uint64_t i = 0; i < stored_pairs; ++i) {
    out->push_back({RunValue(i), RunCount(i)});
  }
  if (in_run_) out->push_back({cur_value_, cur_count_});
  return Status::OK();
}

}  // namespace internal
}  // namespace tde
