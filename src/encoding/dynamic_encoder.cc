#include "src/encoding/dynamic_encoder.h"

#include <algorithm>
#include <vector>

namespace tde {

DynamicEncoder::DynamicEncoder(DynamicEncoderOptions options)
    : options_(options) {
  if (!options_.enable_encodings) {
    options_.allowed = kAllowUncompressed;
  }
}

EncodingType DynamicEncoder::Choose() const {
  EncodingType best = stats_.ChooseEncoding(options_.width, options_.allowed);
  if (options_.prefer_dictionary && (options_.allowed & kAllowDict) != 0 &&
      best != EncodingType::kAffine && best != EncodingType::kDictionary) {
    const uint64_t dict_size =
        stats_.EstimateSize(EncodingType::kDictionary, options_.width);
    if (dict_size <
        stats_.EstimateSize(EncodingType::kUncompressed, options_.width)) {
      best = EncodingType::kDictionary;
    }
  }
  return best;
}

EncodingType DynamicEncoder::current_encoding() const {
  return stream_ ? stream_->type() : EncodingType::kUncompressed;
}

Status DynamicEncoder::Append(const Lane* values, size_t count) {
  if (count == 0) return Status::OK();
  // Update the column statistics with the block before inserting it
  // (Sect. 3.2), so a failed insert can consult stats that already cover
  // the offending values.
  if (options_.enable_encodings) {
    stats_.Update(values, count);
  }
  if (stream_ == nullptr) {
    const EncodingType first =
        options_.enable_encodings ? Choose() : EncodingType::kUncompressed;
    TDE_ASSIGN_OR_RETURN(
        stream_, EncodedStream::Create(first, options_.width,
                                       options_.sign_extend, stats_,
                                       options_.headroom_bits));
  }
  Status st = stream_->Append(values, count);
  if (st.ok()) {
    bytes_written_ += count * options_.width;  // steady-state write cost
    return st;
  }
  if (st.code() != StatusCode::kOutOfRange &&
      st.code() != StatusCode::kCapacityExceeded) {
    return st;
  }
  // Representation failure: choose a new encoding from the statistics and
  // rewrite the stream.
  return Reencode(Choose(), values, count);
}

Status DynamicEncoder::Reencode(EncodingType next, const Lane* more,
                                size_t more_count) {
  const uint64_t old_count = stream_->size();
  std::vector<Lane> all(old_count + more_count);
  if (old_count > 0) {
    TDE_RETURN_NOT_OK(stream_->Get(0, old_count, all.data()));
  }
  std::copy(more, more + more_count, all.begin() + old_count);

  TDE_ASSIGN_OR_RETURN(
      auto fresh, EncodedStream::Create(next, options_.width,
                                        options_.sign_extend, stats_,
                                        options_.headroom_bits));
  Status st = fresh->Append(all.data(), all.size());
  if (!st.ok()) {
    // The stats-chosen encoding must admit the data it described; if even
    // that fails (e.g. headroom rounding), fall back to uncompressed.
    TDE_ASSIGN_OR_RETURN(
        fresh, EncodedStream::Create(EncodingType::kUncompressed,
                                     options_.width, options_.sign_extend,
                                     stats_, 0));
    TDE_RETURN_NOT_OK(fresh->Append(all.data(), all.size()));
  }
  stream_ = std::move(fresh);
  ++changes_;
  bytes_written_ += stream_->PhysicalSize();  // the rewrite I/O
  return Status::OK();
}

Result<EncodedColumn> DynamicEncoder::Finalize() {
  if (stream_ == nullptr) {
    TDE_ASSIGN_OR_RETURN(
        stream_, EncodedStream::Create(EncodingType::kUncompressed,
                                       options_.width, options_.sign_extend,
                                       stats_, 0));
  }
  if (options_.enable_encodings && options_.convert_to_optimal &&
      stream_->size() > 0) {
    // With the whole column seen, stats describe it exactly: re-encode with
    // zero headroom if a different/denser format wins (Sect. 3.2).
    const EncodingType optimal = Choose();
    const uint64_t optimal_size =
        stats_.EstimateSize(optimal, options_.width);
    if (optimal != stream_->type() ||
        optimal_size < stream_->ProjectedPhysicalSize()) {
      const uint8_t saved = options_.headroom_bits;
      options_.headroom_bits = 0;
      TDE_RETURN_NOT_OK(Reencode(optimal, nullptr, 0));
      options_.headroom_bits = saved;
      --changes_;  // the final conversion is not a mid-stream change
    }
  }
  TDE_RETURN_NOT_OK(stream_->Finalize());
  EncodedColumn out;
  out.stream = std::move(stream_);
  out.stats = std::move(stats_);  // Finalize is terminal
  out.encoding_changes = changes_;
  out.bytes_written = bytes_written_;
  return out;
}

}  // namespace tde
