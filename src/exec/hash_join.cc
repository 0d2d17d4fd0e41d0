#include "src/exec/hash_join.h"

#include <algorithm>
#include <limits>

#include "src/encoding/header.h"
#include "src/exec/filter.h"

namespace tde {

namespace {
constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
}

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kFetch:
      return "fetch";
    case JoinStrategy::kHashDirect:
      return "hash-direct";
    case JoinStrategy::kHashPerfect:
      return "hash-perfect";
    case JoinStrategy::kHashCollision:
      return "hash-collision";
  }
  return "unknown";
}

HashJoin::HashJoin(std::unique_ptr<Operator> outer,
                   std::shared_ptr<const Table> inner, HashJoinOptions options,
                   ExprPtr inner_predicate)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      options_(std::move(options)),
      inner_predicate_(std::move(inner_predicate)) {}

Result<JoinStrategyChoice> ChooseJoinStrategy(const Table& inner,
                                              const std::string& inner_key) {
  TDE_ASSIGN_OR_RETURN(auto key_col, inner.ColumnByName(inner_key));
  const ColumnMetadata& meta = key_col->metadata();
  JoinStrategyChoice c;

  // Tactical rule 1 (Sect. 2.3.5, 3.4.2): if the row id of the inner table
  // is an affine transformation of the key value — detected either from
  // the affine encoding itself or from dense/unique/sorted metadata — use
  // a fetch join: no lookup table at all.
  // Tactical decisions never fault cold data in: PinIfResident holds the
  // payload (if any) for the duration of the affine peek; an unresident
  // cold column falls through to the metadata rules below.
  const auto pin = key_col->PinIfResident();
  const EncodedStream* key_stream =
      key_col->cold() ? (pin ? pin->stream.get() : nullptr) : key_col->data();
  if (key_stream != nullptr && key_stream->type() == EncodingType::kAffine) {
    const ConstHeaderView h(key_stream->buffer());
    c.fetch_base = h.GetI64(24);
    c.fetch_delta = h.GetI64(32);
    if (c.fetch_delta != 0) {
      c.strategy = JoinStrategy::kFetch;
      return c;
    }
    c.fetch_delta = 1;
  } else if (meta.dense && meta.unique && meta.sorted && meta.min_max_known) {
    c.fetch_base = meta.min_value;
    c.fetch_delta = 1;
    c.strategy = JoinStrategy::kFetch;
    return c;
  }
  // Tactical rule 2 (Sect. 2.3.4): hash algorithm from key width/range.
  // The width that matters is the width of the key *values* flowing
  // through the join, derived from the extracted min/max metadata.
  const uint8_t value_width =
      meta.min_max_known ? MinSignedWidth(meta.min_value, meta.max_value) : 8;
  switch (ChooseHashAlgorithm(value_width, meta.min_max_known, meta.min_value,
                              meta.max_value)) {
    case HashAlgorithm::kDirect:
      c.strategy = JoinStrategy::kHashDirect;
      break;
    case HashAlgorithm::kPerfect:
      c.strategy = JoinStrategy::kHashPerfect;
      break;
    case HashAlgorithm::kCollision:
      c.strategy = JoinStrategy::kHashCollision;
      break;
  }
  return c;
}

Result<HashJoin::InnerColumn> HashJoin::MaterializeInner(
    const std::string& name) const {
  TDE_ASSIGN_OR_RETURN(auto col, inner_->ColumnByName(name));
  // Hold cold columns resident while their lanes/heap/dict are read; the
  // emitted heap pointer shares the payload so it outlives eviction.
  TDE_ASSIGN_OR_RETURN(auto pin, col->Pin());
  InnerColumn ic;
  ic.type = col->type();
  ic.lanes.resize(inner_rows_);
  if (inner_rows_ > 0) {
    TDE_RETURN_NOT_OK(col->GetLanes(0, inner_rows_, ic.lanes.data()));
  }
  if (col->compression() == CompressionKind::kHeap) {
    ic.heap = pin ? std::shared_ptr<const StringHeap>(pin->heap)
                  : std::shared_ptr<const StringHeap>(col, col->heap());
  } else if (col->compression() == CompressionKind::kArrayDict) {
    // Decode dictionary tokens for payload delivery.
    const auto& values = (pin ? pin->dict.get() : col->array_dict())->values;
    for (Lane& v : ic.lanes) v = values[static_cast<size_t>(v)];
  }
  return ic;
}

Status HashJoin::EvalInnerPredicate() {
  inner_pass_.clear();
  inner_rows_passed_ = inner_rows_;
  if (inner_predicate_ == nullptr) return Status::OK();
  std::vector<std::string> names;
  inner_predicate_->CollectColumns(&names);
  // A predicate that reads no column still needs a block with a row count.
  if (names.empty()) names.push_back(options_.inner_key);
  // One block over every inner row: the bound predicate takes any row
  // count.
  Schema schema;
  Block b;
  for (const std::string& n : names) {
    if (schema.FieldIndex(n).ok()) continue;
    TDE_ASSIGN_OR_RETURN(InnerColumn ic, MaterializeInner(n));
    schema.AddField({n, ic.type});
    ColumnVector cv;
    cv.type = ic.type;
    cv.heap = std::move(ic.heap);
    cv.lanes = std::move(ic.lanes);
    b.columns.push_back(std::move(cv));
  }
  SelectionVector sel;
  TDE_RETURN_NOT_OK(BoundPredicate(inner_predicate_, schema).Select(b, &sel));
  inner_pass_.assign(inner_rows_, 0);
  for (const uint32_t r : sel) inner_pass_[r] = 1;
  inner_rows_passed_ = sel.size();
  return Status::OK();
}

Status HashJoin::ChooseStrategy() {
  TDE_ASSIGN_OR_RETURN(auto key_col, inner_->ColumnByName(options_.inner_key));
  const ColumnMetadata& meta = key_col->metadata();

  TDE_ASSIGN_OR_RETURN(JoinStrategyChoice choice,
                       ChooseJoinStrategy(*inner_, options_.inner_key));
  fetch_base_ = choice.fetch_base;
  fetch_delta_ = choice.fetch_delta;
  if (options_.force_strategy.has_value()) {
    strategy_ = *options_.force_strategy;
    if (strategy_ == JoinStrategy::kFetch &&
        choice.strategy != JoinStrategy::kFetch) {
      return Status::InvalidArgument(
          "fetch join forced but inner key is not an affine function of the "
          "row id");
    }
  } else {
    strategy_ = choice.strategy;
  }

  // Find the NULL-sentinel inner row, if the inner table carries one (a
  // DictionaryTable built with include_null_row, or a stored table with a
  // NULL key); it never enters the hash map — NULL outer keys are matched
  // to it directly. Rows failing the inner predicate take no part: they
  // neither match nor count as duplicates.
  null_row_.reset();
  const auto passes = [&](uint64_t r) {
    return inner_pass_.empty() || inner_pass_[r] != 0;
  };
  std::vector<Lane> keys(inner_rows_);
  if (inner_rows_ > 0) {
    TDE_RETURN_NOT_OK(key_col->GetLanes(0, inner_rows_, keys.data()));
  }
  for (uint64_t r = 0; r < inner_rows_; ++r) {
    if (keys[r] != kNullSentinel || !passes(r)) continue;
    if (null_row_.has_value()) {
      return Status::InvalidArgument(
          "inner join key is not unique (many-to-one join required)");
    }
    null_row_ = static_cast<uint32_t>(r);
  }

  if (strategy_ != JoinStrategy::kFetch) {
    HashAlgorithm algo = HashAlgorithm::kCollision;
    if (strategy_ == JoinStrategy::kHashDirect) algo = HashAlgorithm::kDirect;
    if (strategy_ == JoinStrategy::kHashPerfect) {
      algo = HashAlgorithm::kPerfect;
    }
    map_ = std::make_unique<GroupMap>(algo, meta.min_value, meta.max_value);
    group_to_row_.resize(inner_rows_);
    for (uint64_t r = 0; r < inner_rows_; ++r) {
      if (keys[r] == kNullSentinel || !passes(r)) continue;
      const uint32_t before = map_->group_count();
      const uint32_t g = map_->GetOrInsert(keys[r]);
      if (map_->group_count() == before) {
        return Status::InvalidArgument(
            "inner join key is not unique (many-to-one join required)");
      }
      group_to_row_[g] = static_cast<uint32_t>(r);
    }
  }
  return Status::OK();
}

Status HashJoin::Open() {
  TDE_RETURN_NOT_OK(outer_->Open());
  inner_rows_ = inner_->rows();
  TDE_RETURN_NOT_OK(EvalInnerPredicate());
  TDE_RETURN_NOT_OK(ChooseStrategy());

  // Materialize the requested inner payload columns (inner tables are
  // small — dictionaries, filtered dimension tables).
  payload_.clear();
  for (const std::string& name : options_.inner_payload) {
    TDE_ASSIGN_OR_RETURN(InnerColumn ic, MaterializeInner(name));
    payload_.push_back(std::move(ic));
  }

  schema_ = Schema();
  const Schema& outer_schema = outer_->output_schema();
  for (const Field& f : outer_schema.fields()) schema_.AddField(f);
  for (size_t i = 0; i < options_.inner_payload.size(); ++i) {
    schema_.AddField({options_.inner_payload[i], payload_[i].type});
  }
  TDE_ASSIGN_OR_RETURN(outer_key_idx_,
                       outer_schema.FieldIndex(options_.outer_key));
  return Status::OK();
}

Status HashJoin::Next(Block* block, bool* eos) {
  while (true) {
    Block in;
    TDE_RETURN_NOT_OK(outer_->Next(&in, eos));
    block->columns.clear();
    if (*eos) return Status::OK();
    const size_t n = in.rows();
    if (n == 0) continue;

    // Resolve each outer row's inner row id; misses drop the row.
    // sel[j] is the j-th kept outer row and inner_row[j] its inner row.
    std::vector<uint32_t> inner_row(n);
    SelectionVector sel(n);
    size_t kept = 0;
    const std::vector<Lane>& keys = in.columns[outer_key_idx_].lanes;
    const bool unit_fetch =
        strategy_ == JoinStrategy::kFetch && fetch_delta_ == 1;
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = kNoGroup;
      if (keys[i] == kNullSentinel) {
        // NULL keys match only the designated NULL inner row (if any);
        // the strategies below must not see the sentinel as a value.
        if (null_row_.has_value()) row = *null_row_;
      } else if (unit_fetch) {
        // The fastest join available (Sect. 2.3.5): row id = key - base.
        // Unsigned arithmetic: a null-sentinel key must wrap far out of
        // range, not overflow.
        const uint64_t r = static_cast<uint64_t>(keys[i]) -
                           static_cast<uint64_t>(fetch_base_);
        if (r < inner_rows_) row = static_cast<uint32_t>(r);
      } else if (strategy_ == JoinStrategy::kFetch) {
        const int64_t num = static_cast<int64_t>(
            static_cast<uint64_t>(keys[i]) -
            static_cast<uint64_t>(fetch_base_));
        if (num % fetch_delta_ == 0) {
          const int64_t r = num / fetch_delta_;
          if (r >= 0 && static_cast<uint64_t>(r) < inner_rows_) {
            row = static_cast<uint32_t>(r);
          }
        }
      } else {
        const uint32_t g = map_->Find(keys[i]);
        if (g != kNoGroup) row = group_to_row_[g];
      }
      // Fetch arithmetic reaches every row; the hash map and the NULL row
      // already hold passing rows only.
      if (row != kNoGroup && strategy_ == JoinStrategy::kFetch &&
          !inner_pass_.empty() && inner_pass_[row] == 0) {
        row = kNoGroup;
      }
      if (row != kNoGroup) {
        inner_row[kept] = row;
        sel[kept] = static_cast<uint32_t>(i);
        ++kept;
      }
    }
    if (kept == 0) continue;

    // Compact the outer columns first, then gather payload for the kept
    // rows only.
    sel.resize(kept);
    *block = std::move(in);
    block->Compact(sel);
    for (const InnerColumn& ic : payload_) {
      ColumnVector cv;
      cv.type = ic.type;
      cv.heap = ic.heap;
      cv.lanes.resize(kept);
      for (size_t j = 0; j < kept; ++j) cv.lanes[j] = ic.lanes[inner_row[j]];
      block->columns.push_back(std::move(cv));
    }
    return Status::OK();
  }
}

std::unique_ptr<HashJoin> MakeFetchJoin(std::unique_ptr<Operator> outer,
                                        std::shared_ptr<const Table> inner,
                                        HashJoinOptions options) {
  options.force_strategy = JoinStrategy::kFetch;
  return std::make_unique<HashJoin>(std::move(outer), std::move(inner),
                                    std::move(options));
}

}  // namespace tde
