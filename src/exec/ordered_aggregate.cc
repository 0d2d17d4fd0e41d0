#include "src/exec/ordered_aggregate.h"

#include <algorithm>

namespace tde {

OrderedAggregate::OrderedAggregate(std::unique_ptr<Operator> child,
                                   AggregateOptions options)
    : child_(std::move(child)), options_(std::move(options)) {}

Status OrderedAggregate::Open() {
  if (options_.group_by.size() != 1) {
    return Status::InvalidArgument(
        "ordered aggregation requires exactly one grouping key");
  }
  TDE_RETURN_NOT_OK(child_->Open());
  const Schema& in = child_->output_schema();
  TDE_ASSIGN_OR_RETURN(key_idx_, in.FieldIndex(options_.group_by[0]));
  key_type_ = in.field(key_idx_).type;
  schema_ = Schema();
  schema_.AddField({options_.group_by[0], key_type_});
  agg_idx_.clear();
  agg_types_.clear();
  for (const AggSpec& a : options_.aggs) {
    size_t i = 0;
    TypeId input_type = TypeId::kInteger;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(i, in.FieldIndex(a.input));
      input_type = in.field(i).type;
    }
    agg_idx_.push_back(i);
    agg_types_.push_back(input_type);
    schema_.AddField({a.output, agg_internal::OutputType(a.kind, input_type)});
  }
  group_open_ = false;
  input_done_ = false;
  pending_keys_.clear();
  pending_aggs_.assign(options_.aggs.size(), {});
  states_.assign(options_.aggs.size(), AggState{});
  agg_heaps_.assign(options_.aggs.size(), nullptr);
  norm_.reset();
  norm_state_ = -1;
  groups_late_materialized_ = 0;
  return Status::OK();
}

Status OrderedAggregate::CloseGroup() {
  if (!group_open_) return Status::OK();
  pending_keys_.push_back(group_key_);
  if (norm_state_ == 1) ++groups_late_materialized_;
  for (size_t a = 0; a < states_.size(); ++a) {
    TDE_ASSIGN_OR_RETURN(Lane v, agg_internal::Finalize(
                                     options_.aggs[a].kind, agg_types_[a],
                                     &states_[a], agg_heaps_[a].get()));
    pending_aggs_[a].push_back(v);
    states_[a] = AggState{};
  }
  group_open_ = false;
  return Status::OK();
}

Status OrderedAggregate::Next(Block* block, bool* eos) {
  block->columns.clear();
  while (!input_done_ && pending_keys_.size() < kBlockSize) {
    Block in;
    bool child_eos = false;
    TDE_RETURN_NOT_OK(child_->Next(&in, &child_eos));
    if (child_eos) {
      input_done_ = true;
      TDE_RETURN_NOT_OK(CloseGroup());
      break;
    }
    const size_t n = in.rows();
    if (n > 0 && key_type_ == TypeId::kString && key_heap_ == nullptr) {
      key_heap_ = in.columns[key_idx_].heap;
    }
    if (n > 0 && norm_state_ == -1) {
      const bool on = options_.dict_code_keys &&
                      key_type_ == TypeId::kString &&
                      in.columns[key_idx_].heap != nullptr;
      norm_state_ = on ? 1 : 0;
      if (on) norm_ = std::make_unique<StringKeyNormalizer>();
    }
    if (n > 0) {
      for (size_t a = 0; a < agg_idx_.size(); ++a) {
        if (agg_heaps_[a] == nullptr &&
            options_.aggs[a].kind != AggKind::kCountStar &&
            agg_types_[a] == TypeId::kString) {
          agg_heaps_[a] = in.columns[agg_idx_[a]].heap;
        }
      }
    }
    for (size_t r = 0; r < n; ++r) {
      Lane key = in.columns[key_idx_].lanes[r];
      if (norm_state_ == 1) {
        key = static_cast<Lane>(
            norm_->Code(in.columns[key_idx_].heap, key));
      }
      if (!group_open_ || key != group_key_) {
        TDE_RETURN_NOT_OK(CloseGroup());
        group_open_ = true;
        group_key_ = key;
      }
      for (size_t a = 0; a < states_.size(); ++a) {
        const Lane v = options_.aggs[a].kind == AggKind::kCountStar
                           ? 0
                           : in.columns[agg_idx_[a]].lanes[r];
        agg_internal::Update(options_.aggs[a].kind, agg_types_[a], v,
                             &states_[a], agg_heaps_[a].get());
      }
    }
  }
  if (pending_keys_.empty()) {
    *eos = true;
    return Status::OK();
  }
  const size_t take = std::min<size_t>(pending_keys_.size(), kBlockSize);
  ColumnVector keys;
  keys.type = key_type_;
  keys.heap = key_heap_;
  keys.lanes.assign(pending_keys_.begin(),
                    pending_keys_.begin() + static_cast<ptrdiff_t>(take));
  if (norm_state_ == 1) {
    // Late materialization: codes resolve against the normalizer's emit
    // heap as of this block; earlier blocks keep the heap they captured.
    keys.heap = norm_->emit_heap();
    for (Lane& l : keys.lanes) {
      l = norm_->Token(static_cast<uint32_t>(l));
    }
  }
  block->columns.push_back(std::move(keys));
  for (size_t a = 0; a < pending_aggs_.size(); ++a) {
    ColumnVector cv;
    cv.type = schema_.field(1 + a).type;
    if (cv.type == TypeId::kString) cv.heap = agg_heaps_[a];
    cv.lanes.assign(pending_aggs_[a].begin(),
                    pending_aggs_[a].begin() + static_cast<ptrdiff_t>(take));
    block->columns.push_back(std::move(cv));
    pending_aggs_[a].erase(
        pending_aggs_[a].begin(),
        pending_aggs_[a].begin() + static_cast<ptrdiff_t>(take));
  }
  pending_keys_.erase(pending_keys_.begin(),
                      pending_keys_.begin() + static_cast<ptrdiff_t>(take));
  *eos = false;
  return Status::OK();
}

}  // namespace tde
