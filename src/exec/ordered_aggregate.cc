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
  states_.clear();
  for (const AggSpec& a : options_.aggs) {
    size_t i = 0;
    TypeId input_type = TypeId::kInteger;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(i, in.FieldIndex(a.input));
      input_type = in.field(i).type;
    }
    agg_idx_.push_back(i);
    states_.emplace_back(a.kind, input_type, 1);
    schema_.AddField({a.output, agg_internal::OutputType(a.kind, input_type)});
  }
  group_open_ = false;
  input_done_ = false;
  pending_keys_.clear();
  pending_aggs_.assign(options_.aggs.size(), {});
  pending_heaps_.assign(options_.aggs.size(), {});
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
    TDE_ASSIGN_OR_RETURN(Lane v, agg_internal::Finalize(&states_[a], 0));
    pending_aggs_[a].push_back(v);
    if (schema_.field(1 + a).type == TypeId::kString) {
      pending_heaps_[a].push_back(states_[a].heap());
    }
    states_[a].Reset(0);
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
    // Rows fold a run of one group's rows at a time, column by column.
    static const uint32_t kZeros[kBlockSize] = {};
    size_t begin = 0;
    for (size_t r = 0; r <= n; ++r) {
      Lane key = 0;
      if (r < n) {
        key = in.columns[key_idx_].lanes[r];
        if (norm_state_ == 1) {
          key = static_cast<Lane>(
              norm_->Code(in.columns[key_idx_].heap, key));
        }
        if (group_open_ && key == group_key_) continue;
      }
      // Rows [begin, r) belong to the open group.
      for (size_t a = 0; a < states_.size() && r > begin; ++a) {
        const ColumnVector* cv = states_[a].kind == AggKind::kCountStar
                                     ? nullptr
                                     : &in.columns[agg_idx_[a]];
        agg_internal::UpdateColumn(
            &states_[a], cv ? cv->lanes.data() + begin : nullptr, kZeros,
            r - begin,
            cv ? cv->heap : std::shared_ptr<const StringHeap>());
      }
      if (r == n) break;
      TDE_RETURN_NOT_OK(CloseGroup());
      group_open_ = true;
      group_key_ = key;
      begin = r;
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
    cv.lanes.assign(pending_aggs_[a].begin(),
                    pending_aggs_[a].begin() + static_cast<ptrdiff_t>(take));
    if (cv.type == TypeId::kString) {
      std::vector<std::shared_ptr<const StringHeap>>& heaps =
          pending_heaps_[a];
      const std::vector<std::shared_ptr<const StringHeap>> block_heaps(
          heaps.begin(), heaps.begin() + static_cast<ptrdiff_t>(take));
      cv.heap = agg_internal::OneHeap(&cv.lanes, block_heaps);
      heaps.erase(heaps.begin(),
                  heaps.begin() + static_cast<ptrdiff_t>(take));
    }
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
