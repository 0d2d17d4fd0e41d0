#include "src/exec/parallel_rollup.h"

#include <algorithm>

#include "src/exec/ordered_aggregate.h"
#include "src/exec/scheduler.h"

namespace tde {

RunFoldAggregate::RunFoldAggregate(std::vector<IndexEntry> index,
                                   RunFoldOptions options)
    : index_(std::move(index)), options_(std::move(options)) {}

Status RunFoldAggregate::Open() {
  schema_ = Schema();
  if (options_.group_by_value) {
    schema_.AddField({options_.value_name, options_.value_type});
  }
  for (const AggSpec& a : options_.aggs) {
    if (a.kind != AggKind::kCountStar && a.input != options_.value_name) {
      return Status::InvalidArgument(
          "run folding requires every aggregate to read the index value: " +
          a.input);
    }
    schema_.AddField(
        {a.output, agg_internal::OutputType(a.kind, options_.value_type)});
  }

  const size_t naggs = options_.aggs.size();
  // Group in first-occurrence order of run values, exactly like the
  // row-at-a-time HashAggregate over the expanded rows.
  GroupMap map(HashAlgorithm::kCollision, 0, 0);
  uint64_t ngroups = options_.group_by_value ? 0 : 1;
  std::vector<AggStates> states;
  for (const AggSpec& a : options_.aggs) {
    states.emplace_back(a.kind, options_.value_type, ngroups);
  }
  out_keys_.clear();
  for (const IndexEntry& e : index_) {
    uint32_t g = 0;
    if (options_.group_by_value) {
      g = map.GetOrInsert(e.value);
      if (g >= ngroups) {
        ngroups = g + 1;
        for (AggStates& s : states) s.Resize(ngroups);
        out_keys_.push_back(e.value);
      }
    }
    for (AggStates& s : states) {
      agg_internal::UpdateRun(&s, g, e.value, e.count, options_.value_heap);
    }
  }
  runs_folded_ = index_.size();

  groups_ = ngroups;
  out_aggs_.assign(naggs, {});
  for (size_t a = 0; a < naggs; ++a) {
    out_aggs_[a].resize(groups_);
    for (uint64_t g = 0; g < groups_; ++g) {
      TDE_ASSIGN_OR_RETURN(out_aggs_[a][g],
                           agg_internal::Finalize(&states[a], g));
    }
  }
  emit_ = 0;
  return Status::OK();
}

Status RunFoldAggregate::Next(Block* block, bool* eos) {
  block->columns.clear();
  if (emit_ >= groups_) {
    *eos = true;
    return Status::OK();
  }
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(kBlockSize, groups_ - emit_));
  if (options_.group_by_value) {
    ColumnVector cv;
    cv.type = options_.value_type;
    cv.heap = options_.value_heap;
    cv.lanes.assign(out_keys_.begin() + static_cast<ptrdiff_t>(emit_),
                    out_keys_.begin() + static_cast<ptrdiff_t>(emit_ + take));
    block->columns.push_back(std::move(cv));
  }
  for (size_t a = 0; a < out_aggs_.size(); ++a) {
    ColumnVector cv;
    cv.type = schema_.field((options_.group_by_value ? 1 : 0) + a).type;
    // Aggregate inputs are the value column, so string outputs (MIN/MAX)
    // resolve against its heap.
    if (cv.type == TypeId::kString) cv.heap = options_.value_heap;
    cv.lanes.assign(out_aggs_[a].begin() + static_cast<ptrdiff_t>(emit_),
                    out_aggs_[a].begin() + static_cast<ptrdiff_t>(emit_ + take));
    block->columns.push_back(std::move(cv));
  }
  emit_ += take;
  *eos = false;
  return Status::OK();
}

Result<std::vector<IndexEntry>> RollUpIndex(
    const std::vector<IndexEntry>& index,
    const std::function<Lane(Lane)>& fn) {
  std::vector<IndexEntry> out;
  for (const IndexEntry& e : index) {
    const Lane rolled = fn(e.value);
    if (!out.empty() && out.back().value == rolled) {
      // Re-aggregate: MIN(start), SUM(count). Contiguity of the rolled
      // range is what makes the converted index valid.
      if (out.back().start + out.back().count != e.start) {
        return {Status::InvalidArgument(
            "roll-up function is not order-preserving over this index")};
      }
      out.back().count += e.count;
      out.back().start = std::min(out.back().start, e.start);
    } else {
      if (!out.empty() && fn(out.back().value) == rolled) {
        return {Status::InvalidArgument("roll-up produced a repeated group")};
      }
      out.push_back({rolled, e.count, e.start});
    }
  }
  return out;
}

Result<ParallelRollupResult> ParallelIndexedAggregate(
    std::shared_ptr<const Table> table, std::vector<IndexEntry> index,
    const ParallelRollupOptions& options) {
  // Partition the index range at group boundaries so each worker owns
  // whole groups and partition outputs concatenate in order.
  const int workers =
      options.workers > 0
          ? options.workers
          : TaskScheduler::Global().SuggestedQueryParallelism();
  std::vector<std::pair<size_t, size_t>> parts;  // [begin, end) into index
  const size_t per = std::max<size_t>(1, index.size() / workers);
  size_t begin = 0;
  while (begin < index.size()) {
    size_t end = std::min(index.size(), begin + per);
    while (end < index.size() && index[end].value == index[end - 1].value) {
      ++end;
    }
    parts.emplace_back(begin, end);
    begin = end;
  }

  // Compressed-domain fast path: when no aggregate needs a payload row,
  // each partition folds its runs in O(1) per entry instead of expanding
  // rows through IndexedScan. Values within a partition are sorted, so
  // first-occurrence group order equals the ordered-aggregate order.
  bool foldable = options.value_type != TypeId::kReal;
  for (const AggSpec& a : options.aggs) {
    if (a.kind == AggKind::kCountStar) continue;
    if (a.input != options.value_name ||
        !agg_internal::FoldableOverRuns(a.kind)) {
      foldable = false;
      break;
    }
  }

  auto run_partition = [&](size_t b, size_t e,
                           std::vector<Block>* out) -> Status {
    std::vector<IndexEntry> slice(index.begin() + static_cast<ptrdiff_t>(b),
                                  index.begin() + static_cast<ptrdiff_t>(e));
    if (foldable) {
      RunFoldOptions fold;
      fold.value_name = options.value_name;
      fold.value_type = options.value_type;
      fold.group_by_value = true;
      fold.aggs = options.aggs;
      RunFoldAggregate fagg(std::move(slice), fold);
      return DrainOperator(&fagg, out);
    }
    IndexedScanOptions scan;
    scan.value_name = options.value_name;
    scan.value_type = options.value_type;
    scan.payload = options.payload;
    auto iscan =
        std::make_unique<IndexedScan>(table, std::move(slice), scan);
    AggregateOptions agg;
    agg.group_by = {options.value_name};
    agg.aggs = options.aggs;
    OrderedAggregate oagg(std::move(iscan), agg);
    return DrainOperator(&oagg, out);
  };

  std::vector<std::vector<Block>> results(parts.size());
  std::vector<Status> statuses(parts.size());
  if (parts.size() > 1) {
    // One task per partition on the shared pool. The group adopts the
    // spawning query's scope, so partition workers count against it (runs
    // folded, scan bytes) and their CPU time folds into it; Wait() helps
    // drain the group inline, so this is safe even on a pool thread.
    auto group = TaskScheduler::Global().CreateGroup();
    for (size_t i = 0; i < parts.size(); ++i) {
      group->Submit([&, i]() {
        statuses[i] =
            run_partition(parts[i].first, parts[i].second, &results[i]);
      });
    }
    group->Wait();
  } else if (parts.size() == 1) {
    statuses[0] = run_partition(parts[0].first, parts[0].second, &results[0]);
  }
  for (const Status& st : statuses) TDE_RETURN_NOT_OK(st);

  ParallelRollupResult out;
  // Schema: value column + aggregate outputs (derive via a throwaway
  // operator over an empty partition).
  {
    IndexedScanOptions scan;
    scan.value_name = options.value_name;
    scan.value_type = options.value_type;
    scan.payload = options.payload;
    auto iscan = std::make_unique<IndexedScan>(table,
                                               std::vector<IndexEntry>{}, scan);
    AggregateOptions agg;
    agg.group_by = {options.value_name};
    agg.aggs = options.aggs;
    OrderedAggregate oagg(std::move(iscan), agg);
    TDE_RETURN_NOT_OK(oagg.Open());
    out.schema = oagg.output_schema();
  }
  for (auto& blocks : results) {
    for (auto& b : blocks) out.blocks.push_back(std::move(b));
  }
  if (foldable) out.runs_folded = index.size();
  return out;
}

}  // namespace tde
