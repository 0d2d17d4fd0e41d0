#include "src/exec/sort.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/exec/scheduler.h"

namespace tde {

namespace {
/// Below this, chunk + merge bookkeeping costs more than it saves.
constexpr uint64_t kParallelSortMinRows = 8192;
}  // namespace

Sort::Sort(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
           SortOptions options)
    : child_(std::move(child)), keys_(std::move(keys)), options_(options) {}

Status Sort::Open() {
  TDE_RETURN_NOT_OK(child_->Open());
  const Schema& schema = child_->output_schema();
  cols_.assign(schema.num_fields(), ColumnVector{});
  unifiers_.assign(schema.num_fields(), sortkeys::HeapUnifier{});
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    cols_[i].type = schema.field(i).type;
  }
  while (true) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(child_->Next(&b, &eos));
    if (eos) break;
    for (size_t i = 0; i < b.columns.size(); ++i) {
      ColumnVector& in = b.columns[i];
      if (in.heap != nullptr) unifiers_[i].UnifyBlock(&in);
      if (cols_[i].dict == nullptr) cols_[i].dict = in.dict;
      cols_[i].lanes.insert(cols_[i].lanes.end(), in.lanes.begin(),
                            in.lanes.end());
    }
  }
  child_->Close();
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (unifiers_[i].heap() != nullptr) cols_[i].heap = unifiers_[i].heap();
  }

  const uint64_t n = cols_.empty() ? 0 : cols_[0].lanes.size();
  prepared_.clear();
  rank_lanes_.assign(keys_.size(), {});
  key_lanes_.assign(keys_.size(), nullptr);
  sortkeys::StringRankCache rank_cache;
  for (size_t k = 0; k < keys_.size(); ++k) {
    TDE_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(keys_[k].column));
    const ColumnVector& col = cols_[idx];
    sortkeys::PreparedKey p;
    p.col = idx;
    p.ascending = keys_[k].ascending;
    p.type = col.type;
    if (col.type == TypeId::kString && col.heap != nullptr) {
      if (!options_.dict_sort) {
        p.mode = sortkeys::StringKeyMode::kCollate;
        p.heap = col.heap.get();
      } else if (col.heap->sorted()) {
        p.mode = sortkeys::StringKeyMode::kRawTokens;
        ++dict_key_sorts_;
      } else {
        // Translate the key lanes to collation ranks once; every
        // comparison below is then integer.
        p.mode = sortkeys::StringKeyMode::kRanks;
        ++dict_key_sorts_;
        std::vector<Lane> ranks(col.lanes.size());
        for (size_t r = 0; r < col.lanes.size(); ++r) {
          ranks[r] = rank_cache.Rank(col.heap, col.lanes[r]);
        }
        rank_lanes_[k] = std::move(ranks);
      }
    }
    prepared_.push_back(p);
    key_lanes_[k] = p.mode == sortkeys::StringKeyMode::kRanks
                        ? rank_lanes_[k].data()
                        : col.lanes.data();
  }

  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  SortOrder();
  emit_ = 0;
  return Status::OK();
}

bool Sort::RowBefore(uint64_t a, uint64_t b) const {
  for (size_t k = 0; k < prepared_.size(); ++k) {
    const int cmp = sortkeys::KeyCompareDirected(prepared_[k], key_lanes_[k][a],
                                                 key_lanes_[k][b]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

void Sort::SortOrder() {
  const uint64_t n = order_.size();
  const auto cmp = [this](uint64_t a, uint64_t b) { return RowBefore(a, b); };
  TaskScheduler& sched = TaskScheduler::Global();
  const uint64_t workers =
      static_cast<uint64_t>(sched.SuggestedQueryParallelism());
  if (n < kParallelSortMinRows || workers < 2) {
    std::stable_sort(order_.begin(), order_.end(), cmp);
    return;
  }

  // Contiguous chunks in input order: each chunk stable-sorts as one
  // scheduler task, then pairwise merges reassemble them. std::merge is
  // stable and takes ties from the first (earlier-input) range, so the
  // result matches a serial stable_sort exactly.
  const uint64_t chunks =
      std::max<uint64_t>(2, std::min(workers, n / (kParallelSortMinRows / 2)));
  const uint64_t per = (n + chunks - 1) / chunks;
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  auto group = sched.CreateGroup();
  for (uint64_t begin = 0; begin < n; begin += per) {
    const uint64_t end = std::min(n, begin + per);
    runs.emplace_back(begin, end);
    group->Submit([this, begin, end, cmp] {
      std::stable_sort(order_.begin() + static_cast<ptrdiff_t>(begin),
                       order_.begin() + static_cast<ptrdiff_t>(end), cmp);
    });
  }
  group->Wait();
  parallel_chunks_ = runs.size();

  std::vector<uint64_t> scratch(n);
  while (runs.size() > 1) {
    std::vector<std::pair<uint64_t, uint64_t>> next;
    auto merge_group = sched.CreateGroup();
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      const uint64_t b1 = runs[i].first;
      const uint64_t e1 = runs[i].second;
      const uint64_t e2 = runs[i + 1].second;
      next.emplace_back(b1, e2);
      merge_group->Submit([this, &scratch, b1, e1, e2, cmp] {
        std::merge(order_.begin() + static_cast<ptrdiff_t>(b1),
                   order_.begin() + static_cast<ptrdiff_t>(e1),
                   order_.begin() + static_cast<ptrdiff_t>(e1),
                   order_.begin() + static_cast<ptrdiff_t>(e2),
                   scratch.begin() + static_cast<ptrdiff_t>(b1), cmp);
      });
    }
    if (runs.size() % 2 == 1) {
      const uint64_t b = runs.back().first;
      const uint64_t e = runs.back().second;
      next.emplace_back(b, e);
      std::copy(order_.begin() + static_cast<ptrdiff_t>(b),
                order_.begin() + static_cast<ptrdiff_t>(e),
                scratch.begin() + static_cast<ptrdiff_t>(b));
    }
    merge_group->Wait();
    order_.swap(scratch);
    runs = std::move(next);
  }
}

Status Sort::Next(Block* block, bool* eos) {
  block->columns.clear();
  const uint64_t n = order_.size();
  if (emit_ >= n) {
    *eos = true;
    return Status::OK();
  }
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(kBlockSize, n - emit_));
  block->columns.reserve(cols_.size());
  for (const ColumnVector& col : cols_) {
    ColumnVector out;
    out.type = col.type;
    out.heap = col.heap;
    out.dict = col.dict;
    out.lanes.resize(take);
    for (size_t i = 0; i < take; ++i) {
      out.lanes[i] = col.lanes[order_[emit_ + i]];
    }
    block->columns.push_back(std::move(out));
  }
  emit_ += take;
  *eos = false;
  return Status::OK();
}

}  // namespace tde
