#include "src/exec/topn.h"

#include <algorithm>
#include <utility>

namespace tde {

namespace {

std::vector<TopNSource> OneSource(std::unique_ptr<Operator> child) {
  std::vector<TopNSource> sources;
  sources.emplace_back();
  sources.back().op = std::move(child);
  return sources;
}

}  // namespace

TopN::TopN(std::vector<TopNSource> sources, std::vector<SortKey> keys,
           uint64_t limit, TopNOptions options)
    : sources_(std::move(sources)),
      keys_(std::move(keys)),
      limit_(limit),
      options_(options) {}

TopN::TopN(std::unique_ptr<Operator> child, std::vector<SortKey> keys,
           uint64_t limit, TopNOptions options)
    : TopN(OneSource(std::move(child)), std::move(keys), limit, options) {}

const Schema& TopN::output_schema() const {
  return sources_.front().op->output_schema();
}

void TopN::RefreshKeys() {
  for (size_t k = 0; k < keys_.size(); ++k) {
    sortkeys::PreparedKey& p = prepared_[k];
    if (p.type != TypeId::kString) continue;
    const size_t col = key_cols_[k];
    const std::shared_ptr<const StringHeap>& owner = unifiers_[col].heap();
    const StringHeap* heap = owner.get();
    sortkeys::StringKeyMode mode;
    if (heap == nullptr || !options_.dict_sort || translated_[col]) {
      // A column that re-interned a foreign heap keeps growing, so raw
      // tokens / cached ranks are stale the moment they are built; the
      // collation fallback stays correct as the heap grows.
      mode = sortkeys::StringKeyMode::kCollate;
    } else if (heap->sorted()) {
      mode = sortkeys::StringKeyMode::kRawTokens;
    } else {
      mode = sortkeys::StringKeyMode::kRanks;
    }
    if (mode == p.mode && heap == p.heap) continue;
    const sortkeys::StringKeyMode prev = p.mode;
    p.mode = mode;
    p.heap = heap;
    // Rank lanes and token lanes live in different integer domains; on a
    // mode change re-derive the stored comparison lanes from the kept
    // rows' tokens. All three modes order identically (rank order ==
    // token order of a sorted heap == collation order), so the heap's
    // shape stays valid.
    if (prev == sortkeys::StringKeyMode::kRanks ||
        mode == sortkeys::StringKeyMode::kRanks) {
      for (size_t i = 0; i < key_store_[k].size(); ++i) {
        const Lane token = store_[col].lanes[i];
        key_store_[k][i] = mode == sortkeys::StringKeyMode::kRanks
                               ? rank_cache_.Rank(owner, token)
                               : token;
      }
    }
  }
}

bool TopN::RowLess(uint32_t a, uint32_t b) const {
  for (size_t k = 0; k < prepared_.size(); ++k) {
    const int cmp = sortkeys::KeyCompareDirected(prepared_[k],
                                                 key_store_[k][a],
                                                 key_store_[k][b]);
    if (cmp != 0) return cmp < 0;
  }
  return seq_store_[a] < seq_store_[b];
}

bool TopN::CandidateBeats(uint32_t slot) const {
  for (size_t k = 0; k < prepared_.size(); ++k) {
    const int cmp = sortkeys::KeyCompareDirected(prepared_[k], cand_[k],
                                                 key_store_[k][slot]);
    if (cmp != 0) return cmp < 0;
  }
  return false;  // full tie: the stored row came first and wins
}

Status TopN::DrainSource(Operator* op, bool sorted_source) {
  const auto less = [this](uint32_t a, uint32_t b) { return RowLess(a, b); };
  bool stop = false;
  while (!stop) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(op->Next(&b, &eos));
    if (eos) break;
    for (size_t i = 0; i < b.columns.size() && i < store_.size(); ++i) {
      ColumnVector& in = b.columns[i];
      if (in.heap != nullptr) {
        const StringHeap* prev = unifiers_[i].heap().get();
        unifiers_[i].UnifyBlock(&in);
        if (prev != nullptr && unifiers_[i].heap().get() != prev) {
          translated_[i] = true;
        }
      }
      if (store_[i].dict == nullptr) store_[i].dict = in.dict;
    }
    RefreshKeys();
    const size_t rows = b.rows();
    for (size_t r = 0; r < rows; ++r) {
      ++input_rows_;
      ++seq_;
      for (size_t k = 0; k < keys_.size(); ++k) {
        Lane lane = b.columns[key_cols_[k]].lanes[r];
        if (prepared_[k].mode == sortkeys::StringKeyMode::kRanks) {
          // kRanks implies the unifier holds the (non-null) heap the
          // prepared key was refreshed against.
          lane = rank_cache_.Rank(unifiers_[key_cols_[k]].heap(), lane);
        }
        cand_[k] = lane;
      }
      const bool full = heap_.size() >= limit_;
      if (full) {
        if (sorted_source && !keys_.empty()) {
          const int cmp0 = sortkeys::KeyCompareDirected(
              prepared_[0], cand_[0], key_store_[0][heap_.front()]);
          if (cmp0 > 0 || (cmp0 == 0 && keys_.size() == 1)) {
            // Sorted input: every later row is at least this bad.
            early_stopped_ = true;
            stop = true;
            break;
          }
        }
        if (!CandidateBeats(heap_.front())) continue;
        std::pop_heap(heap_.begin(), heap_.end(), less);
        const uint32_t slot = heap_.back();
        for (size_t i = 0; i < store_.size(); ++i) {
          store_[i].lanes[slot] = b.columns[i].lanes[r];
        }
        for (size_t k = 0; k < keys_.size(); ++k) {
          key_store_[k][slot] = cand_[k];
        }
        seq_store_[slot] = seq_;
        ++rows_materialized_;
        std::push_heap(heap_.begin(), heap_.end(), less);
      } else {
        const uint32_t slot = static_cast<uint32_t>(seq_store_.size());
        for (size_t i = 0; i < store_.size(); ++i) {
          store_[i].lanes.push_back(b.columns[i].lanes[r]);
        }
        for (size_t k = 0; k < keys_.size(); ++k) {
          key_store_[k].push_back(cand_[k]);
        }
        seq_store_.push_back(seq_);
        ++rows_materialized_;
        heap_.push_back(slot);
        std::push_heap(heap_.begin(), heap_.end(), less);
      }
    }
  }
  op->Close();
  return Status::OK();
}

void TopN::Finalize() {
  for (size_t i = 0; i < store_.size(); ++i) {
    if (unifiers_[i].heap() != nullptr) store_[i].heap = unifiers_[i].heap();
  }
  result_.resize(seq_store_.size());
  for (uint32_t i = 0; i < result_.size(); ++i) result_[i] = i;
  std::sort(result_.begin(), result_.end(),
            [this](uint32_t a, uint32_t b) { return RowLess(a, b); });
  for (const sortkeys::PreparedKey& p : prepared_) {
    if (p.type == TypeId::kString &&
        p.mode != sortkeys::StringKeyMode::kCollate) {
      ++dict_keys_;
    }
  }
}

Status TopN::Open() {
  // Flow operators only know their output schema once opened, so the first
  // source opens before key preparation. It is never a lost opportunity:
  // the heap is empty until the first source drains, so the first source
  // can never be zone-skipped anyway.
  TDE_RETURN_NOT_OK(sources_.front().op->Open());
  const Schema& schema = output_schema();
  store_.assign(schema.num_fields(), ColumnVector{});
  unifiers_.assign(schema.num_fields(), sortkeys::HeapUnifier{});
  translated_.assign(schema.num_fields(), 0);
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    store_[i].type = schema.field(i).type;
  }
  key_cols_.clear();
  prepared_.clear();
  for (const SortKey& key : keys_) {
    TDE_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(key.column));
    key_cols_.push_back(idx);
    sortkeys::PreparedKey p;
    p.col = idx;
    p.ascending = key.ascending;
    p.type = schema.field(idx).type;
    p.mode = sortkeys::StringKeyMode::kCollate;
    prepared_.push_back(p);
  }
  key_store_.assign(keys_.size(), {});
  cand_.assign(keys_.size(), 0);
  emit_ = 0;
  if (limit_ == 0) {
    // Nothing can ever surface; the (already open) first source closes
    // unread and the remaining sources never open at all.
    sources_.front().op->Close();
    return Status::OK();
  }

  const bool single_sorted = options_.input_sorted && sources_.size() == 1;
  bool first = true;
  for (TopNSource& src : sources_) {
    if (!first) {
      if (heap_.size() >= limit_ && src.zone_known && !keys_.empty() &&
          LaneComparable(prepared_[0].type)) {
        // Best row this source could hold, under the first key's direction
        // (ascending: its minimum, or NULL which orders below everything;
        // descending: its maximum — NULLs order last there).
        const Lane best = keys_[0].ascending
                              ? (src.has_nulls ? kNullSentinel : src.min_value)
                              : src.max_value;
        const int cmp = sortkeys::KeyCompareDirected(
            prepared_[0], best, key_store_[0][heap_.front()]);
        if (cmp > 0 || (cmp == 0 && keys_.size() == 1)) {
          // Skipped sources are never opened: their cold columns stay on
          // disk.
          ++segments_skipped_;
          continue;
        }
      }
      TDE_RETURN_NOT_OK(src.op->Open());
    }
    first = false;
    TDE_RETURN_NOT_OK(DrainSource(src.op.get(), single_sorted));
  }
  Finalize();
  return Status::OK();
}

Status TopN::Next(Block* block, bool* eos) {
  block->columns.clear();
  const uint64_t n = result_.size();
  if (emit_ >= n) {
    *eos = true;
    return Status::OK();
  }
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(kBlockSize, n - emit_));
  block->columns.reserve(store_.size());
  for (const ColumnVector& col : store_) {
    ColumnVector out;
    out.type = col.type;
    out.heap = col.heap;
    out.dict = col.dict;
    out.lanes.resize(take);
    for (size_t i = 0; i < take; ++i) {
      out.lanes[i] = col.lanes[result_[emit_ + i]];
    }
    block->columns.push_back(std::move(out));
  }
  emit_ += take;
  *eos = false;
  return Status::OK();
}

}  // namespace tde
