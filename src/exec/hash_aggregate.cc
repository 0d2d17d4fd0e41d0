#include "src/exec/hash_aggregate.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <thread>

#include "src/exec/scheduler.h"
#include "src/observe/journal.h"

namespace tde {

namespace agg_internal {

namespace {
double AsReal(Lane v) { return std::bit_cast<double>(static_cast<uint64_t>(v)); }
Lane RealLane(double d) { return static_cast<Lane>(std::bit_cast<uint64_t>(d)); }

Status SumOverflow() {
  return Status::OutOfRange("integer overflow in SUM: result exceeds int64");
}
}  // namespace

namespace {
/// Three-way comparison of two input lanes under the input's semantics:
/// collated text for string tokens (O(1) on a sorted heap), double for
/// reals, raw int64 otherwise.
int CompareLanes(TypeId type, const StringHeap* heap, Lane a, Lane b) {
  if (type == TypeId::kString && heap != nullptr) {
    return heap->CompareTokens(a, b);
  }
  if (type == TypeId::kReal) {
    return CompareReals(AsReal(a), AsReal(b));
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}
}  // namespace

namespace {
/// Adds `delta` to an integer SUM's running total and widens the range of
/// values the total has taken (an addition can only lower the low end or
/// raise the high one). 128 bits cannot overflow (2^63 rows of 2^63 each);
/// only the range decides overflow, at Finalize.
void AddToSum(AggState* s, __int128 delta) {
  s->total += delta;
  if (delta < 0) {
    if (s->total < s->low) s->low = s->total;
  } else if (s->total > s->high) {
    s->high = s->total;
  }
}
}  // namespace

void Update(AggKind kind, TypeId type, Lane v, AggState* s,
            const StringHeap* heap) {
  if (kind == AggKind::kCountStar) {
    ++s->n;
    return;
  }
  if (v == kNullSentinel) return;  // aggregates ignore NULLs
  switch (kind) {
    case AggKind::kCountStar:
      break;
    case AggKind::kCount:
      ++s->n;
      break;
    case AggKind::kSum:
      if (type == TypeId::kReal) {
        s->d += AsReal(v);
      } else {
        AddToSum(s, v);
      }
      ++s->n;
      break;
    case AggKind::kMin:
      if (!s->seen || CompareLanes(type, heap, v, s->i) < 0) s->i = v;
      s->seen = true;
      break;
    case AggKind::kMax:
      if (!s->seen || CompareLanes(type, heap, v, s->i) > 0) s->i = v;
      s->seen = true;
      break;
    case AggKind::kAvg:
      s->d += type == TypeId::kReal ? AsReal(v) : static_cast<double>(v);
      ++s->n;
      break;
    case AggKind::kCountDistinct:
      s->distinct.insert(v);
      break;
    case AggKind::kMedian:
      s->values.push_back(v);
      break;
  }
}

void UpdateColumn(AggKind kind, TypeId type, const Lane* v, const uint32_t* g,
                  size_t n, size_t stride, AggState* s0,
                  const StringHeap* heap) {
  switch (kind) {
    case AggKind::kCountStar:
      for (size_t r = 0; r < n; ++r) ++s0[g[r] * stride].n;
      return;
    case AggKind::kCount:
      for (size_t r = 0; r < n; ++r) {
        if (v[r] != kNullSentinel) ++s0[g[r] * stride].n;
      }
      return;
    case AggKind::kSum:
      if (type == TypeId::kReal) {
        for (size_t r = 0; r < n; ++r) {
          if (v[r] == kNullSentinel) continue;
          AggState& s = s0[g[r] * stride];
          s.d += AsReal(v[r]);
          ++s.n;
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          if (v[r] == kNullSentinel) continue;
          AggState& s = s0[g[r] * stride];
          AddToSum(&s, v[r]);
          ++s.n;
        }
      }
      return;
    default:
      for (size_t r = 0; r < n; ++r) {
        Update(kind, type, v[r], &s0[g[r] * stride], heap);
      }
      return;
  }
}

void UpdateRun(AggKind kind, TypeId type, Lane v, uint64_t count, AggState* s,
               const StringHeap* heap) {
  if (count == 0) return;
  if (kind == AggKind::kCountStar) {
    s->n += count;
    return;
  }
  if (v == kNullSentinel) return;
  switch (kind) {
    case AggKind::kCountStar:
      break;
    case AggKind::kCount:
      s->n += count;
      break;
    case AggKind::kSum:
      if (type == TypeId::kReal) {
        s->d += AsReal(v) * static_cast<double>(count);
      } else {
        // The running totals within a run are monotonic, so their extremes
        // are its ends: one widening covers all `count` rows.
        AddToSum(s, static_cast<__int128>(v) * static_cast<__int128>(count));
      }
      s->n += count;
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      Update(kind, type, v, s, heap);
      break;
    case AggKind::kAvg:
      s->d += (type == TypeId::kReal ? AsReal(v) : static_cast<double>(v)) *
              static_cast<double>(count);
      s->n += count;
      break;
    case AggKind::kCountDistinct:
      s->distinct.insert(v);
      break;
    case AggKind::kMedian:
      s->values.insert(s->values.end(), static_cast<size_t>(count), v);
      break;
  }
}

void Merge(AggKind kind, TypeId type, AggState* into, AggState* from,
           const StringHeap* heap) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      into->n += from->n;
      break;
    case AggKind::kSum:
      if (type == TypeId::kReal) {
        into->d += from->d;
      } else {
        // `from`'s running totals start where `into`'s total ends.
        into->low = std::min(into->low, into->total + from->low);
        into->high = std::max(into->high, into->total + from->high);
        into->total += from->total;
      }
      into->n += from->n;
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      if (from->seen) {
        // Ties keep the earlier value, as the row path's strict compare
        // does.
        const int c = into->seen ? CompareLanes(type, heap, from->i, into->i)
                                 : 0;
        if (!into->seen || (kind == AggKind::kMin ? c < 0 : c > 0)) {
          into->i = from->i;
        }
        into->seen = true;
      }
      break;
    case AggKind::kAvg:
      into->d += from->d;
      into->n += from->n;
      break;
    case AggKind::kCountDistinct:
      if (into->distinct.size() == 0) {
        std::swap(into->distinct, from->distinct);
      } else {
        into->distinct.merge(from->distinct);
      }
      break;
    case AggKind::kMedian:
      if (into->values.empty()) {
        into->values.swap(from->values);
      } else {
        into->values.insert(into->values.end(), from->values.begin(),
                            from->values.end());
      }
      break;
  }
}

bool FoldableOverRuns(AggKind kind) {
  return kind != AggKind::kMedian;
}

Result<Lane> Finalize(AggKind kind, TypeId type, AggState* s,
                      const StringHeap* heap) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return static_cast<Lane>(s->n);
    case AggKind::kSum:
      if (s->n == 0) return kNullSentinel;
      if (type == TypeId::kReal) return RealLane(s->d);
      // Some row-order prefix of the sum left int64: the fold's first
      // overflow.
      if (s->low < INT64_MIN || s->high > INT64_MAX) return SumOverflow();
      return static_cast<Lane>(s->total);
    case AggKind::kMin:
    case AggKind::kMax:
      return s->seen ? s->i : kNullSentinel;
    case AggKind::kAvg:
      return s->n == 0 ? kNullSentinel : RealLane(s->d / static_cast<double>(s->n));
    case AggKind::kCountDistinct:
      return static_cast<Lane>(s->distinct.size());
    case AggKind::kMedian: {
      if (s->values.empty()) return kNullSentinel;
      const size_t mid = (s->values.size() - 1) / 2;
      std::nth_element(s->values.begin(), s->values.begin() + mid,
                       s->values.end(), [&](Lane a, Lane b) {
                         return CompareLanes(type, heap, a, b) < 0;
                       });
      return s->values[mid];
    }
  }
  return kNullSentinel;
}

TypeId OutputType(AggKind kind, TypeId input_type) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return TypeId::kInteger;
    case AggKind::kAvg:
      return TypeId::kReal;
    case AggKind::kSum:
      return input_type == TypeId::kReal ? TypeId::kReal : TypeId::kInteger;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kMedian:
      return input_type;
  }
  return TypeId::kInteger;
}

}  // namespace agg_internal

namespace {
// Direct token->code arrays stop paying off once the heap outgrows the
// cache; larger heaps fall back to a hash map per heap.
constexpr uint64_t kDirectCacheBytes = 1u << 22;
}  // namespace

uint32_t StringKeyNormalizer::Code(
    const std::shared_ptr<const StringHeap>& heap, Lane token) {
  if (token == kNullSentinel) {
    if (null_code_ == UINT32_MAX) {
      null_code_ = static_cast<uint32_t>(code_tokens_.size());
      code_tokens_.push_back(kNullSentinel);
    }
    return null_code_;
  }
  HeapCache* hc =
      (last_ != nullptr && last_->raw == heap.get()) ? last_ : CacheFor(heap);
  if (hc->use_direct) {
    uint32_t& slot = hc->direct[static_cast<size_t>(token)];
    if (slot != 0) return slot - 1;
    const uint32_t code = Assign(hc, token);
    slot = code + 1;
    return code;
  }
  auto it = hc->spill.find(token);
  if (it != hc->spill.end()) return it->second;
  const uint32_t code = Assign(hc, token);
  hc->spill.emplace(token, code);
  return code;
}

StringKeyNormalizer::HeapCache* StringKeyNormalizer::CacheFor(
    const std::shared_ptr<const StringHeap>& heap) {
  for (const auto& hc : heaps_) {
    if (hc->raw == heap.get()) {
      last_ = hc.get();
      return last_;
    }
  }
  if (!heaps_.empty() && canon_ == nullptr) {
    // A second heap: tokens are no longer a shared namespace. Re-key every
    // code onto a canonical heap (first-seen order) — one decode per
    // distinct value so far, none per row.
    const StringHeap& first = *heaps_[0]->keep;
    canon_ = std::make_shared<StringHeap>(first.collation());
    for (uint32_t c = 0; c < code_tokens_.size(); ++c) {
      if (code_tokens_[c] == kNullSentinel) continue;  // the NULL code
      std::string s(first.Get(code_tokens_[c]));
      code_tokens_[c] = canon_->Add(s);
      code_by_string_.emplace(std::move(s), c);
    }
  }
  auto hc = std::make_unique<HeapCache>();
  hc->raw = heap.get();
  hc->keep = heap;
  if (heap->byte_size() <= kDirectCacheBytes) {
    hc->direct = LazySlots(static_cast<size_t>(heap->byte_size()));
  } else {
    hc->use_direct = false;
  }
  heaps_.push_back(std::move(hc));
  last_ = heaps_.back().get();
  return last_;
}

uint32_t StringKeyNormalizer::Assign(HeapCache* hc, Lane token) {
  if (canon_ == nullptr) {
    // Single-heap mode: the input heap is the emit heap, the token itself
    // renders the group — nothing is decoded.
    const uint32_t code = static_cast<uint32_t>(code_tokens_.size());
    code_tokens_.push_back(token);
    return code;
  }
  std::string s(hc->keep->Get(token));
  auto it = code_by_string_.find(s);
  if (it != code_by_string_.end()) return it->second;
  const uint32_t code = static_cast<uint32_t>(code_tokens_.size());
  const Lane ct = canon_->Add(s);
  code_tokens_.push_back(ct);
  code_by_string_.emplace(std::move(s), code);
  return code;
}

std::shared_ptr<const StringHeap> StringKeyNormalizer::emit_heap() const {
  if (canon_ != nullptr) return canon_;
  return heaps_.empty() ? nullptr : heaps_[0]->keep;
}

namespace {

/// Maps key rows to dense group ids, assigned in first-occurrence order —
/// the grouping half of an aggregation, shared by the per-input partials
/// (over input blocks) and the merge (over the partials' groups).
class GroupIndex {
 public:
  /// `merging`: the rows are finished partial keys (string keys are tokens
  /// of per-partial heaps), so every string key groups through a
  /// normalizer, which matches equal strings across heaps.
  GroupIndex(const AggregateOptions& options,
             const std::vector<TypeId>& key_types, bool merging)
      : options_(options),
        key_types_(key_types),
        merging_(merging),
        nkeys_(key_types.size()),
        norms_(nkeys_),
        norm_state_(nkeys_, -1),
        key_dicts_(nkeys_),
        code_groups_(nkeys_),
        keys_(nkeys_),
        key_heaps_(nkeys_),
        keyrow_(nkeys_) {
    algorithm_ = options.hash_algorithm.value_or(HashAlgorithm::kCollision);
    if (nkeys_ == 0) ngroups_ = 1;  // a global aggregate has one group
    if (nkeys_ > 1) {
      mk_slots_.assign(1u << 12, 0);
      mk_mask_ = mk_slots_.size() - 1;
      algorithm_ = HashAlgorithm::kCollision;
    }
  }

  uint64_t groups() const { return ngroups_; }
  HashAlgorithm algorithm() const { return algorithm_; }

  /// Sets gids[r] for rows [0, n) of block `b`, whose key columns are at
  /// `key_idx`, creating groups in row order.
  void Resolve(const Block& b, const std::vector<size_t>& key_idx, size_t n,
               uint32_t* gids) {
    for (size_t k = 0; k < nkeys_; ++k) {
      const ColumnVector& cv = b.columns[key_idx[k]];
      if (norm_state_[k] == -1 && n > 0) {
        if (cv.dict != nullptr) {
          // Pre-coded lanes must be interpreted against the entry table
          // regardless of the dict_code_keys option — the kill switch
          // gates the plan rewrite, not this consumption.
          norm_state_[k] = 2;
          key_dicts_[k] = cv.dict;
          code_groups_[k] = LazySlots(cv.dict->values.size());
        } else {
          const bool on =
              key_types_[k] == TypeId::kString &&
              (merging_ || (options_.dict_code_keys && cv.heap != nullptr));
          norm_state_[k] = on ? 1 : 0;
          if (on) norms_[k] = std::make_unique<StringKeyNormalizer>();
          if (!on && nkeys_ == 1) {
            single_ = std::make_unique<GroupMap>(algorithm_, options_.key_min,
                                                 options_.key_max);
          }
        }
      }
      if (key_heaps_[k] == nullptr) key_heaps_[k] = cv.heap;
    }
    if (nkeys_ == 0) {
      std::fill(gids, gids + n, 0u);
      return;
    }
    if (nkeys_ == 1) {
      const ColumnVector& kv = b.columns[key_idx[0]];
      const Lane* key_lanes = kv.lanes.data();
      for (size_t r = 0; r < n; ++r) {
        uint32_t g;
        if (norm_state_[0] == 1) {
          // Codes are dense and first-occurrence ordered: the code IS the
          // group id, no hashing at all.
          g = norms_[0]->Code(kv.heap, key_lanes[r]);
          if (g >= ngroups_) ngroups_ = g + 1;
        } else if (norm_state_[0] == 2) {
          // Pre-coded: one array slot per dictionary entry, and the key
          // token materializes from the entry table once per group.
          uint32_t& slot = code_groups_[0][static_cast<size_t>(key_lanes[r])];
          if (slot == 0) {
            keys_[0].push_back(
                key_dicts_[0]->values[static_cast<size_t>(key_lanes[r])]);
            slot = static_cast<uint32_t>(ngroups_) + 1;
            ++ngroups_;
          }
          g = slot - 1;
        } else {
          g = single_->GetOrInsert(key_lanes[r]);
          if (g >= ngroups_) {
            ngroups_ = g + 1;
            keys_[0].push_back(key_lanes[r]);
          }
        }
        gids[r] = g;
      }
      return;
    }
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < nkeys_; ++k) {
        const ColumnVector& kv = b.columns[key_idx[k]];
        keyrow_[k] =
            norm_state_[k] == 1
                ? static_cast<Lane>(norms_[k]->Code(kv.heap, kv.lanes[r]))
            : norm_state_[k] == 2
                // Resolve pre-coded lanes to tokens: multi-key groups
                // hash the tuple, so keys must be a stable namespace.
                ? key_dicts_[k]->values[static_cast<size_t>(kv.lanes[r])]
                : kv.lanes[r];
      }
      gids[r] = TupleGroup();
    }
  }

  /// Moves the group keys into `keys`/`heaps`: string keys grouped on
  /// codes resolve back to tokens here — one per group, never one per row.
  /// Returns whether any key was late-materialized that way.
  bool Finish(std::vector<std::vector<Lane>>* keys,
              std::vector<std::shared_ptr<const StringHeap>>* heaps) {
    bool late = false;
    for (size_t k = 0; k < nkeys_; ++k) {
      if (norm_state_[k] == 2) {
        // Pre-coded keys materialized from the entry table as groups were
        // created — already one decode per group.
        late = true;
        if (nkeys_ == 1) algorithm_ = HashAlgorithm::kDirect;
        continue;
      }
      if (norm_state_[k] != 1) continue;
      late = true;
      key_heaps_[k] = norms_[k]->emit_heap();
      if (nkeys_ == 1) {
        keys_[0].resize(ngroups_);
        for (uint64_t g = 0; g < ngroups_; ++g) {
          keys_[0][g] = norms_[0]->Token(static_cast<uint32_t>(g));
        }
        algorithm_ = HashAlgorithm::kDirect;
      } else {
        for (uint64_t g = 0; g < ngroups_; ++g) {
          keys_[k][g] = norms_[k]->Token(static_cast<uint32_t>(keys_[k][g]));
        }
      }
    }
    *keys = std::move(keys_);
    *heaps = std::move(key_heaps_);
    return late;
  }

 private:
  /// Multi-key path: open-addressed map over mixed hashes of keyrow_.
  uint32_t TupleGroup() {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t k = 0; k < nkeys_; ++k) {
      h = Mix64(h ^ static_cast<uint64_t>(keyrow_[k]));
    }
    uint64_t idx = h & mk_mask_;
    while (true) {
      if (mk_slots_[idx] == 0) {
        // New group.
        const uint32_t g = static_cast<uint32_t>(ngroups_);
        mk_slots_[idx] = g + 1;
        ++ngroups_;
        for (size_t k = 0; k < nkeys_; ++k) keys_[k].push_back(keyrow_[k]);
        if (ngroups_ * 2 > mk_slots_.size()) Grow();  // half full
        return g;
      }
      const uint32_t cand = static_cast<uint32_t>(mk_slots_[idx] - 1);
      bool same = true;
      for (size_t k = 0; k < nkeys_; ++k) {
        if (keys_[k][cand] != keyrow_[k]) {
          same = false;
          break;
        }
      }
      if (same) return cand;
      idx = (idx + 1) & mk_mask_;
    }
  }

  void Grow() {
    mk_slots_.assign(mk_slots_.size() * 2, 0);
    mk_mask_ = mk_slots_.size() - 1;
    for (uint64_t gid = 0; gid < ngroups_; ++gid) {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (size_t k = 0; k < nkeys_; ++k) {
        h = Mix64(h ^ static_cast<uint64_t>(keys_[k][gid]));
      }
      uint64_t i = h & mk_mask_;
      while (mk_slots_[i] != 0) i = (i + 1) & mk_mask_;
      mk_slots_[i] = gid + 1;
    }
  }

  const AggregateOptions& options_;
  const std::vector<TypeId>& key_types_;
  const bool merging_;
  const size_t nkeys_;
  HashAlgorithm algorithm_;
  // Dictionary-code grouping (Sect. 4, "decode as late as possible"): each
  // string key gets a per-heap translation cache; the per-key decision is
  // made on the first non-empty block, when the key's heap is visible.
  std::vector<std::unique_ptr<StringKeyNormalizer>> norms_;
  // -1 undecided, 0 raw, 1 codes, 2 pre-coded (dict-code scan: lanes are
  // dense entry-table codes, decoded once per group on first occurrence)
  std::vector<int> norm_state_;
  std::vector<std::shared_ptr<const ArrayDictionary>> key_dicts_;
  std::vector<LazySlots> code_groups_;  // code -> g + 1
  std::unique_ptr<GroupMap> single_;  // tactical single raw key path
  std::vector<uint64_t> mk_slots_;    // group id + 1, 0 = empty
  uint64_t mk_mask_ = 0;
  std::vector<std::vector<Lane>> keys_;  // [key][group]
  std::vector<std::shared_ptr<const StringHeap>> key_heaps_;
  std::vector<Lane> keyrow_;
  uint64_t ngroups_ = 0;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One input's aggregation before finalization: the group keys in
/// first-occurrence order (string keys as tokens of `key_heaps`), one state
/// per (group, aggregate), and the heaps the aggregate inputs' tokens
/// resolve against.
struct HashAggregate::Partial {
  std::vector<std::vector<Lane>> keys;  // [key][group]
  std::vector<std::shared_ptr<const StringHeap>> key_heaps;
  std::vector<std::shared_ptr<const StringHeap>> agg_heaps;
  std::vector<AggState> states;  // [group * naggs + agg]
  uint64_t groups = 0;
  bool late = false;  // keys late-materialized from codes
  HashAlgorithm algorithm = HashAlgorithm::kCollision;
};

HashAggregate::HashAggregate(std::unique_ptr<Operator> child,
                             AggregateOptions options)
    : options_(std::move(options)) {
  inputs_.push_back(std::move(child));
}

HashAggregate::HashAggregate(std::vector<std::unique_ptr<Operator>> inputs,
                             AggregateOptions options)
    : inputs_(std::move(inputs)), options_(std::move(options)) {}

Status HashAggregate::BuildSchema() {
  schema_ = Schema();
  const Schema& in = inputs_[0]->output_schema();
  key_types_.clear();
  agg_types_.clear();
  for (const std::string& k : options_.group_by) {
    TDE_ASSIGN_OR_RETURN(size_t i, in.FieldIndex(k));
    key_types_.push_back(in.field(i).type);
    schema_.AddField({k, in.field(i).type});
  }
  for (const AggSpec& a : options_.aggs) {
    TypeId input_type = TypeId::kInteger;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(size_t i, in.FieldIndex(a.input));
      input_type = in.field(i).type;
    }
    const TypeId out = agg_internal::OutputType(a.kind, input_type);
    agg_types_.push_back(input_type);
    schema_.AddField({a.output, out});
  }
  return Status::OK();
}

Status HashAggregate::Consume(Operator* input, Partial* out) const {
  const Schema& in = input->output_schema();
  std::vector<size_t> key_idx;
  for (const std::string& k : options_.group_by) {
    TDE_ASSIGN_OR_RETURN(size_t i, in.FieldIndex(k));
    key_idx.push_back(i);
  }
  std::vector<size_t> agg_idx;
  for (const AggSpec& a : options_.aggs) {
    size_t i = 0;
    if (a.kind != AggKind::kCountStar) {
      TDE_ASSIGN_OR_RETURN(i, in.FieldIndex(a.input));
    }
    agg_idx.push_back(i);
  }
  const size_t naggs = agg_idx.size();
  GroupIndex index(options_, key_types_, /*merging=*/false);
  out->agg_heaps.assign(naggs, nullptr);
  out->states.assign(index.groups() * naggs, AggState{});

  // The update loop below runs once per (row, aggregate): keep its operands
  // in flat arrays instead of chasing options_/schema indirections per row.
  std::vector<AggKind> agg_kinds(naggs);
  for (size_t a = 0; a < naggs; ++a) agg_kinds[a] = options_.aggs[a].kind;
  std::vector<const Lane*> agg_lanes(naggs, nullptr);
  std::vector<uint32_t> gids;  // per-block row -> group id

  while (true) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(input->Next(&b, &eos));
    if (eos) break;
    const size_t n = b.rows();
    for (size_t a = 0; a < naggs; ++a) {
      if (out->agg_heaps[a] == nullptr && agg_kinds[a] != AggKind::kCountStar) {
        out->agg_heaps[a] = b.columns[agg_idx[a]].heap;
      }
      agg_lanes[a] = agg_kinds[a] == AggKind::kCountStar
                         ? nullptr
                         : b.columns[agg_idx[a]].lanes.data();
    }
    // Group resolution and aggregate updates run column-at-a-time: resolve
    // every row's group first, then fold each aggregate input with a single
    // kind/type dispatch for the block.
    if (gids.size() < n) gids.resize(n);
    index.Resolve(b, key_idx, n, gids.data());
    out->states.resize(index.groups() * naggs);
    for (size_t a = 0; a < naggs; ++a) {
      agg_internal::UpdateColumn(agg_kinds[a], agg_types_[a], agg_lanes[a],
                                 gids.data(), n, naggs, out->states.data() + a,
                                 out->agg_heaps[a].get());
    }
  }
  out->groups = index.groups();
  out->late = index.Finish(&out->keys, &out->key_heaps);
  out->algorithm = index.algorithm();
  return Status::OK();
}

void HashAggregate::Merge(std::vector<Partial>* parts,
                          std::vector<AggState*>* homes) const {
  const size_t nkeys = key_types_.size();
  const size_t naggs = agg_types_.size();
  std::vector<std::shared_ptr<const StringHeap>> agg_heaps(naggs);
  for (const Partial& p : *parts) {
    for (size_t a = 0; a < naggs; ++a) {
      if (agg_heaps[a] == nullptr) agg_heaps[a] = p.agg_heaps[a];
    }
  }
  GroupIndex index(options_, key_types_, /*merging=*/true);
  std::vector<size_t> key_idx(nkeys);
  for (size_t k = 0; k < nkeys; ++k) key_idx[k] = k;
  std::vector<uint32_t> gids;
  bool late = false;
  homes->clear();
  for (Partial& p : *parts) {
    // The partial's groups are the rows: its keys, in its group order.
    Block b;
    b.columns.resize(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      b.columns[k].type = key_types_[k];
      b.columns[k].heap = p.key_heaps[k];
      b.columns[k].lanes = std::move(p.keys[k]);
    }
    gids.resize(p.groups);
    index.Resolve(b, key_idx, p.groups, gids.data());
    for (uint64_t g = 0; g < p.groups; ++g) {
      AggState* from = &p.states[g * naggs];
      if (gids[g] == homes->size()) {
        // A group first seen here: its states stay where they are.
        homes->push_back(from);
        continue;
      }
      AggState* into = (*homes)[gids[g]];
      for (size_t a = 0; a < naggs; ++a) {
        agg_internal::Merge(options_.aggs[a].kind, agg_types_[a], into + a,
                            from + a, agg_heaps[a].get());
      }
    }
    late = late || p.late;
  }
  // The partials' grouping, as decided by the first one that saw rows.
  HashAlgorithm algorithm = parts->front().algorithm;
  for (const Partial& p : *parts) {
    if (p.groups == 0) continue;
    algorithm = p.algorithm;
    break;
  }
  Partial& out = parts->front();
  out.groups = index.groups();
  index.Finish(&out.keys, &out.key_heaps);
  out.agg_heaps = std::move(agg_heaps);
  out.late = late;
  out.algorithm = algorithm;
}

Status HashAggregate::RunMorsels(std::vector<Partial>* parts) {
  const size_t n = inputs_.size();
  // The first input opens here, before any task runs: what its Open builds
  // for every morsel (a shared join build, a segmented column's code
  // table) is built before the other morsels start, and its schema is the
  // output's.
  TDE_RETURN_NOT_OK(inputs_[0]->Open());
  if (Status st = BuildSchema(); !st.ok()) {
    inputs_[0]->Close();
    return st;
  }
  parts->resize(n);
  std::vector<Status> errors(n);
  std::vector<char> ran(n, 0);
  std::vector<std::thread::id> threads(n);
  std::vector<uint64_t> task_ns(n, 0);
  std::vector<uint64_t> cpu_ns(n, 0);
  std::shared_ptr<TaskScheduler::Group> group =
      TaskScheduler::Global().CreateGroup();
  TaskScheduler::Group* raw = group.get();
  const uint64_t t0 = NowNs();
  for (size_t m = 0; m < n; ++m) {
    group->Submit([&, m, raw] {
      const uint64_t start = NowNs();
      const uint64_t cpu_start = observe::ThreadCpuNs();
      ran[m] = 1;
      threads[m] = std::this_thread::get_id();
      Operator* input = inputs_[m].get();
      Status st = m == 0 ? Status::OK() : input->Open();
      if (st.ok()) st = Consume(input, &(*parts)[m]);
      input->Close();
      if (!st.ok()) {
        errors[m] = std::move(st);
        raw->Cancel();  // retire the morsels still queued
      }
      task_ns[m] = NowNs() - start;
      cpu_ns[m] = observe::ThreadCpuNs() - cpu_start;
    });
  }
  group->Wait();
  morsel_wall_ns_ = NowNs() - t0;
  if (!ran[0]) inputs_[0]->Close();  // cancelled after its Open above
  std::vector<std::thread::id> distinct;
  morsel_task_ns_ = 0;
  morsel_cpu_ns_ = 0;
  for (size_t m = 0; m < n; ++m) {
    morsel_task_ns_ += task_ns[m];
    morsel_cpu_ns_ += cpu_ns[m];
    if (ran[m] &&
        std::find(distinct.begin(), distinct.end(), threads[m]) ==
            distinct.end()) {
      distinct.push_back(threads[m]);
    }
  }
  morsel_threads_ = distinct.size();
  for (const Status& st : errors) TDE_RETURN_NOT_OK(st);
  return Status::OK();
}

Status HashAggregate::Open() {
  const size_t naggs = options_.aggs.size();
  std::vector<Partial> parts(1);
  // Each output group's states, in group order: [homes[g], homes[g] +
  // naggs).
  std::vector<AggState*> homes;
  if (inputs_.size() == 1) {
    Operator* input = inputs_[0].get();
    TDE_RETURN_NOT_OK(input->Open());
    TDE_RETURN_NOT_OK(BuildSchema());
    TDE_RETURN_NOT_OK(Consume(input, &parts[0]));
    input->Close();
    homes.resize(parts[0].groups);
    for (uint64_t g = 0; g < parts[0].groups; ++g) {
      homes[g] = &parts[0].states[g * naggs];
    }
  } else {
    TDE_RETURN_NOT_OK(RunMorsels(&parts));
    Merge(&parts, &homes);
  }
  Partial& result = parts.front();
  groups_ = result.groups;
  algorithm_used_ = result.algorithm;
  groups_late_materialized_ = result.late ? groups_ : 0;
  out_keys_ = std::move(result.keys);
  key_heaps_ = std::move(result.key_heaps);
  agg_heaps_ = std::move(result.agg_heaps);
  out_aggs_.assign(naggs, {});
  for (size_t a = 0; a < naggs; ++a) {
    out_aggs_[a].resize(groups_);
    for (uint64_t g = 0; g < groups_; ++g) {
      TDE_ASSIGN_OR_RETURN(
          out_aggs_[a][g],
          agg_internal::Finalize(options_.aggs[a].kind, agg_types_[a],
                                 homes[g] + a, agg_heaps_[a].get()));
    }
  }
  emit_ = 0;
  return Status::OK();
}

Status HashAggregate::Next(Block* block, bool* eos) {
  block->columns.clear();
  if (emit_ >= groups_) {
    *eos = true;
    return Status::OK();
  }
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(kBlockSize, groups_ - emit_));
  for (size_t k = 0; k < out_keys_.size(); ++k) {
    ColumnVector cv;
    cv.type = key_types_[k];
    cv.heap = key_heaps_[k];
    cv.lanes.assign(out_keys_[k].begin() + static_cast<ptrdiff_t>(emit_),
                    out_keys_[k].begin() + static_cast<ptrdiff_t>(emit_ + take));
    block->columns.push_back(std::move(cv));
  }
  for (size_t a = 0; a < out_aggs_.size(); ++a) {
    ColumnVector cv;
    cv.type = schema_.field(out_keys_.size() + a).type;
    if (cv.type == TypeId::kString) cv.heap = agg_heaps_[a];
    cv.lanes.assign(out_aggs_[a].begin() + static_cast<ptrdiff_t>(emit_),
                    out_aggs_[a].begin() + static_cast<ptrdiff_t>(emit_ + take));
    block->columns.push_back(std::move(cv));
  }
  emit_ += take;
  *eos = false;
  return Status::OK();
}

}  // namespace tde
