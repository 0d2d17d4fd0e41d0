#include "src/exec/hash_aggregate.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <thread>

#include "src/exec/scheduler.h"
#include "src/observe/journal.h"

namespace tde {

namespace {
double AsReal(Lane v) { return std::bit_cast<double>(static_cast<uint64_t>(v)); }
Lane RealLane(double d) { return static_cast<Lane>(std::bit_cast<uint64_t>(d)); }

Status SumOverflow() {
  return Status::OutOfRange("integer overflow in SUM: result exceeds int64");
}

/// Three-way comparison of two input lanes under the input's semantics:
/// collated text for string tokens of one heap (O(1) on a sorted heap),
/// double for reals, raw int64 otherwise.
int CompareLanes(TypeId type, const StringHeap* heap, Lane a, Lane b) {
  if (type == TypeId::kString && heap != nullptr) {
    return heap->CompareTokens(a, b);
  }
  if (type == TypeId::kReal) {
    return CompareReals(AsReal(a), AsReal(b));
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Adds `delta` to an integer SUM's running total and widens the range of
/// values the total has taken (an addition can only lower the low end or
/// raise the high one). 128 bits cannot overflow (2^63 rows of 2^63 each);
/// only the range decides overflow, at Finalize.
void AddToSum(IntSum* s, __int128 delta) {
  s->total += delta;
  if (delta < 0) {
    if (s->total < s->low) s->low = s->total;
  } else if (s->total > s->high) {
    s->high = s->total;
  }
}

/// MIN/MAX's verdict: whether `c` (a three-way comparison of the new value
/// with the held one) replaces it. Ties keep the earlier value.
bool Wins(AggKind kind, int c) { return kind == AggKind::kMin ? c < 0 : c > 0; }
}  // namespace

AggStates::AggStates(AggKind k, TypeId t, size_t groups) : kind(k), type(t) {
  Resize(groups);
}

bool AggStates::strings() const {
  return type == TypeId::kString &&
         (kind == AggKind::kMin || kind == AggKind::kMax ||
          kind == AggKind::kCountDistinct || kind == AggKind::kMedian);
}

template <typename F>
void AggStates::ForKind(F f) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return f(counts, uint64_t{0});
    case AggKind::kSum:
      if (type != TypeId::kReal) return f(ints, IntSum{});
      return f(reals, RealSum{});
    case AggKind::kAvg:
      return f(reals, RealSum{});
    case AggKind::kMin:
    case AggKind::kMax:
      return f(extremes, kNullSentinel);
    case AggKind::kCountDistinct:
      return f(distinct, DistinctSet{});
    case AggKind::kMedian:
      return f(values, std::vector<Lane>{});
  }
}

void AggStates::Resize(size_t groups) {
  ForKind([&](auto& states, const auto& empty) {
    states.resize(groups, empty);
  });
}

void AggStates::Reset(size_t g) {
  ForKind([&](auto& states, const auto& empty) { states[g] = empty; });
}

bool AggStates::SameHeap(const std::shared_ptr<const StringHeap>& h) {
  if (h == nullptr || h.get() == heap_.get()) return true;
  if (heap_ == nullptr && !h->may_repeat()) {
    heap_ = h;
    return true;
  }
  if (dedup_ == nullptr) Own(heap_ != nullptr ? *heap_ : *h);
  return false;
}

void AggStates::Own(const StringHeap& like) {
  auto owned = std::make_shared<StringHeap>(like.collation());
  dedup_ = std::make_unique<HeapAccelerator>(owned.get());
  const std::shared_ptr<const StringHeap> old = std::move(heap_);
  heap_ = std::move(owned);
  if (old == nullptr) return;  // nothing held yet
  // The values held so far move over, one copy per distinct string; equal
  // strings that held different tokens become one.
  const auto move = [&](Lane t) {
    return t == kNullSentinel ? t : Intern(*old, t);
  };
  for (Lane& v : extremes) v = move(v);
  for (std::vector<Lane>& vs : values) {
    for (Lane& v : vs) v = move(v);
  }
  for (DistinctSet& d : distinct) {
    DistinctSet moved;
    d.ForEach([&](Lane v) { moved.insert(move(v)); });
    d = std::move(moved);
  }
}

Lane AggStates::Intern(const StringHeap& h, Lane token) {
  return dedup_->Add(h.Get(token));
}

namespace agg_internal {

namespace {
/// The string kinds' fold of one value of heap `heap` into group g, when
/// that heap is not the states' own: the comparison crosses heaps by
/// collated text, and only a value the state keeps is copied in.
void UpdateForeign(AggStates* s, size_t g, Lane v, const StringHeap& heap) {
  switch (s->kind) {
    case AggKind::kMin:
    case AggKind::kMax: {
      Lane& cur = s->extremes[g];
      if (cur == kNullSentinel ||
          Wins(s->kind, Collate(heap.collation(), heap.Get(v),
                                s->heap()->Get(cur)))) {
        cur = s->Intern(heap, v);
      }
      break;
    }
    case AggKind::kCountDistinct:
      s->distinct[g].insert(s->Intern(heap, v));
      break;
    case AggKind::kMedian:
      s->values[g].push_back(s->Intern(heap, v));
      break;
    default:
      break;
  }
}
}  // namespace

void UpdateColumn(AggStates* s, const Lane* v, const uint32_t* g, size_t n,
                  const std::shared_ptr<const StringHeap>& heap) {
  if (s->strings() && !s->SameHeap(heap)) {
    for (size_t r = 0; r < n; ++r) {
      if (v[r] != kNullSentinel) UpdateForeign(s, g[r], v[r], *heap);
    }
    return;
  }
  switch (s->kind) {
    case AggKind::kCountStar:
      for (size_t r = 0; r < n; ++r) ++s->counts[g[r]];
      return;
    case AggKind::kCount:
      for (size_t r = 0; r < n; ++r) {
        if (v[r] != kNullSentinel) ++s->counts[g[r]];
      }
      return;
    case AggKind::kSum:
      if (s->type == TypeId::kReal) {
        for (size_t r = 0; r < n; ++r) {
          if (v[r] == kNullSentinel) continue;
          RealSum& st = s->reals[g[r]];
          st.sum += AsReal(v[r]);
          ++st.n;
        }
      } else {
        for (size_t r = 0; r < n; ++r) {
          if (v[r] == kNullSentinel) continue;
          IntSum& st = s->ints[g[r]];
          AddToSum(&st, v[r]);
          ++st.n;
        }
      }
      return;
    case AggKind::kAvg:
      for (size_t r = 0; r < n; ++r) {
        if (v[r] == kNullSentinel) continue;
        RealSum& st = s->reals[g[r]];
        st.sum += s->type == TypeId::kReal ? AsReal(v[r])
                                           : static_cast<double>(v[r]);
        ++st.n;
      }
      return;
    case AggKind::kMin:
    case AggKind::kMax: {
      const StringHeap* h = s->heap().get();
      for (size_t r = 0; r < n; ++r) {
        if (v[r] == kNullSentinel) continue;
        Lane& cur = s->extremes[g[r]];
        if (cur == kNullSentinel ||
            Wins(s->kind, CompareLanes(s->type, h, v[r], cur))) {
          cur = v[r];
        }
      }
      return;
    }
    case AggKind::kCountDistinct:
      for (size_t r = 0; r < n; ++r) {
        if (v[r] != kNullSentinel) s->distinct[g[r]].insert(v[r]);
      }
      return;
    case AggKind::kMedian:
      for (size_t r = 0; r < n; ++r) {
        if (v[r] != kNullSentinel) s->values[g[r]].push_back(v[r]);
      }
      return;
  }
}

void Update(AggStates* s, size_t g, Lane v,
            const std::shared_ptr<const StringHeap>& heap) {
  const uint32_t group = static_cast<uint32_t>(g);
  UpdateColumn(s, &v, &group, 1, heap);
}

void UpdateRun(AggStates* s, size_t g, Lane v, uint64_t count,
               const std::shared_ptr<const StringHeap>& heap) {
  if (count == 0) return;
  if (s->kind == AggKind::kCountStar) {
    s->counts[g] += count;
    return;
  }
  if (v == kNullSentinel) return;
  switch (s->kind) {
    case AggKind::kCount:
      s->counts[g] += count;
      return;
    case AggKind::kSum:
      if (s->type == TypeId::kReal) {
        s->reals[g].sum += AsReal(v) * static_cast<double>(count);
        s->reals[g].n += count;
      } else {
        // The running totals within a run are monotonic, so their extremes
        // are its ends: one widening covers all `count` rows.
        AddToSum(&s->ints[g],
                 static_cast<__int128>(v) * static_cast<__int128>(count));
        s->ints[g].n += count;
      }
      return;
    case AggKind::kAvg:
      s->reals[g].sum +=
          (s->type == TypeId::kReal ? AsReal(v) : static_cast<double>(v)) *
          static_cast<double>(count);
      s->reals[g].n += count;
      return;
    case AggKind::kMedian:
      for (uint64_t i = 0; i < count; ++i) Update(s, g, v, heap);
      return;
    default:  // MIN, MAX, COUNTD see the value once
      Update(s, g, v, heap);
      return;
  }
}

bool FoldableOverRuns(AggKind kind) { return kind != AggKind::kMedian; }

void Merge(AggStates* into, size_t gi, AggStates* from, size_t gf) {
  if (into->strings()) {
    const std::shared_ptr<const StringHeap> fh = from->heap();
    if (!into->SameHeap(fh)) {
      // `from`'s values enter through `into`'s heap, each copied once.
      switch (from->kind) {
        case AggKind::kMin:
        case AggKind::kMax:
          if (from->extremes[gf] != kNullSentinel) {
            UpdateForeign(into, gi, from->extremes[gf], *fh);
          }
          break;
        case AggKind::kCountDistinct:
          from->distinct[gf].ForEach(
              [&](Lane v) { UpdateForeign(into, gi, v, *fh); });
          break;
        default:  // MEDIAN
          for (const Lane v : from->values[gf]) {
            UpdateForeign(into, gi, v, *fh);
          }
          break;
      }
      return;
    }
  }
  switch (into->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      into->counts[gi] += from->counts[gf];
      return;
    case AggKind::kSum:
      if (into->type != TypeId::kReal) {
        IntSum& a = into->ints[gi];
        const IntSum& b = from->ints[gf];
        // `from`'s running totals start where `into`'s total ends.
        a.low = std::min(a.low, a.total + b.low);
        a.high = std::max(a.high, a.total + b.high);
        a.total += b.total;
        a.n += b.n;
        return;
      }
      [[fallthrough]];
    case AggKind::kAvg:
      into->reals[gi].sum += from->reals[gf].sum;
      into->reals[gi].n += from->reals[gf].n;
      return;
    case AggKind::kMin:
    case AggKind::kMax: {
      const Lane v = from->extremes[gf];
      Lane& cur = into->extremes[gi];
      if (v != kNullSentinel &&
          (cur == kNullSentinel ||
           Wins(into->kind,
                CompareLanes(into->type, into->heap().get(), v, cur)))) {
        cur = v;
      }
      return;
    }
    case AggKind::kCountDistinct:
      if (into->distinct[gi].size() == 0) {
        std::swap(into->distinct[gi], from->distinct[gf]);
      } else {
        into->distinct[gi].merge(from->distinct[gf]);
      }
      return;
    case AggKind::kMedian: {
      std::vector<Lane>& a = into->values[gi];
      std::vector<Lane>& b = from->values[gf];
      if (a.empty()) {
        a.swap(b);
      } else {
        a.insert(a.end(), b.begin(), b.end());
      }
      return;
    }
  }
}

Result<Lane> Finalize(AggStates* s, size_t g) {
  switch (s->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return static_cast<Lane>(s->counts[g]);
    case AggKind::kSum:
      if (s->type == TypeId::kReal) {
        return s->reals[g].n == 0 ? kNullSentinel : RealLane(s->reals[g].sum);
      } else {
        const IntSum& st = s->ints[g];
        if (st.n == 0) return kNullSentinel;
        // Some row-order prefix of the sum left int64: the fold's first
        // overflow.
        if (st.low < INT64_MIN || st.high > INT64_MAX) return SumOverflow();
        return static_cast<Lane>(st.total);
      }
    case AggKind::kMin:
    case AggKind::kMax:
      return s->extremes[g];
    case AggKind::kAvg: {
      const RealSum& st = s->reals[g];
      return st.n == 0 ? kNullSentinel
                       : RealLane(st.sum / static_cast<double>(st.n));
    }
    case AggKind::kCountDistinct:
      return static_cast<Lane>(s->distinct[g].size());
    case AggKind::kMedian: {
      std::vector<Lane>& vs = s->values[g];
      if (vs.empty()) return kNullSentinel;
      const size_t mid = (vs.size() - 1) / 2;
      const StringHeap* h = s->heap().get();
      std::nth_element(vs.begin(), vs.begin() + static_cast<ptrdiff_t>(mid),
                       vs.end(), [&](Lane a, Lane b) {
                         return CompareLanes(s->type, h, a, b) < 0;
                       });
      return vs[mid];
    }
  }
  return kNullSentinel;
}

std::shared_ptr<const StringHeap> OneHeap(
    std::vector<Lane>* tokens,
    const std::vector<std::shared_ptr<const StringHeap>>& heaps) {
  std::shared_ptr<const StringHeap> shared;
  bool one = true;
  for (size_t i = 0; i < tokens->size() && one; ++i) {
    if ((*tokens)[i] == kNullSentinel) continue;
    if (shared == nullptr) shared = heaps[i];
    one = heaps[i] == shared;
  }
  if (one) return shared;
  auto heap = std::make_shared<StringHeap>(shared->collation());
  HeapAccelerator dedup(heap.get());
  for (size_t i = 0; i < tokens->size(); ++i) {
    Lane& t = (*tokens)[i];
    if (t != kNullSentinel) t = dedup.Add(heaps[i]->Get(t));
  }
  return heap;
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

uint64_t CompositeSlots(const std::vector<uint64_t>& spans) {
  constexpr uint64_t kDirectSlots = uint64_t{1} << 16;
  uint64_t slots = 1;
  for (const uint64_t span : spans) {
    if (span == 0 || span >= kDirectSlots) return 0;
    slots *= span + 1;  // one more id for NULL
    if (slots > kDirectSlots) return 0;
  }
  return slots;
}

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
  if (canon_ == nullptr && (!heaps_.empty() || heap->may_repeat())) {
    // A second heap, or one that may hold a string twice: a token no
    // longer names one string. Re-key every code onto a canonical heap
    // (first-seen order) — one decode per distinct value so far, none per
    // row — and find later codes by their text.
    const StringHeap& first = heaps_.empty() ? *heap : *heaps_[0]->keep;
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
///
/// One key groups through its dictionary codes, its normalizer codes or
/// the tactical GroupMap. Several keys group through the composite direct
/// index when each has a dense id with a bound known before its first
/// row — a dictionary code (bound: the entry table) or, for a key grouped
/// on its lanes, the lane's offset from its metadata range
/// (AggregateOptions::key_domains) — and the product of the bounds, plus
/// one id each for NULL, fits the 2^16-slot direct table; otherwise
/// through the collision hash of the key tuple.
/// A value outside its metadata range moves the index to the tuple hash
/// for good; the groups found so far keep their ids.
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
    const bool undecided = n > 0 && nkeys_ > 0 && norm_state_[0] == -1;
    for (size_t k = 0; k < nkeys_; ++k) {
      const ColumnVector& cv = b.columns[key_idx[k]];
      if (norm_state_[k] == -1 && n > 0) {
        if (cv.dict != nullptr) {
          // Pre-coded lanes must be interpreted against the entry table
          // regardless of the dict_code_keys option — the kill switch
          // gates the plan rewrite, not this consumption.
          norm_state_[k] = 2;
          key_dicts_[k] = cv.dict;
          if (nkeys_ == 1) code_groups_[k] = LazySlots(cv.dict->values.size());
        } else {
          // A heap that may hold a string twice groups by text even with
          // dictionary grouping off: its tokens do not name strings.
          const bool on =
              key_types_[k] == TypeId::kString &&
              (merging_ ||
               (cv.heap != nullptr &&
                (options_.dict_code_keys || cv.heap->may_repeat())));
          norm_state_[k] = on ? 1 : 0;
          if (on) norms_[k] = std::make_unique<StringKeyNormalizer>();
          if (!on && nkeys_ == 1) {
            const KeyDomain d = options_.key_domains.empty()
                                    ? KeyDomain{}
                                    : options_.key_domains[0];
            single_ = std::make_unique<GroupMap>(
                algorithm_, d.lo,
                static_cast<int64_t>(static_cast<uint64_t>(d.lo) + d.span - 1));
          }
        }
      }
      if (key_heaps_[k] == nullptr) key_heaps_[k] = cv.heap;
    }
    if (undecided && nkeys_ > 1) ChooseComposite();
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
    size_t r0 = 0;  // rows before r0 are resolved
    if (composite_) {
      r0 = ResolveComposite(b, key_idx, n, gids);
      if (r0 == n) return;
      ToTupleHash();
    }
    for (size_t r = r0; r < n; ++r) {
      for (size_t k = 0; k < nkeys_; ++k) keyrow_[k] = KeyLane(b, key_idx, k, r);
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
  /// Key k of row r as the group keys hold it: a normalizer code, a
  /// pre-coded key's token (so keys are one namespace whichever index
  /// found them), or the raw lane.
  Lane KeyLane(const Block& b, const std::vector<size_t>& key_idx, size_t k,
               size_t r) {
    const ColumnVector& kv = b.columns[key_idx[k]];
    switch (norm_state_[k]) {
      case 1:
        return static_cast<Lane>(norms_[k]->Code(kv.heap, kv.lanes[r]));
      case 2:
        return key_dicts_[k]->values[static_cast<size_t>(kv.lanes[r])];
      default:
        return kv.lanes[r];
    }
  }

  /// Decided on the first block, once every key's id source is known.
  void ChooseComposite() {
    std::vector<uint64_t> spans(nkeys_, 0);
    lo_.assign(nkeys_, 0);
    for (size_t k = 0; k < nkeys_; ++k) {
      if (norm_state_[k] == 2) {
        spans[k] = key_dicts_[k]->values.size();
      } else if (norm_state_[k] == 0 && k < options_.key_domains.size()) {
        lo_[k] = options_.key_domains[k].lo;
        spans[k] = options_.key_domains[k].span;
      }
    }
    const uint64_t slots = CompositeSlots(spans);
    if (slots == 0) return;
    composite_ = true;
    algorithm_ = HashAlgorithm::kDirect;
    span_ = std::move(spans);
    stride_.assign(nkeys_, 1);
    for (size_t k = 1; k < nkeys_; ++k) {
      stride_[k] = stride_[k - 1] * static_cast<uint32_t>(span_[k - 1] + 1);
    }
    direct_ = LazySlots(static_cast<size_t>(slots));
  }

  /// The composite direct index over one block: the slot of each row is
  /// the mixed-radix sum of its keys' ids (NULL takes id span), summed a
  /// key column at a time; the last key's pass looks the groups up.
  /// Returns the rows resolved: all `n`, or those before the first row
  /// with a value outside its key's metadata range.
  size_t ResolveComposite(const Block& b, const std::vector<size_t>& key_idx,
                          size_t n, uint32_t* gids) {
    slot_.resize(n);
    for (size_t k = 0; k < nkeys_; ++k) {
      const Lane* lanes = b.columns[key_idx[k]].lanes.data();
      const uint64_t lo = static_cast<uint64_t>(lo_[k]);
      const uint64_t span = span_[k];
      const uint32_t stride = stride_[k];
      const bool last = k + 1 == nkeys_;
      for (size_t r = 0; r < n; ++r) {
        uint64_t id = static_cast<uint64_t>(lanes[r]) - lo;
        if (id >= span) {
          if (lanes[r] != kNullSentinel) {
            n = r;
            break;
          }
          id = span;
        }
        const uint32_t slot = static_cast<uint32_t>(id) * stride +
                              (k == 0 ? 0 : slot_[r]);
        if (!last) {
          slot_[r] = slot;
          continue;
        }
        uint32_t& e = direct_[slot];
        if (e == 0) {
          for (size_t j = 0; j < nkeys_; ++j) {
            keys_[j].push_back(KeyLane(b, key_idx, j, r));
          }
          e = static_cast<uint32_t>(++ngroups_);
        }
        gids[r] = e - 1;
      }
    }
    return n;
  }

  /// Leaves the composite index: the groups so far enter the tuple hash
  /// under their ids.
  void ToTupleHash() {
    composite_ = false;
    algorithm_ = HashAlgorithm::kCollision;
    direct_ = LazySlots();
    size_t size = mk_slots_.size();
    while (ngroups_ * 2 > size) size *= 2;
    Rehash(size);
  }

  static uint64_t HashKeys(const std::vector<std::vector<Lane>>& keys,
                           uint64_t gid) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::vector<Lane>& k : keys) {
      h = Mix64(h ^ static_cast<uint64_t>(k[gid]));
    }
    return h;
  }

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
        if (ngroups_ * 2 > mk_slots_.size()) {
          Rehash(mk_slots_.size() * 2);  // half full
        }
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

  void Rehash(size_t size) {
    mk_slots_.assign(size, 0);
    mk_mask_ = mk_slots_.size() - 1;
    for (uint64_t gid = 0; gid < ngroups_; ++gid) {
      uint64_t i = HashKeys(keys_, gid) & mk_mask_;
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
  std::vector<LazySlots> code_groups_;  // one pre-coded key: code -> g + 1
  std::unique_ptr<GroupMap> single_;  // tactical single raw key path
  // Composite direct index: per key the id origin, span (NULL's id) and
  // radix stride; slot -> g + 1 (at most 2^16 slots).
  bool composite_ = false;
  std::vector<int64_t> lo_;
  std::vector<uint64_t> span_;
  std::vector<uint32_t> stride_;
  LazySlots direct_;
  std::vector<uint32_t> slot_;        // per-block row -> slot
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
/// first-occurrence order (string keys as tokens of `key_heaps`) and each
/// aggregate's states for those groups.
struct HashAggregate::Partial {
  std::vector<std::vector<Lane>> keys;  // [key][group]
  std::vector<std::shared_ptr<const StringHeap>> key_heaps;
  std::vector<AggStates> aggs;
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
  out->aggs.clear();
  for (size_t a = 0; a < naggs; ++a) {
    out->aggs.emplace_back(options_.aggs[a].kind, agg_types_[a],
                           index.groups());
  }
  std::vector<uint32_t> gids;  // per-block row -> group id

  while (true) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(input->Next(&b, &eos));
    if (eos) break;
    const size_t n = b.rows();
    // Group resolution and aggregate updates run column-at-a-time: resolve
    // every row's group first, then fold each aggregate input with a single
    // kind/type dispatch for the block.
    if (gids.size() < n) gids.resize(n);
    index.Resolve(b, key_idx, n, gids.data());
    for (size_t a = 0; a < naggs; ++a) {
      AggStates& st = out->aggs[a];
      st.Resize(index.groups());
      if (st.kind == AggKind::kCountStar) {
        agg_internal::UpdateColumn(&st, nullptr, gids.data(), n);
      } else {
        const ColumnVector& cv = b.columns[agg_idx[a]];
        agg_internal::UpdateColumn(&st, cv.lanes.data(), gids.data(), n,
                                   cv.heap);
      }
    }
  }
  out->groups = index.groups();
  out->late = index.Finish(&out->keys, &out->key_heaps);
  out->algorithm = index.algorithm();
  return Status::OK();
}

void HashAggregate::Merge(std::vector<Partial>* parts,
                          std::vector<Home>* homes) const {
  const size_t nkeys = key_types_.size();
  const size_t naggs = agg_types_.size();
  GroupIndex index(options_, key_types_, /*merging=*/true);
  std::vector<size_t> key_idx(nkeys);
  for (size_t k = 0; k < nkeys; ++k) key_idx[k] = k;
  std::vector<uint32_t> gids;
  bool late = false;
  homes->clear();
  for (uint32_t pi = 0; pi < parts->size(); ++pi) {
    Partial& p = (*parts)[pi];
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
    for (uint32_t g = 0; g < p.groups; ++g) {
      if (gids[g] == homes->size()) {
        // A group first seen here: its states stay where they are.
        homes->push_back({pi, g});
        continue;
      }
      const Home home = (*homes)[gids[g]];
      Partial& into = (*parts)[home.part];
      for (size_t a = 0; a < naggs; ++a) {
        agg_internal::Merge(&into.aggs[a], home.group, &p.aggs[a], g);
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
  // Where each output group's states live, in group order.
  std::vector<Home> homes;
  if (inputs_.size() == 1) {
    Operator* input = inputs_[0].get();
    TDE_RETURN_NOT_OK(input->Open());
    TDE_RETURN_NOT_OK(BuildSchema());
    TDE_RETURN_NOT_OK(Consume(input, &parts[0]));
    input->Close();
    homes.resize(parts[0].groups);
    for (uint32_t g = 0; g < parts[0].groups; ++g) homes[g] = {0, g};
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
  out_aggs_.assign(naggs, {});
  agg_heaps_.assign(naggs, nullptr);
  for (size_t a = 0; a < naggs; ++a) {
    out_aggs_[a].resize(groups_);
    std::vector<Lane>& out = out_aggs_[a];
    for (uint64_t g = 0; g < groups_; ++g) {
      AggStates& st = parts[homes[g].part].aggs[a];
      TDE_ASSIGN_OR_RETURN(out[g],
                           agg_internal::Finalize(&st, homes[g].group));
    }
    if (schema_.field(key_types_.size() + a).type != TypeId::kString) {
      continue;
    }
    // A string result is a token of its home partial's heap.
    std::vector<std::shared_ptr<const StringHeap>> heaps(groups_);
    for (uint64_t g = 0; g < groups_; ++g) {
      heaps[g] = parts[homes[g].part].aggs[a].heap();
    }
    agg_heaps_[a] = agg_internal::OneHeap(&out, heaps);
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
