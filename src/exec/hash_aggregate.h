#ifndef TDE_EXEC_HASH_AGGREGATE_H_
#define TDE_EXEC_HASH_AGGREGATE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/exec/block.h"
#include "src/storage/heap_accelerator.h"

namespace tde {

/// Aggregate functions. COUNTD and MEDIAN are the functions Tableau
/// extracts exist to supplement (Sect. 2.2).
enum class AggKind {
  kCountStar,
  kCount,   // non-NULL inputs
  kSum,
  kMin,
  kMax,
  kAvg,
  kCountDistinct,
  kMedian,
};

struct AggSpec {
  AggKind kind;
  std::string input;   // ignored for kCountStar
  std::string output;
};

/// A group key's id domain as lowering knows it from metadata: the key's
/// non-NULL ids lie in [lo, lo + span) (span 0 = unknown). A key's ids are
/// its lanes; a dictionary-code key's are its codes, whose span the
/// operator takes from the entry table instead.
struct KeyDomain {
  int64_t lo = 0;
  uint64_t span = 0;
};

/// Slots of the composite direct group index over keys whose ids span
/// `spans` (each key gets one more id, for NULL), or 0 when a span is
/// unknown or the product exceeds the paper's 2^16-slot direct table
/// (Sect. 2.3.4).
uint64_t CompositeSlots(const std::vector<uint64_t>& spans);

struct AggregateOptions {
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
  /// Tactical hint for single-key grouping: the hash algorithm chosen from
  /// the key column's width and range metadata (Sect. 2.3.4). Unset =
  /// collision hashing. A perfect hash spans key_domains[0].
  std::optional<HashAlgorithm> hash_algorithm;
  /// Dictionary-code grouping: string group keys are translated per heap
  /// into dense first-occurrence codes and grouped on those, so the key
  /// strings materialize once per *group* at finalize instead of once per
  /// row. Cleared when StrategicOptions::enable_dict_grouping is off.
  bool dict_code_keys = true;
  /// Each group key's id domain (missing or span 0 = unknown). One key's
  /// perfect hash spans it; for several keys, when every key grouped on
  /// its lanes or codes has one and CompositeSlots fits, a group is found
  /// by the mixed-radix sum of its keys' ids in a direct table instead of
  /// by hashing the key tuple.
  std::vector<KeyDomain> key_domains;
};

/// COUNTD's distinct lanes: open addressing over one flat array, so a
/// group's set is built, merged and freed without an allocation per value
/// (a morsel's partial holds one per group). NULL (kNullSentinel) never
/// enters it — aggregates skip NULL inputs — and marks empty slots.
class DistinctSet {
 public:
  void insert(Lane v) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(Mix64(static_cast<uint64_t>(v))) & mask;
    while (slots_[i] != kNullSentinel) {
      if (slots_[i] == v) return;
      i = (i + 1) & mask;
    }
    slots_[i] = v;
    ++size_;
  }
  /// Adds every value of `other`.
  void merge(const DistinctSet& other) {
    other.ForEach([this](Lane v) { insert(v); });
  }
  /// Calls f(v) for every value held.
  template <typename F>
  void ForEach(F f) const {
    for (const Lane v : slots_) {
      if (v != kNullSentinel) f(v);
    }
  }
  size_t size() const { return size_; }

 private:
  void Grow() {
    std::vector<Lane> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, kNullSentinel);
    size_ = 0;
    for (const Lane v : old) {
      if (v != kNullSentinel) insert(v);
    }
  }

  std::vector<Lane> slots_;  // power-of-two size, at most half full
  size_t size_ = 0;
};

/// Integer SUM's state: the exact running total and the lowest and highest
/// values it took after any row (0 before the first). The sum overflows
/// when that range leaves int64 — exactly when a row-order fold meets its
/// first overflowing prefix —, and states of consecutive row ranges merge
/// into the same range (agg_internal::Merge). `n` counts the non-NULL
/// inputs, so an all-NULL group sums to NULL.
struct IntSum {
  __int128 total = 0;
  __int128 low = 0;
  __int128 high = 0;
  uint64_t n = 0;
};

/// Real SUM's and AVG's state.
struct RealSum {
  double sum = 0;
  uint64_t n = 0;
};

/// The states of one aggregate for every group, laid out by its kind:
/// COUNT(*) and COUNT keep a count, real SUM and AVG a RealSum, integer
/// SUM an IntSum, MIN and MAX the best lane so far (kNullSentinel until a
/// value arrives), COUNTD a DistinctSet and MEDIAN a value vector (their
/// storage out of line). Only the kind's array is allocated, so a fold
/// touches nothing but its own state. The hash, ordered and run-fold
/// aggregates all fold through the agg_internal kernels below.
///
/// String values (MIN, MAX, COUNTD, MEDIAN over strings) are tokens of
/// heap(). That is the first input heap, adopted as is while every value
/// comes from it — a stored column's heap, which holds each string once —,
/// so such inputs pay nothing. A value from another heap (another morsel's
/// partial), or from a heap that may repeat a string (strings computed per
/// block), makes the states own a heap: the values held so far move into
/// it, and a later value enters it, each string stored once, only when the
/// state keeps it (a MIN/MAX winner, a COUNTD value, every MEDIAN value).
struct AggStates {
  AggStates() = default;
  AggStates(AggKind kind, TypeId type, size_t groups = 0);
  AggStates(AggStates&&) = default;
  AggStates& operator=(AggStates&&) = default;

  /// Grows (or shrinks) to `groups`; new groups start empty.
  void Resize(size_t groups);
  /// Empties group g's state (the heap is kept).
  void Reset(size_t g);
  /// The heap string values resolve against (null until one arrives).
  const std::shared_ptr<const StringHeap>& heap() const { return heap_; }

  AggKind kind = AggKind::kCountStar;
  TypeId type = TypeId::kInteger;
  std::vector<uint64_t> counts;             // COUNT(*), COUNT
  std::vector<RealSum> reals;               // real SUM, AVG
  std::vector<IntSum> ints;                 // integer SUM
  std::vector<Lane> extremes;               // MIN, MAX
  std::vector<DistinctSet> distinct;        // COUNTD
  std::vector<std::vector<Lane>> values;    // MEDIAN

  /// Whether this aggregate's values are heap tokens.
  bool strings() const;
  /// Whether tokens of heap `h` compare with the held ones as they are:
  /// adopts `h` if no heap is set yet. When they do not, the states move
  /// to a heap of their own (once), and the caller brings in each value it
  /// keeps through Intern.
  bool SameHeap(const std::shared_ptr<const StringHeap>& h);
  /// Copies the string of `token` (of heap `h`) into the owned heap, once
  /// per distinct string, and returns its token there.
  Lane Intern(const StringHeap& h, Lane token);

 private:
  /// Calls f(the kind's state array, an empty state).
  template <typename F>
  void ForKind(F f);
  /// Moves the states to a heap of their own, collated like `like`.
  void Own(const StringHeap& like);

  std::shared_ptr<const StringHeap> heap_;
  std::unique_ptr<HeapAccelerator> dedup_;  // into heap_, once owned
};

/// Folds input lanes into states, merges states and finalizes them: the
/// one kernel set of the hash, ordered and run-fold aggregates. Folding
/// never fails: an integer SUM's overflow is Finalize's verdict, the one
/// place that reports it. `heap` is the input block's string heap (null
/// for non-string inputs).
namespace agg_internal {
/// Folds `v[r]` into group `g[r]`'s state for all `n` rows with one
/// kind/type dispatch for the whole column. `v` may be null for COUNT(*).
/// Row order matches n row-at-a-time folds.
void UpdateColumn(AggStates* s, const Lane* v, const uint32_t* g, size_t n,
                  const std::shared_ptr<const StringHeap>& heap = nullptr);
/// Folds one value into group g.
void Update(AggStates* s, size_t g, Lane v,
            const std::shared_ptr<const StringHeap>& heap = nullptr);
/// Folds `count` copies of `v` into group g in O(1) (SUM adds v*count,
/// COUNT adds count, MIN/MAX/COUNTD see the value once). MEDIAN
/// degenerates to O(count).
void UpdateRun(AggStates* s, size_t g, Lane v, uint64_t count,
               const std::shared_ptr<const StringHeap>& heap = nullptr);
/// True when UpdateRun is O(1) for this kind.
bool FoldableOverRuns(AggKind kind);
/// Folds `from`'s group gf, the state of rows that follow `into`'s group
/// gi in row order, into it: counts and sums add (AVG adds its sum and
/// count), MIN/MAX compare under the input's semantics (collated strings),
/// COUNTD takes the union, MEDIAN concatenates, and an integer SUM's
/// running-total range shifts by `into`'s total. `from`'s group is left
/// unspecified.
void Merge(AggStates* into, size_t gi, AggStates* from, size_t gf);
/// Group g's value (a string result is a token of s->heap()); fails for
/// an integer SUM whose running total left int64.
Result<Lane> Finalize(AggStates* s, size_t g);
/// Gives string results one heap: `(*tokens)[i]` resolves against
/// `heaps[i]` (NULLs against none). Returns the heap they share, or moves
/// them into a new heap that holds each string once — results of states
/// that ended on different heaps (strings computed per block).
std::shared_ptr<const StringHeap> OneHeap(
    std::vector<Lane>* tokens,
    const std::vector<std::shared_ptr<const StringHeap>>& heaps);
TypeId OutputType(AggKind kind, TypeId input_type);
}  // namespace agg_internal

/// Per-heap translation cache mapping string-key tokens to dense codes
/// assigned in first-occurrence order (NULL gets a code of its own), so a
/// single grouping key's code IS its group id. While every input block
/// shares one heap — the common case, since scans attach the column heap to
/// each block — no string is ever decoded; if a second heap appears the
/// cache re-keys itself onto a canonical heap, decoding one string per
/// distinct value, and keeps going.
class StringKeyNormalizer {
 public:
  /// Dense code for `token` resolved against `heap`. Equal strings map to
  /// equal codes across heaps; kNullSentinel consistently maps to one code.
  uint32_t Code(const std::shared_ptr<const StringHeap>& heap, Lane token);

  /// The token (or kNullSentinel) that renders code `c` against emit_heap().
  Lane Token(uint32_t c) const { return code_tokens_[c]; }

  /// Heap the emitted group keys resolve against: the original input heap
  /// while only one heap has been seen, a canonical first-seen-order heap
  /// after that.
  std::shared_ptr<const StringHeap> emit_heap() const;

  uint32_t distinct() const {
    return static_cast<uint32_t>(code_tokens_.size());
  }

 private:
  struct HeapCache {
    const StringHeap* raw = nullptr;
    std::shared_ptr<const StringHeap> keep;       // pins pointer identity
    LazySlots direct;                             // token offset -> code + 1
    std::unordered_map<Lane, uint32_t> spill;     // oversized heaps
    bool use_direct = true;
  };

  HeapCache* CacheFor(const std::shared_ptr<const StringHeap>& heap);
  uint32_t Assign(HeapCache* hc, Lane token);

  std::vector<std::unique_ptr<HeapCache>> heaps_;
  HeapCache* last_ = nullptr;
  std::vector<Lane> code_tokens_;                 // code -> emit-heap token
  std::shared_ptr<StringHeap> canon_;             // owned once >1 heap seen
  std::unordered_map<std::string, uint32_t> code_by_string_;  // canon mode
  uint32_t null_code_ = UINT32_MAX;               // unassigned until seen
};

/// Stop-and-go hash aggregation over one or more input pipelines. The
/// group map for single-key grouping is chosen tactically: direct table
/// for narrow keys, perfect hash when the key range is known and small,
/// collision hashing otherwise. String keys group on dictionary codes (see
/// StringKeyNormalizer) unless disabled.
///
/// A serial plan has one input. Morsel-parallel aggregation (DESIGN.md
/// "Morsel-parallel aggregation") passes one input per segment morsel, in
/// row order: each is opened, drained into its own partial aggregate and
/// closed as one task of a TaskScheduler group (the calling thread helps
/// through Group::Wait), and the partials then merge in input order, so
/// groups come out in the same first-occurrence order as the serial
/// operator's. The first input opens on the calling thread before the
/// others are dispatched, so per-query work its Open triggers (a shared
/// join build, a segmented column's code table) is done before the other
/// morsels start. A failing input's Status is the query's, and its queued
/// siblings are cancelled.
class HashAggregate : public Operator {
 public:
  HashAggregate(std::unique_ptr<Operator> child, AggregateOptions options);
  HashAggregate(std::vector<std::unique_ptr<Operator>> inputs,
                AggregateOptions options);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  const Schema& output_schema() const override { return schema_; }

  HashAlgorithm algorithm_used() const { return algorithm_used_; }
  /// Groups whose key strings were materialized at finalize rather than
  /// compared per row; 0 when dictionary-code grouping did not engage.
  uint64_t groups_late_materialized() const {
    return groups_late_materialized_;
  }

  /// Inputs aggregated (1 for a serial plan).
  size_t morsels() const { return inputs_.size(); }
  /// For more than one input, valid after Open: the distinct threads that
  /// ran the inputs' tasks; the tasks' wall time from start to end, summed
  /// (each task covers its whole pipeline); the same tasks' thread CPU
  /// time, summed (without time descheduled or blocked); and the wall
  /// time from dispatch until the last task finished.
  uint64_t morsel_threads() const { return morsel_threads_; }
  uint64_t morsel_task_ns() const { return morsel_task_ns_; }
  uint64_t morsel_cpu_ns() const { return morsel_cpu_ns_; }
  uint64_t morsel_wall_ns() const { return morsel_wall_ns_; }

 private:
  struct Partial;

  Status BuildSchema();
  /// Drains the opened `input` into `out` (one partial aggregate).
  Status Consume(Operator* input, Partial* out) const;
  /// Runs every input as one task, into one partial each.
  Status RunMorsels(std::vector<Partial>* parts);
  /// Where an output group's states live: group `group` of partial
  /// `part`.
  struct Home {
    uint32_t part;
    uint32_t group;
  };
  /// Merges `parts` (in row order) into the first: its keys become every
  /// partial's groups in first-occurrence order, and `homes[g]` names
  /// group g's states — those of the first partial that saw it, into
  /// which later partials' states for g fold. No state moves, so a
  /// near-unique grouping merges at the cost of its keys.
  void Merge(std::vector<Partial>* parts, std::vector<Home>* homes) const;

  std::vector<std::unique_ptr<Operator>> inputs_;
  AggregateOptions options_;
  Schema schema_;
  HashAlgorithm algorithm_used_ = HashAlgorithm::kCollision;

  // Results, emitted in group order after the build.
  std::vector<std::vector<Lane>> out_keys_;     // [key][group]
  std::vector<std::vector<Lane>> out_aggs_;     // [agg][group]
  std::vector<std::shared_ptr<const StringHeap>> key_heaps_;
  std::vector<std::shared_ptr<const StringHeap>> agg_heaps_;
  std::vector<TypeId> key_types_;
  std::vector<TypeId> agg_types_;
  uint64_t emit_ = 0;
  uint64_t groups_ = 0;
  uint64_t groups_late_materialized_ = 0;
  uint64_t morsel_threads_ = 0;
  uint64_t morsel_task_ns_ = 0;
  uint64_t morsel_cpu_ns_ = 0;
  uint64_t morsel_wall_ns_ = 0;
};

}  // namespace tde

#endif  // TDE_EXEC_HASH_AGGREGATE_H_
