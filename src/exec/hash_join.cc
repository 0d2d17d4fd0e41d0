#include "src/exec/hash_join.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>

#include "src/common/hash.h"
#include "src/encoding/header.h"
#include "src/exec/filter.h"
#include "src/exec/scheduler.h"

namespace tde {

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();
/// Inner rows per build range: one pool task decodes and indexes, or
/// evaluates and copies, one range.
constexpr uint64_t kBuildRangeRows = 16384;
/// The widest key range a perfect-hash index spans (ChooseHashAlgorithm's
/// limit).
constexpr uint64_t kMaxPerfectSlots = uint64_t{1} << 24;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Build ranges over `rows` rows; an empty table has one, empty.
uint64_t RangeCount(uint64_t rows) {
  return std::max<uint64_t>(1, (rows + kBuildRangeRows - 1) / kBuildRangeRows);
}

/// Runs fn(i, begin, end) for every build range i of `rows` rows: one task
/// per range on the shared pool, or inline when there is one range. Adds
/// the tasks it ran to *tasks and returns the first failure.
Status RunRanges(
    uint64_t rows,
    const std::function<Status(uint64_t, uint64_t, uint64_t)>& fn,
    uint64_t* tasks) {
  const uint64_t n = RangeCount(rows);
  if (n <= 1) return fn(0, 0, rows);
  std::vector<Status> status(n);
  auto group = TaskScheduler::Global().CreateGroup();
  for (uint64_t i = 0; i < n; ++i) {
    group->Submit([&, i] {
      status[i] = fn(i, i * kBuildRangeRows,
                     std::min(rows, (i + 1) * kBuildRangeRows));
    });
  }
  group->Wait();
  *tasks += n;
  for (const Status& st : status) TDE_RETURN_NOT_OK(st);
  return Status::OK();
}

/// One inner column read range by range, its lanes as a flow operator
/// emits them: array-dictionary tokens decoded to values, string tokens
/// with their heap. A cold column stays pinned while the reader lives, and
/// the heap it hands out shares the pinned payload so it outlives eviction.
class ColumnReader {
 public:
  static Result<ColumnReader> Open(const Table& table,
                                   const std::string& name) {
    ColumnReader r;
    TDE_ASSIGN_OR_RETURN(r.col_, table.ColumnByName(name));
    TDE_ASSIGN_OR_RETURN(r.pin_, r.col_->Pin());
    if (r.col_->compression() == CompressionKind::kHeap) {
      r.heap_ = r.pin_ ? std::shared_ptr<const StringHeap>(r.pin_->heap)
                       : std::shared_ptr<const StringHeap>(r.col_,
                                                           r.col_->heap());
    } else if (r.col_->compression() == CompressionKind::kArrayDict) {
      r.dict_ =
          &(r.pin_ ? r.pin_->dict.get() : r.col_->array_dict())->values;
    }
    return r;
  }

  TypeId type() const { return col_->type(); }
  const std::shared_ptr<const StringHeap>& heap() const { return heap_; }

  /// Lanes of rows [begin, end) into `out`.
  Status Read(uint64_t begin, uint64_t end, Lane* out) const {
    if (end == begin) return Status::OK();
    TDE_RETURN_NOT_OK(col_->GetLanes(begin, end - begin, out));
    if (dict_ != nullptr) {
      for (uint64_t i = 0; i < end - begin; ++i) {
        out[i] = (*dict_)[static_cast<size_t>(out[i])];
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<Column> col_;
  std::shared_ptr<const pager::LoadedColumn> pin_;
  std::shared_ptr<const StringHeap> heap_;
  const std::vector<Lane>* dict_ = nullptr;
};

Status NotUnique() {
  return Status::InvalidArgument(
      "inner join key is not unique (many-to-one join required)");
}

}  // namespace

/// A join's key index (Sect. 2.3.4-2.3.5): inner key value -> row over
/// every row of the inner table, whatever a query's inner predicate. The
/// strategy fixes its shape: fetch arithmetic (no table at all), a slot per
/// value of the key range (direct: the 16-bit domain; perfect: the
/// column's [min, max]), or open addressing with collision detection. Range
/// tasks insert concurrently: a slot is claimed by one compare-and-swap, so
/// a key repeated anywhere in the table, in one range or in two, is seen
/// by whichever insert loses. A repeated key is chained rather than
/// rejected — which of its rows a query may join depends on that query's
/// predicate — and NULL keys are listed apart, never indexed.
class JoinKeyIndex : public TableIndex {
 public:
  static Result<std::shared_ptr<const TableIndex>> Build(
      const Table& inner, const std::string& key, JoinStrategy strategy,
      const JoinStrategyChoice& choice, uint64_t* tasks);

  /// The first row whose key is `key` (never NULL), or kNoRow.
  uint32_t Find(Lane key) const;
  /// The row after `row` holding the same key, or kNoRow.
  uint32_t Next(uint32_t row) const {
    return next_.empty() ? kNoRow : next_[row];
  }
  /// The first row of every key that two or more rows hold.
  const std::vector<uint32_t>& repeated() const { return repeated_; }
  /// The rows whose key is NULL, ascending.
  const std::vector<uint32_t>& null_rows() const { return null_rows_; }

 private:
  enum class Put { kNew, kRepeat, kOutside };
  /// Claims `key`'s slot for `row`; safe from concurrent build tasks.
  Put Insert(Lane key, uint32_t row);

  JoinStrategy strategy_ = JoinStrategy::kHashCollision;
  uint64_t rows_ = 0;
  // Fetch: row = (key - base) / delta. Direct/perfect: slot = key - base.
  int64_t base_ = 0;
  int64_t delta_ = 1;
  // Hash strategies: row + 1 per slot, 0 when empty. Zeroed by calloc, so
  // the pages a wide key range never touches cost no memory.
  std::unique_ptr<uint32_t[], decltype(&std::free)> slot_rows_{nullptr,
                                                              &std::free};
  uint64_t slots_ = 0;
  // Collision: the key per slot; kNullSentinel marks an empty slot.
  std::vector<Lane> slot_keys_;
  // Chains of repeated keys (empty when every key is held once).
  std::vector<uint32_t> next_;
  std::vector<uint32_t> repeated_;
  std::vector<uint32_t> null_rows_;
};

Result<std::shared_ptr<const TableIndex>> JoinKeyIndex::Build(
    const Table& inner, const std::string& key, JoinStrategy strategy,
    const JoinStrategyChoice& choice, uint64_t* tasks) {
  auto index = std::make_shared<JoinKeyIndex>();
  index->strategy_ = strategy;
  index->rows_ = inner.rows();
  TDE_ASSIGN_OR_RETURN(ColumnReader keys, ColumnReader::Open(inner, key));
  TDE_ASSIGN_OR_RETURN(auto col, inner.ColumnByName(key));
  const ColumnMetadata& meta = col->metadata();
  switch (strategy) {
    case JoinStrategy::kFetch:
      index->base_ = choice.fetch_base;
      index->delta_ = choice.fetch_delta;
      // Arithmetic reaches every row: only a NULL key needs the column
      // read, and only when the column may hold one.
      if (meta.null_known && !meta.has_nulls) {
        return std::shared_ptr<const TableIndex>(std::move(index));
      }
      break;
    case JoinStrategy::kHashDirect:
      index->base_ = std::numeric_limits<int16_t>::min();
      index->slots_ = uint64_t{1} << 16;
      break;
    case JoinStrategy::kHashPerfect:
      index->base_ = meta.min_value;
      index->slots_ = static_cast<uint64_t>(meta.max_value) -
                      static_cast<uint64_t>(meta.min_value) + 1;
      if (!meta.min_max_known || index->slots_ > kMaxPerfectSlots) {
        return Status::InvalidArgument(
            "perfect-hash join needs a known key range of at most 2^24 "
            "values");
      }
      break;
    case JoinStrategy::kHashCollision: {
      uint64_t capacity = 16;
      while (capacity < 2 * index->rows_) capacity *= 2;
      index->slots_ = capacity;
      index->slot_keys_.assign(capacity, kNullSentinel);
      break;
    }
  }
  if (strategy != JoinStrategy::kFetch) {
    index->slot_rows_.reset(
        static_cast<uint32_t*>(std::calloc(index->slots_, sizeof(uint32_t))));
    if (index->slot_rows_ == nullptr) {
      return Status::CapacityExceeded("join key index of " +
                                      std::to_string(index->slots_) +
                                      " slots");
    }
  }

  // Each range lists its NULL rows and the (key, row) pairs it found taken.
  struct RangeOut {
    std::vector<uint32_t> nulls;
    std::vector<std::pair<Lane, uint32_t>> repeats;
  };
  std::vector<RangeOut> outs(RangeCount(index->rows_));
  TDE_RETURN_NOT_OK(RunRanges(
      index->rows_,
      [&](uint64_t i, uint64_t begin, uint64_t end) -> Status {
        std::vector<Lane> lanes(end - begin);
        TDE_RETURN_NOT_OK(keys.Read(begin, end, lanes.data()));
        RangeOut& out = outs[i];
        for (uint64_t r = begin; r < end; ++r) {
          const Lane k = lanes[r - begin];
          if (k == kNullSentinel) {
            out.nulls.push_back(static_cast<uint32_t>(r));
          } else if (strategy != JoinStrategy::kFetch) {
            switch (index->Insert(k, static_cast<uint32_t>(r))) {
              case Put::kNew:
                break;
              case Put::kRepeat:
                out.repeats.emplace_back(k, static_cast<uint32_t>(r));
                break;
              case Put::kOutside:
                return Status::InvalidArgument(
                    "join key " + std::to_string(k) + " lies outside the " +
                    JoinStrategyName(strategy) + " key range");
            }
          }
        }
        return Status::OK();
      },
      tasks));

  // Chain every repeat behind the row that claimed its key's slot.
  for (RangeOut& out : outs) {
    index->null_rows_.insert(index->null_rows_.end(), out.nulls.begin(),
                             out.nulls.end());
    for (const auto& [k, row] : out.repeats) {
      if (index->next_.empty()) index->next_.assign(index->rows_, kNoRow);
      const uint32_t first = index->Find(k);
      if (index->next_[first] == kNoRow) index->repeated_.push_back(first);
      index->next_[row] = index->next_[first];
      index->next_[first] = row;
    }
  }
  return std::shared_ptr<const TableIndex>(std::move(index));
}

JoinKeyIndex::Put JoinKeyIndex::Insert(Lane key, uint32_t row) {
  if (strategy_ != JoinStrategy::kHashCollision) {
    const uint64_t slot =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(base_);
    if (slot >= slots_) return Put::kOutside;
    uint32_t empty = 0;
    return std::atomic_ref<uint32_t>(slot_rows_[slot])
                   .compare_exchange_strong(empty, row + 1,
                                            std::memory_order_relaxed)
               ? Put::kNew
               : Put::kRepeat;
  }
  const uint64_t mask = slots_ - 1;
  for (uint64_t i = Mix64(static_cast<uint64_t>(key)) & mask;;
       i = (i + 1) & mask) {
    Lane seen = kNullSentinel;
    if (std::atomic_ref<Lane>(slot_keys_[i])
            .compare_exchange_strong(seen, key, std::memory_order_relaxed)) {
      // Read only after the build's tasks are done.
      slot_rows_[i] = row + 1;
      return Put::kNew;
    }
    if (seen == key) return Put::kRepeat;
  }
}

uint32_t JoinKeyIndex::Find(Lane key) const {
  // An empty slot holds 0, so `slot_rows_[i] - 1` is kNoRow for it.
  switch (strategy_) {
    case JoinStrategy::kFetch: {
      // The fastest join available (Sect. 2.3.5): row id = (key - base) /
      // delta. Unsigned arithmetic: a wide key must wrap far out of range,
      // not overflow.
      const uint64_t off =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(base_);
      if (delta_ == 1) return off < rows_ ? static_cast<uint32_t>(off) : kNoRow;
      const int64_t num = static_cast<int64_t>(off);
      if (num % delta_ != 0) return kNoRow;
      const int64_t r = num / delta_;
      return r >= 0 && static_cast<uint64_t>(r) < rows_
                 ? static_cast<uint32_t>(r)
                 : kNoRow;
    }
    case JoinStrategy::kHashDirect:
    case JoinStrategy::kHashPerfect: {
      // The slot is the key's offset from the base, so a slot in range
      // belongs to exactly this key: the probe verifies the key by the
      // bounds check, however wide it is.
      const uint64_t slot =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(base_);
      return slot < slots_ ? slot_rows_[slot] - 1 : kNoRow;
    }
    case JoinStrategy::kHashCollision: {
      const uint64_t mask = slots_ - 1;
      for (uint64_t i = Mix64(static_cast<uint64_t>(key)) & mask;;
           i = (i + 1) & mask) {
        if (slot_keys_[i] == key) return slot_rows_[i] - 1;
        if (slot_keys_[i] == kNullSentinel) return kNoRow;
      }
    }
  }
  return kNoRow;
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

JoinBuild::JoinBuild(std::shared_ptr<const Table> inner,
                     HashJoinOptions options, ExprPtr inner_predicate)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      inner_predicate_(std::move(inner_predicate)) {}

HashJoin::HashJoin(std::unique_ptr<Operator> outer,
                   std::shared_ptr<const Table> inner, HashJoinOptions options,
                   ExprPtr inner_predicate)
    : outer_(std::move(outer)),
      build_(std::make_shared<JoinBuild>(std::move(inner), std::move(options),
                                         std::move(inner_predicate))) {}

HashJoin::HashJoin(std::unique_ptr<Operator> outer,
                   std::shared_ptr<JoinBuild> build)
    : outer_(std::move(outer)), build_(std::move(build)) {}

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
  // cold column falls through to the metadata rules below. So do a
  // segmented column, whose stream carries no single affine header, and an
  // array-dictionary column, whose stream holds tokens, not key values (the
  // metadata describes the values).
  const auto pin = key_col->PinIfResident();
  const EncodedStream* key_stream =
      key_col->cold() ? (pin ? pin->stream.get() : nullptr) : key_col->data();
  if (key_stream != nullptr &&
      (key_stream->segmented() ||
       key_col->compression() == CompressionKind::kArrayDict)) {
    key_stream = nullptr;
  }
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

Status JoinBuild::ChooseStrategy() {
  TDE_ASSIGN_OR_RETURN(choice_,
                       ChooseJoinStrategy(*inner_, options_.inner_key));
  strategy_ = options_.force_strategy.value_or(choice_.strategy);
  if (strategy_ == JoinStrategy::kFetch &&
      choice_.strategy != JoinStrategy::kFetch) {
    return Status::InvalidArgument(
        "fetch join forced but inner key is not an affine function of the "
        "row id");
  }
  return Status::OK();
}

Status JoinBuild::Build() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_) {
    status_ = BuildOnce();
    built_ = true;
  }
  return status_;
}

Status JoinBuild::BuildOnce() {
  const uint64_t start = NowNs();
  inner_rows_ = inner_->rows();
  TDE_RETURN_NOT_OK(ChooseStrategy());
  TDE_ASSIGN_OR_RETURN(
      std::shared_ptr<const TableIndex> index,
      inner_->GetOrBuildIndex(
          std::string("join ") + JoinStrategyName(strategy_) + " " +
              options_.inner_key,
          [&] {
            return JoinKeyIndex::Build(*inner_, options_.inner_key, strategy_,
                                       choice_, &build_tasks_);
          },
          &index_built_));
  index_ = std::static_pointer_cast<const JoinKeyIndex>(std::move(index));
  TDE_RETURN_NOT_OK(FillQueryPart());
  TDE_RETURN_NOT_OK(CheckUnique());
  build_ns_ = NowNs() - start;
  return Status::OK();
}

Status JoinBuild::FillQueryPart() {
  // The columns this query reads: the payload, then whichever columns of
  // the predicate are not payload.
  std::vector<std::string> names = options_.inner_payload;
  std::vector<size_t> pred_cols;  // the predicate's block columns in `names`
  if (inner_predicate_ != nullptr) {
    std::vector<std::string> cols;
    inner_predicate_->CollectColumns(&cols);
    // A predicate that reads no column still needs a block with a row
    // count.
    if (cols.empty()) cols.push_back(options_.inner_key);
    for (const std::string& c : cols) {
      const size_t at = static_cast<size_t>(
          std::find(names.begin(), names.end(), c) - names.begin());
      if (at == names.size()) names.push_back(c);
      if (std::find(pred_cols.begin(), pred_cols.end(), at) ==
          pred_cols.end()) {
        pred_cols.push_back(at);
      }
    }
  }
  std::vector<ColumnReader> readers;
  for (const std::string& n : names) {
    TDE_ASSIGN_OR_RETURN(ColumnReader r, ColumnReader::Open(*inner_, n));
    readers.push_back(std::move(r));
  }
  const size_t npayload = options_.inner_payload.size();
  payload_.resize(npayload);
  for (size_t p = 0; p < npayload; ++p) {
    payload_[p].type = readers[p].type();
    payload_[p].heap = readers[p].heap();
    // Not zeroed: the range tasks write every lane.
    payload_[p].lanes = std::make_unique_for_overwrite<Lane[]>(inner_rows_);
  }
  std::optional<BoundPredicate> bound;
  if (inner_predicate_ != nullptr) {
    Schema schema;
    for (const size_t c : pred_cols) {
      schema.AddField({names[c], readers[c].type()});
    }
    bound.emplace(inner_predicate_, schema);
    pass_.assign(inner_rows_, 0);
  }

  std::vector<uint64_t> passed(RangeCount(inner_rows_), 0);
  TDE_RETURN_NOT_OK(RunRanges(
      inner_rows_,
      [&](uint64_t i, uint64_t begin, uint64_t end) -> Status {
        for (size_t p = 0; p < npayload; ++p) {
          TDE_RETURN_NOT_OK(
              readers[p].Read(begin, end, payload_[p].lanes.get() + begin));
        }
        if (!bound.has_value()) return Status::OK();
        Block b;
        for (const size_t c : pred_cols) {
          ColumnVector cv;
          cv.type = readers[c].type();
          cv.heap = readers[c].heap();
          if (c < npayload) {
            const Lane* lanes = payload_[c].lanes.get();
            cv.lanes.assign(lanes + begin, lanes + end);
          } else {
            cv.lanes.resize(end - begin);
            TDE_RETURN_NOT_OK(readers[c].Read(begin, end, cv.lanes.data()));
          }
          b.columns.push_back(std::move(cv));
        }
        SelectionVector sel;
        TDE_RETURN_NOT_OK(bound->Select(b, &sel));
        for (const uint32_t r : sel) pass_[begin + r] = 1;
        passed[i] = sel.size();
        return Status::OK();
      },
      &build_tasks_));
  inner_rows_passed_ = inner_rows_;
  if (bound.has_value()) {
    inner_rows_passed_ = 0;
    for (const uint64_t n : passed) inner_rows_passed_ += n;
  }
  return Status::OK();
}

Status JoinBuild::CheckUnique() {
  // Only passing rows count: a key may repeat among rows the predicate
  // drops.
  const auto passes = [&](uint32_t r) {
    return pass_.empty() || pass_[r] != 0;
  };
  null_row_ = kNoRow;
  for (const uint32_t r : index_->null_rows()) {
    if (!passes(r)) continue;
    if (null_row_ != kNoRow) return NotUnique();
    null_row_ = r;
  }
  for (const uint32_t first : index_->repeated()) {
    int seen = 0;
    for (uint32_t r = first; r != kNoRow; r = index_->Next(r)) {
      if (passes(r) && ++seen > 1) return NotUnique();
    }
  }
  return Status::OK();
}

uint32_t JoinBuild::Lookup(Lane key) const {
  // NULL keys match only the passing NULL-key row (if any); the index
  // never holds the sentinel as a value.
  if (key == kNullSentinel) return null_row_;
  uint32_t row = index_->Find(key);
  if (pass_.empty()) return row;
  // A repeated key's rows are chained; at most one of them passes.
  while (row != kNoRow && pass_[row] == 0) row = index_->Next(row);
  return row;
}

Status HashJoin::Open() {
  TDE_RETURN_NOT_OK(outer_->Open());
  TDE_RETURN_NOT_OK(build_->Build());
  const HashJoinOptions& options = build_->options();
  schema_ = Schema();
  const Schema& outer_schema = outer_->output_schema();
  for (const Field& f : outer_schema.fields()) schema_.AddField(f);
  for (size_t i = 0; i < options.inner_payload.size(); ++i) {
    schema_.AddField({options.inner_payload[i], build_->payload()[i].type});
  }
  TDE_ASSIGN_OR_RETURN(outer_key_idx_,
                       outer_schema.FieldIndex(options.outer_key));
  return Status::OK();
}

Status HashJoin::Next(Block* block, bool* eos) {
  const JoinBuild& build = *build_;
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
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = build.Lookup(keys[i]);
      if (row != kNoRow) {
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
    for (const JoinBuild::InnerColumn& ic : build.payload()) {
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
