#include "src/exec/compressed_predicate.h"

namespace tde {
namespace expr {

DictTranslation DictTranslation::Of(const std::vector<Lane>& mask, size_t n,
                                    const Lane* keys) {
  const auto key = [keys](size_t i) {
    return keys != nullptr ? keys[i] : static_cast<Lane>(i);
  };
  DictTranslation t;
  size_t first = n, last = 0, count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] != 1) continue;
    if (count == 0) first = i;
    last = i;
    ++count;
  }
  t.count = count;
  if (count > 0) {
    t.lo = key(first);
    t.hi = key(last);
  }
  if (count > 0 && count != last - first + 1) {
    // Not consecutive entries: a bitmap over the key span when it costs
    // at most a few words per match, else the sorted keys themselves.
    t.interval = false;
    const uint64_t span = static_cast<uint64_t>(t.hi - t.lo) + 1;
    const uint64_t words = (span + 63) / 64;
    if (words <= 4 * count + 64) {
      t.bitmap.assign(words + 1, 0);  // the zero word past hi
      for (size_t i = first; i <= last; ++i) {
        if (mask[i] != 1) continue;
        const uint64_t bit = static_cast<uint64_t>(key(i) - t.lo);
        t.bitmap[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
    } else {
      t.sorted.reserve(count);
      for (size_t i = first; i <= last; ++i) {
        if (mask[i] == 1) t.sorted.push_back(key(i));
      }
    }
  }
  return t;
}

Result<std::vector<ColumnVector>> EvalPerEntry(
    const std::string& column, ColumnVector entries,
    const std::vector<ExprPtr>& exprs) {
  Schema schema;
  schema.AddField({column, entries.type});
  Block b;
  b.columns.push_back(std::move(entries));
  std::vector<ColumnVector> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, e->Eval(b, schema));
    out.push_back(std::move(v));
  }
  return out;
}

Result<ColumnVector> DictCodePredicate::Eval(const Block& block,
                                             const Schema& schema,
                                             DictMemo* memo) const {
  auto idx = schema.FieldIndex(column_);
  if (!idx.ok()) return inner_->Eval(block, schema);
  const ColumnVector& cv = block.columns[idx.value()];
  if (cv.type != TypeId::kString || cv.heap == nullptr) {
    return inner_->Eval(block, schema);  // nothing compressed to leverage
  }
  DictMemo local;
  TDE_ASSIGN_OR_RETURN(const DictTranslation* t,
                       Translate(cv.heap, memo != nullptr ? memo : &local));
  const size_t n = block.rows();
  const Lane* lanes = cv.lanes.data();
  ColumnVector out;
  out.lanes.resize(n);
  if (!computation_) {
    out.type = TypeId::kBool;
    t->WithPassTest([&](auto pass) {
      for (size_t i = 0; i < n; ++i) out.lanes[i] = pass(lanes[i]);
    });
    return out;
  }
  if (t->values.lanes.empty()) return inner_->Eval(block, schema);
  out.type = t->values.type;
  out.heap = t->values.heap;
  for (size_t i = 0; i < n; ++i) out.lanes[i] = t->ValueOf(lanes[i]);
  return out;
}

Result<const DictTranslation*> DictCodePredicate::Translate(
    const std::shared_ptr<const StringHeap>& heap, DictMemo* memo) const {
  if (memo->heap != heap) {
    TDE_ASSIGN_OR_RETURN(memo->translation, Translate(heap));
    memo->heap = heap;
  }
  return memo->translation.get();
}

Result<std::shared_ptr<const DictTranslation>> DictCodePredicate::Translate(
    const std::shared_ptr<const StringHeap>& heap) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [h, t] : cache_) {
      if (h == heap) return t;
    }
  }
  auto t = std::make_shared<DictTranslation>();
  TDE_RETURN_NOT_OK(Build(heap, t.get()));
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.size() >= kMaxCachedHeaps) cache_.erase(cache_.begin());
  cache_.emplace_back(heap, t);
  return {std::shared_ptr<const DictTranslation>(t)};
}

Status DictCodePredicate::Build(const std::shared_ptr<const StringHeap>& heap,
                                DictTranslation* t) const {
  if (computation_ && heap->entry_count() > kMaxEntries) return Status::OK();
  const std::vector<Lane> domain = heap->AllTokens();
  const uint64_t span =
      domain.empty() ? 0 : static_cast<uint64_t>(domain.back() - domain[0]) + 1;
  if (computation_ && span >= kMaxTokenSpan) return Status::OK();
  // Evaluate the original subtree once over the whole token domain plus
  // the NULL sentinel (IS NULL / NOT make NULL rows pass, and CASE or
  // LENGTH give them a value, so the NULL entry's result must come from
  // the expression itself, not be assumed).
  ColumnVector entries;
  entries.type = TypeId::kString;
  entries.heap = heap;
  entries.lanes = domain;
  entries.lanes.push_back(kNullSentinel);
  TDE_ASSIGN_OR_RETURN(std::vector<ColumnVector> result,
                       EvalPerEntry(column_, std::move(entries), {inner_}));
  ColumnVector& v = result[0];
  if (!computation_) {
    *t = DictTranslation::Of(v.lanes, domain.size(), domain.data());
    t->null_result = v.lanes.back() == 1;
    return Status::OK();
  }
  // Dense over the token span: each entry's result at its token's offset,
  // the NULL sentinel's past the span.
  t->lo = domain.empty() ? 0 : domain[0];
  t->hi = t->lo + static_cast<Lane>(span) - 1;
  t->values.type = v.type;
  t->values.heap = std::move(v.heap);
  t->values.lanes.assign(span + 1, kNullSentinel);
  for (size_t i = 0; i < domain.size(); ++i) {
    t->values.lanes[static_cast<size_t>(domain[i] - t->lo)] = v.lanes[i];
  }
  t->values.lanes[span] = v.lanes.back();
  return Status::OK();
}

namespace {

/// The single column a predicate reads, if exactly one.
bool SingleColumnOf(const ExprPtr& e, std::string* name) {
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  if (cols.empty()) return false;
  for (const auto& c : cols) {
    if (c != cols[0]) return false;
  }
  *name = cols[0];
  return true;
}

/// Wraps every maximal subtree of `e` that reads exactly one string
/// column of `schema`: a boolean one as a predicate, or, for a
/// computation, any but a bare column reference.
ExprPtr Rewrite(const ExprPtr& e, const Schema& schema, bool computation,
                int* rewrites) {
  if (IsDictCodePredicate(e)) return e;  // idempotent
  std::string col;
  if (e->AsColumnRef() == nullptr && SingleColumnOf(e, &col)) {
    auto fi = schema.FieldIndex(col);
    if (fi.ok() && schema.field(fi.value()).type == TypeId::kString) {
      auto rt = e->ResultType(schema);
      if (rt.ok() && (computation || rt.value() == TypeId::kBool)) {
        ++*rewrites;
        return std::make_shared<DictCodePredicate>(col, e, computation);
      }
    }
  }
  std::vector<ExprPtr> kids = e->Children();
  if (kids.empty()) return e;
  bool changed = false;
  for (ExprPtr& k : kids) {
    ExprPtr r = Rewrite(k, schema, computation, rewrites);
    changed = changed || r.get() != k.get();
    k = std::move(r);
  }
  if (!changed) return e;
  ExprPtr rebuilt = e->WithChildren(std::move(kids));
  return rebuilt != nullptr ? rebuilt : e;
}

}  // namespace

ExprPtr RewriteDictPredicates(const ExprPtr& pred, const Schema& schema,
                              int* rewrites) {
  return Rewrite(pred, schema, /*computation=*/false, rewrites);
}

ExprPtr RewriteDictComputations(const ExprPtr& e, const Schema& heaps,
                                int* rewrites) {
  return Rewrite(e, heaps, /*computation=*/true, rewrites);
}

const DictCodePredicate* AsDictCodePredicate(const ExprPtr& e) {
  return dynamic_cast<const DictCodePredicate*>(e.get());
}

}  // namespace expr
}  // namespace tde
