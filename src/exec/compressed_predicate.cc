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
      t.bitmap.assign(words, 0);
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
                                             const Schema& schema) const {
  auto idx = schema.FieldIndex(column_);
  if (!idx.ok()) return inner_->Eval(block, schema);
  const ColumnVector& cv = block.columns[idx.value()];
  if (cv.type != TypeId::kString || cv.heap == nullptr) {
    return inner_->Eval(block, schema);  // nothing compressed to leverage
  }
  TDE_ASSIGN_OR_RETURN(std::shared_ptr<const DictTranslation> t,
                       Translate(cv.heap));
  ColumnVector out;
  out.type = TypeId::kBool;
  const size_t n = block.rows();
  out.lanes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Lane lane = cv.lanes[i];
    out.lanes[i] =
        (lane == kNullSentinel ? t->null_result : t->Matches(lane)) ? 1 : 0;
  }
  return out;
}

Result<std::shared_ptr<const DictTranslation>> DictCodePredicate::Translate(
    const std::shared_ptr<const StringHeap>& heap) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [h, t] : cache_) {
      if (h == heap) return t;
    }
  }
  // Evaluate the original subtree once over the whole token domain plus
  // the NULL sentinel (IS NULL / NOT make NULL rows pass, so the null
  // verdict must come from the expression itself, not be assumed false).
  const std::vector<Lane> domain = heap->AllTokens();
  ColumnVector entries;
  entries.type = TypeId::kString;
  entries.heap = heap;
  entries.lanes = domain;
  entries.lanes.push_back(kNullSentinel);
  TDE_ASSIGN_OR_RETURN(std::vector<ColumnVector> mask,
                       EvalPerEntry(column_, std::move(entries), {inner_}));
  auto t = std::make_shared<DictTranslation>(
      DictTranslation::Of(mask[0].lanes, domain.size(), domain.data()));
  t->null_result = mask[0].lanes.back() == 1;
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.size() >= kMaxCachedHeaps) cache_.erase(cache_.begin());
  cache_.emplace_back(heap, t);
  return {std::shared_ptr<const DictTranslation>(t)};
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

}  // namespace

ExprPtr RewriteDictPredicates(const ExprPtr& pred, const Schema& schema,
                              int* rewrites) {
  if (IsDictCodePredicate(pred)) return pred;  // idempotent
  std::string col;
  if (SingleColumnOf(pred, &col)) {
    auto fi = schema.FieldIndex(col);
    if (fi.ok() && schema.field(fi.value()).type == TypeId::kString) {
      auto rt = pred->ResultType(schema);
      if (rt.ok() && rt.value() == TypeId::kBool) {
        ++*rewrites;
        return std::make_shared<DictCodePredicate>(col, pred);
      }
    }
  }
  std::vector<ExprPtr> kids = pred->Children();
  if (kids.empty()) return pred;
  bool changed = false;
  for (ExprPtr& k : kids) {
    ExprPtr r = RewriteDictPredicates(k, schema, rewrites);
    changed = changed || r.get() != k.get();
    k = std::move(r);
  }
  if (!changed) return pred;
  ExprPtr rebuilt = pred->WithChildren(std::move(kids));
  return rebuilt != nullptr ? rebuilt : pred;
}

const DictCodePredicate* AsDictCodePredicate(const ExprPtr& e) {
  return dynamic_cast<const DictCodePredicate*>(e.get());
}

}  // namespace expr
}  // namespace tde
