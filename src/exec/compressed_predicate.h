#ifndef TDE_EXEC_COMPRESSED_PREDICATE_H_
#define TDE_EXEC_COMPRESSED_PREDICATE_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/expression.h"

namespace tde {
namespace expr {

/// One domain's translation of a subtree: the subtree evaluated once per
/// entry — a heap's tokens for a dictionary-code wrapper, dense codes for
/// an invisible join's code map — in one of two forms.
///
/// The pass set of a predicate: the keys whose entries pass. Keys ascend
/// strictly (a heap's entries start past each other; codes count up), so
/// when the passing entries are consecutive the whole set collapses to one
/// interval — the O(1)-per-row payoff of the Sect. 3.4 header sort, since a
/// sorted dictionary lays range predicates out contiguously. Other sets
/// become a bitmap over [lo, hi] when that is at most a few words per
/// match, and a sorted key list otherwise.
///
/// The values of a computation (Sect. 4.1.2): one result lane per key of
/// the heap's token span [lo, hi], dense so that a row finds its result by
/// one load, then the NULL sentinel's result.
struct DictTranslation {
  bool null_result = false;       // the NULL sentinel's verdict
  Lane lo = 1, hi = 0;            // matching keys (or the span) lie in [lo, hi]
  /// Bit (key - lo), when not an interval, then one zero word: every key
  /// outside [lo, hi] clamps into it.
  std::vector<uint64_t> bitmap;
  std::vector<Lane> sorted;       // the keys, when neither fits
  bool interval = true;
  uint64_t count = 0;             // how many keys match
  /// A computation's results: lanes[key - lo], the NULL sentinel's last;
  /// the type and string heap its evaluation produced. Empty for a
  /// predicate, and for a heap past the per-entry bound, whose rows
  /// evaluate the computation per row.
  ColumnVector values;

  /// The keys of the entries whose `mask` lane is true (1), of the first
  /// `n` entries: keys[i], or i itself when `keys` is null.
  static DictTranslation Of(const std::vector<Lane>& mask, size_t n,
                            const Lane* keys);

  /// Calls `f(pass)` and returns its result, where `pass(key)` is the
  /// pass test of this translation's form: whether a row holding `key`
  /// passes — the NULL sentinel by its verdict, any other key by the pass
  /// set. The form is decided here, once, so a loop over rows inside `f`
  /// has no branch on the key, except the sorted form's search (sparse
  /// sets over huge spans).
  template <typename F>
  decltype(auto) WithPassTest(F&& f) const {
    return null_result ? WithPassTestOf<true>(f) : WithPassTestOf<false>(f);
  }

  /// A computation's result for a row holding `token` (a heap token or
  /// the NULL sentinel).
  Lane ValueOf(Lane token) const {
    const uint64_t i =
        std::min(static_cast<uint64_t>(token) - static_cast<uint64_t>(lo),
                 static_cast<uint64_t>(values.lanes.size() - 1));
    return values.lanes[i];
  }

 private:
  template <bool kNullPasses, typename F>
  decltype(auto) WithPassTestOf(F& f) const {
    const Lane l = lo, h = hi;
    if (interval) {
      return f([=](Lane key) -> bool {
        return ((key >= l) & (key <= h)) |
               (kNullPasses & (key == kNullSentinel));
      });
    }
    if (!bitmap.empty()) {
      // Unsigned: the NULL sentinel and keys below lo wrap past the span,
      // and every key past it reads the zero word.
      const uint64_t* words = bitmap.data();
      const uint64_t past = (bitmap.size() - 1) * 64;
      return f([=](Lane key) -> bool {
        const uint64_t bit = std::min(
            static_cast<uint64_t>(key) - static_cast<uint64_t>(l), past);
        return ((words[bit >> 6] >> (bit & 63)) & 1) |
               (kNullPasses & (key == kNullSentinel));
      });
    }
    return f([this](Lane key) -> bool {
      return std::binary_search(sorted.begin(), sorted.end(), key) |
             (kNullPasses & (key == kNullSentinel));
    });
  }
};

/// The per-entry evaluation of Sect. 4.1: evaluates each of `exprs`, which
/// read only `column`, once over a dictionary's entries — heap tokens with
/// their heap, or array-dictionary values, the NULL sentinel among them —
/// held as one block of that column. Returns one result per expression, a
/// lane per entry. Dictionary-code wrappers and the invisible join's code
/// map both evaluate through it.
Result<std::vector<ColumnVector>> EvalPerEntry(
    const std::string& column, ColumnVector entries,
    const std::vector<ExprPtr>& exprs);

/// One evaluator's last translation of one wrapper. An operator copy that
/// keeps one per wrapper asks the wrapper's shared cache once per heap,
/// not once per block.
struct DictMemo {
  std::shared_ptr<const StringHeap> heap;
  std::shared_ptr<const DictTranslation> translation;
};

/// Dictionary-code wrapper (the compressed-domain evaluation of the
/// paper's Sect. 4.1 invisible join, applied to any filter or projection):
/// wraps a subtree that reads exactly one string column and translates it
/// ONCE per distinct heap — by evaluating the original subtree over the
/// heap's token domain plus the NULL sentinel — into a DictTranslation.
/// Each row then costs one integer test or one load: no heap lookups, no
/// collation calls. Two forms:
///  - a predicate (a filter's boolean subtree) keeps the pass set, for a
///    heap of any size;
///  - a computation (a projection's subtree, any result type) keeps the
///    values, for a heap of at most kMaxEntries entries whose token span
///    is under kMaxTokenSpan, so the per-entry pass never costs more than
///    one block of per-row work and the table is a direct one. Rows over
///    a larger heap evaluate the subtree per row.
/// Blocks whose column carries no heap fall back to the original subtree.
class DictCodePredicate : public Expression {
 public:
  static constexpr uint64_t kMaxEntries = kBlockSize;
  static constexpr uint64_t kMaxTokenSpan = uint64_t{1} << 16;

  DictCodePredicate(std::string column, ExprPtr inner,
                    bool computation = false)
      : column_(std::move(column)),
        inner_(std::move(inner)),
        computation_(computation) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    return Eval(block, schema, nullptr);
  }
  /// Eval, looking translations up through `memo` when it is not null.
  Result<ColumnVector> Eval(const Block& block, const Schema& schema,
                            DictMemo* memo) const;
  Result<TypeId> ResultType(const Schema& schema) const override {
    if (computation_) return inner_->ResultType(schema);
    return TypeId::kBool;
  }
  std::string ToString() const override {
    return "dict_code[" + inner_->ToString() + "]";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    inner_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override { return {inner_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<DictCodePredicate>(column_, std::move(c[0]),
                                               computation_);
  }

  const std::string& column() const { return column_; }

  /// The translation for `heap`, computed on first use and cached.
  Result<std::shared_ptr<const DictTranslation>> Translate(
      const std::shared_ptr<const StringHeap>& heap) const;
  /// The translation for `heap`: `memo`'s when it holds that heap's, else
  /// the cached one, which `memo` then keeps.
  Result<const DictTranslation*> Translate(
      const std::shared_ptr<const StringHeap>& heap, DictMemo* memo) const;

 private:
  /// Fills `t` for `heap`: a predicate's pass set, or a computation's
  /// values unless the heap is past the per-entry bound (`t` stays empty).
  Status Build(const std::shared_ptr<const StringHeap>& heap,
               DictTranslation* t) const;

  /// Blocks of one query normally share one column heap, but expression-
  /// produced strings carry a fresh heap per block; a few slots absorb
  /// both shapes without growing unboundedly.
  static constexpr size_t kMaxCachedHeaps = 4;

  std::string column_;
  ExprPtr inner_;
  bool computation_;
  // Keyed by the owning shared_ptr: holding it pins the heap's identity,
  // so a recycled address can never alias a cached translation. Morsel
  // copies and Exchange workers evaluate one shared wrapper concurrently,
  // hence the mutex.
  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::shared_ptr<const StringHeap>,
                                std::shared_ptr<const DictTranslation>>>
      cache_;
};

/// Wraps every maximal boolean subtree of `pred` that reads exactly one
/// string column in a predicate-form DictCodePredicate. The wrapper is
/// behavior-preserving by construction: the translation is the original
/// predicate's truth table over the column's domain, so any row-local
/// boolean expression (=, <>, range, IN, LIKE, IS NULL, NOT and
/// combinations) is eligible.
///
/// Returns the rewritten predicate (or `pred` unchanged) and adds the
/// number of wrapped subtrees to *rewrites.
ExprPtr RewriteDictPredicates(const ExprPtr& pred, const Schema& schema,
                              int* rewrites);

/// The same rewrite for a projected expression: wraps every maximal
/// subtree of `e`, of any result type and other than a bare column
/// reference, that reads exactly one string column of `heaps` in a
/// computation-form DictCodePredicate. Expressions return only type
/// errors, which are the same for every entry, so per-entry evaluation
/// raises no error that per-row evaluation would not.
ExprPtr RewriteDictComputations(const ExprPtr& e, const Schema& heaps,
                                int* rewrites);

/// Non-null iff `e` is a dictionary-code wrapper produced by one of the
/// rewrites above.
const DictCodePredicate* AsDictCodePredicate(const ExprPtr& e);

/// True iff `e` is a dictionary-code wrapper (tests / EXPLAIN inspection).
inline bool IsDictCodePredicate(const ExprPtr& e) {
  return AsDictCodePredicate(e) != nullptr;
}

}  // namespace expr
}  // namespace tde

#endif  // TDE_EXEC_COMPRESSED_PREDICATE_H_
