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

/// The compiled form of one dictionary-code predicate against one heap:
/// the subtree's truth table over the token domain. Tokens of a heap
/// ascend strictly (each entry starts past the previous one), so when the
/// matching tokens are consecutive entries the whole set collapses to one
/// interval — the O(1)-per-row payoff of the Sect. 3.4 header sort, since a
/// sorted heap lays range predicates out contiguously. Other sets become a
/// bitmap over [lo, hi] when that is at most a few words per match, and a
/// sorted token list otherwise.
struct DictTranslation {
  bool null_result = false;
  Lane lo = 1, hi = 0;            // matching tokens lie in [lo, hi]
  std::vector<uint64_t> bitmap;   // bit (token - lo), when not an interval
  std::vector<Lane> sorted;       // the tokens, when neither fits
  bool interval = true;

  bool Matches(Lane token) const {
    if (token < lo || token > hi) return false;
    if (interval) return true;
    if (!bitmap.empty()) {
      const uint64_t bit = static_cast<uint64_t>(token - lo);
      return (bitmap[bit >> 6] >> (bit & 63)) & 1;
    }
    return std::binary_search(sorted.begin(), sorted.end(), token);
  }
};

/// Dictionary-code predicate (the compressed-domain evaluation the paper's
/// Sect. 4.1 invisible join approximates for full table rewrites, applied
/// here to any filter): wraps a boolean subtree that reads exactly one
/// string column and translates it ONCE per distinct heap — by evaluating
/// the original subtree over the heap's token domain plus the NULL
/// sentinel — into a DictTranslation. Rows are then filtered with one
/// integer comparison or bit test per lane: no heap lookups, no collation
/// calls. Blocks whose column carries no heap fall back to the original
/// expression.
class DictCodePredicate : public Expression {
 public:
  DictCodePredicate(std::string column, ExprPtr inner)
      : column_(std::move(column)), inner_(std::move(inner)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override;
  Result<TypeId> ResultType(const Schema&) const override {
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
    return std::make_shared<DictCodePredicate>(column_, std::move(c[0]));
  }

  const std::string& column() const { return column_; }

  /// The translation for `heap`, computed on first use and cached.
  Result<std::shared_ptr<const DictTranslation>> Translate(
      const std::shared_ptr<const StringHeap>& heap) const;

 private:
  /// Blocks of one query normally share one column heap, but expression-
  /// produced strings carry a fresh heap per block; a few slots absorb
  /// both shapes without growing unboundedly.
  static constexpr size_t kMaxCachedHeaps = 4;

  std::string column_;
  ExprPtr inner_;
  // Keyed by the owning shared_ptr: holding it pins the heap's identity,
  // so a recycled address can never alias a cached translation. Exchange
  // workers evaluate one shared predicate concurrently, hence the mutex.
  mutable std::mutex mu_;
  mutable std::vector<std::pair<std::shared_ptr<const StringHeap>,
                                std::shared_ptr<const DictTranslation>>>
      cache_;
};

/// Wraps every maximal boolean subtree of `pred` that reads exactly one
/// string column in a DictCodePredicate. The wrapper is behavior-preserving
/// by construction: the translation is the original predicate's truth
/// table over the column's domain, so any row-local boolean expression (=,
/// <>, range, IN, LIKE, IS NULL, NOT and combinations) is eligible.
///
/// Returns the rewritten predicate (or `pred` unchanged) and adds the
/// number of wrapped subtrees to *rewrites.
ExprPtr RewriteDictPredicates(const ExprPtr& pred, const Schema& schema,
                              int* rewrites);

/// Non-null iff `e` is a dictionary-code wrapper produced by
/// RewriteDictPredicates.
const DictCodePredicate* AsDictCodePredicate(const ExprPtr& e);

/// True iff `e` is a dictionary-code wrapper (tests / EXPLAIN inspection).
inline bool IsDictCodePredicate(const ExprPtr& e) {
  return AsDictCodePredicate(e) != nullptr;
}

}  // namespace expr
}  // namespace tde

#endif  // TDE_EXEC_COMPRESSED_PREDICATE_H_
