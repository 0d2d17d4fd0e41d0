#ifndef TDE_EXEC_FILTER_H_
#define TDE_EXEC_FILTER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/compressed_predicate.h"
#include "src/exec/expression.h"

namespace tde {

/// A predicate bound to one input schema: split into its AND conjuncts
/// once, with column references resolved to block column indices. Select
/// narrows a selection vector conjunct by conjunct, in the order the
/// conjuncts appear in the predicate:
///  - `column <op> literal` (the literal on either side) and
///    `column <op> column` over non-string lanes compare lanes directly
///    (no literal broadcast, no mask), under the same rules as the
///    comparison expression: a NULL on either side is false, a real on
///    either side compares both as reals under the engine's total order
///    (NaN equals NaN and sorts above every number), and everything else
///    compares as integer lanes;
///  - a dictionary-code predicate tests each surviving token against its
///    per-heap translation's pass set, without a branch;
///  - any other conjunct is evaluated over the whole block with Eval, and
///    the surviving rows are those whose result lane is true.
/// Each conjunct visits only the rows that survived the ones before it,
/// and once none survive the rest are skipped — so an error in a later
/// conjunct surfaces only for blocks that reach it. The bound state is
/// read-only, so concurrent workers may share one BoundPredicate.
class BoundPredicate {
 public:
  BoundPredicate(const ExprPtr& predicate, const Schema& schema);

  /// Sets *sel to the ids, ascending, of the rows of `block` (any row
  /// count) that satisfy the predicate. A caller that evaluates on one
  /// thread may pass `memos`, its own across calls: dictionary-code
  /// conjuncts then look their translation up once per heap, not once
  /// per block.
  Status Select(const Block& block, SelectionVector* sel,
                std::vector<expr::DictMemo>* memos = nullptr) const;

 private:
  struct Operand {
    int column = -1;  // block column index, or -1 for a literal
    TypeId type = TypeId::kInteger;
    Lane value = 0;
  };
  enum class Kind { kCompare, kDictCode, kGeneric };
  struct Conjunct {
    Kind kind = Kind::kGeneric;
    ExprPtr expr;
    // kCompare: lhs is always a column.
    CompareOp op = CompareOp::kEq;
    Operand lhs, rhs;
    // kDictCode.
    const expr::DictCodePredicate* dict = nullptr;
    int column = -1;
  };

  /// Narrows sel[0, *live) by one conjunct; `dense` means the selection is
  /// still every row of the block (sel is not yet filled in).
  Status Narrow(const Conjunct& c, const Block& block, bool dense,
                SelectionVector* sel, size_t* live,
                expr::DictMemo* memo) const;
  size_t NarrowCompare(const Conjunct& c, const Block& block, bool dense,
                       uint32_t* sel, size_t live) const;

  Schema schema_;
  std::vector<Conjunct> conjuncts_;
};

/// Flow operator: keeps the rows for which `predicate` is true (the TDE's
/// Select operator), binding the predicate to its input at Open().
class Filter : public Operator {
 public:
  Filter(std::unique_ptr<Operator> child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  /// Rows evaluated and rows kept (selectivity observation for the
  /// tactical layer / tests).
  uint64_t rows_in() const { return rows_in_; }
  uint64_t rows_out() const { return rows_out_; }

 private:
  std::unique_ptr<Operator> child_;
  ExprPtr predicate_;
  std::optional<BoundPredicate> bound_;
  std::vector<expr::DictMemo> memos_;
  SelectionVector sel_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

}  // namespace tde

#endif  // TDE_EXEC_FILTER_H_
