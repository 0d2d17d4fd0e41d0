#ifndef TDE_EXEC_INVISIBLE_JOIN_H_
#define TDE_EXEC_INVISIBLE_JOIN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/compressed_predicate.h"
#include "src/exec/filter.h"
#include "src/exec/project.h"
#include "src/storage/column.h"

namespace tde {

/// The code map of an invisible join (Sect. 4.1.1), the paper's
/// DictionaryTable side: the pushed predicate and computations evaluated
/// once per entry of the joined column's dictionary — the NULL sentinel is
/// an entry, so they decide NULL rows by ordinary evaluation. Built once
/// per query and shared by every morsel copy of the join.
struct CodeMap {
  /// code -> lane (a heap token or a value); null when there are no codes.
  std::shared_ptr<const ArrayDictionary> entries;
  /// The passing codes (all of them without a predicate). One interval over
  /// a sorted dictionary is the dense key range of the paper's fetch join.
  expr::DictTranslation pass;
  std::vector<ColumnVector> computed;  // per computation, a lane per code
  uint64_t build_ns = 0;

  size_t codes() const { return entries ? entries->values.size() : 0; }
};

/// Builds the code map of `column` (a dictionary-coded heap column or an
/// array-dictionary column; others get no entries) for the pushed
/// `predicate` (may be null) and `computations`, which read only it.
Result<std::shared_ptr<const CodeMap>> BuildCodeMap(
    const std::shared_ptr<const Column>& column, const ExprPtr& predicate,
    const std::vector<ProjectedColumn>& computations);

/// Flow operator: the invisible join of `column` over a scan that emits it
/// as codes (TableScanOptions::code_columns). A block of codes keeps the
/// rows whose code passes and gathers the computations by code; a block
/// without codes evaluates `predicate` and the computations row by row.
/// Output: the input columns — `column` decoded, or dropped unless
/// `emit_column` — then the computations.
class InvisibleJoin : public Operator {
 public:
  InvisibleJoin(std::unique_ptr<Operator> child, const std::string& column,
                bool emit_column, std::shared_ptr<const CodeMap> map,
                ExprPtr predicate, std::vector<ProjectedColumn> computations);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }

 private:
  /// Keeps the rows of `block` that pass.
  Status Select(Block* block);

  std::unique_ptr<Operator> child_;
  bool emit_column_;
  std::shared_ptr<const CodeMap> map_;
  ExprPtr predicate_;
  std::vector<ProjectedColumn> computations_;
  Schema schema_;
  Status init_error_;
  size_t index_ = 0;  // of the joined column in the input
  std::optional<BoundPredicate> bound_;
  std::vector<expr::DictMemo> memos_;
  SelectionVector sel_;
};

}  // namespace tde

#endif  // TDE_EXEC_INVISIBLE_JOIN_H_
