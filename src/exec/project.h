#ifndef TDE_EXEC_PROJECT_H_
#define TDE_EXEC_PROJECT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/block.h"
#include "src/exec/compressed_predicate.h"
#include "src/exec/expression.h"

namespace tde {

/// A projected output column: an expression and its output name.
struct ProjectedColumn {
  ExprPtr expr;
  std::string name;
};

/// Flow operator: evaluates expressions over each block (the TDE's Project
/// / computation operator). Bare column references are resolved to input
/// columns at Open() and pass their lanes through by move (by copy only
/// when the same input column is referenced again later). A projected
/// dictionary-code wrapper looks its translation up once per heap.
class Project : public Operator {
 public:
  Project(std::unique_ptr<Operator> child, std::vector<ProjectedColumn> cols);

  Status Open() override;
  Status Next(Block* block, bool* eos) override;
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<ProjectedColumn> cols_;
  Schema schema_;
  // Per output column: the input column a bare reference reads (-1 for a
  // computed column), and whether this is that input's last reference.
  std::vector<int> source_;
  std::vector<char> move_;
  // Per output column: the dictionary-code wrapper it is, if any, and that
  // wrapper's memo.
  std::vector<const expr::DictCodePredicate*> dict_;
  std::vector<expr::DictMemo> memos_;
};

}  // namespace tde

#endif  // TDE_EXEC_PROJECT_H_
