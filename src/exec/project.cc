#include "src/exec/project.h"

namespace tde {

Project::Project(std::unique_ptr<Operator> child,
                 std::vector<ProjectedColumn> cols)
    : child_(std::move(child)), cols_(std::move(cols)) {}

Status Project::Open() {
  TDE_RETURN_NOT_OK(child_->Open());
  const Schema& in = child_->output_schema();
  schema_ = Schema();
  source_.assign(cols_.size(), -1);
  move_.assign(cols_.size(), 0);
  std::vector<char> referenced(in.num_fields(), 0);
  for (size_t i = 0; i < cols_.size(); ++i) {
    const ProjectedColumn& pc = cols_[i];
    TDE_ASSIGN_OR_RETURN(TypeId t, pc.expr->ResultType(in));
    schema_.AddField({pc.name, t});
    if (const std::string* name = pc.expr->AsColumnRef()) {
      source_[i] = static_cast<int>(in.FieldIndex(*name).value());
    }
  }
  for (size_t i = cols_.size(); i-- > 0;) {
    if (source_[i] >= 0 && !referenced[source_[i]]) {
      referenced[source_[i]] = 1;
      move_[i] = 1;
    }
  }
  return Status::OK();
}

Status Project::Next(Block* block, bool* eos) {
  Block in;
  TDE_RETURN_NOT_OK(child_->Next(&in, eos));
  block->columns.clear();
  if (*eos) return Status::OK();
  block->columns.resize(cols_.size());
  // Computed columns first: they read `in` before any lanes move out.
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (source_[i] >= 0) continue;
    TDE_ASSIGN_OR_RETURN(block->columns[i],
                         cols_[i].expr->Eval(in, child_->output_schema()));
  }
  // Moves happen at each input column's last reference, after its copies.
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (source_[i] < 0) continue;
    ColumnVector& src = in.columns[source_[i]];
    block->columns[i] = move_[i] ? std::move(src) : src;
  }
  return Status::OK();
}

}  // namespace tde
