#include "src/exec/block.h"

namespace tde {

void Block::Compact(const SelectionVector& sel) {
  for (auto& col : columns) {
    // Distinct ascending ids: as many as rows means every row.
    if (sel.size() == col.lanes.size()) continue;
    Lane* lanes = col.lanes.data();
    for (size_t j = 0; j < sel.size(); ++j) lanes[j] = lanes[sel[j]];
    col.lanes.resize(sel.size());
  }
}

Status DrainOperator(Operator* op, std::vector<Block>* out) {
  TDE_RETURN_NOT_OK(op->Open());
  while (true) {
    Block b;
    bool eos = false;
    TDE_RETURN_NOT_OK(op->Next(&b, &eos));
    if (eos) break;
    if (b.rows() > 0) out->push_back(std::move(b));
  }
  op->Close();
  return Status::OK();
}

}  // namespace tde
