#include "src/exec/invisible_join.h"

#include <chrono>

#include "src/exec/table_scan.h"

namespace tde {

Result<std::shared_ptr<const CodeMap>> BuildCodeMap(
    const std::shared_ptr<const Column>& column, const ExprPtr& predicate,
    const std::vector<ProjectedColumn>& computations) {
  const auto started = std::chrono::steady_clock::now();
  auto map = std::make_shared<CodeMap>();
  TDE_ASSIGN_OR_RETURN(auto pin, column->Pin());
  map->entries = CodeEntryTable(column, pin.get());
  if (map->entries == nullptr) return {std::shared_ptr<const CodeMap>(map)};
  ColumnVector entries;
  entries.type = column->type();
  if (column->compression() == CompressionKind::kHeap) {
    entries.heap = pin ? std::shared_ptr<const StringHeap>(pin->heap)
                       : std::shared_ptr<const StringHeap>(column,
                                                           column->heap());
  }
  const size_t n = map->codes();
  entries.lanes = map->entries->values;
  std::vector<ExprPtr> exprs;
  if (predicate != nullptr) exprs.push_back(predicate);
  for (const ProjectedColumn& pc : computations) exprs.push_back(pc.expr);
  TDE_ASSIGN_OR_RETURN(
      map->computed,
      expr::EvalPerEntry(column->name(), std::move(entries), exprs));
  if (predicate != nullptr) {
    map->pass = expr::DictTranslation::Of(map->computed[0].lanes, n, nullptr);
    map->computed.erase(map->computed.begin());
  } else {  // every code passes
    map->pass.lo = 0;
    map->pass.hi = static_cast<Lane>(n) - 1;
    map->pass.count = n;
  }
  map->build_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return {std::shared_ptr<const CodeMap>(map)};
}

InvisibleJoin::InvisibleJoin(std::unique_ptr<Operator> child,
                             const std::string& column, bool emit_column,
                             std::shared_ptr<const CodeMap> map,
                             ExprPtr predicate,
                             std::vector<ProjectedColumn> computations)
    : child_(std::move(child)),
      emit_column_(emit_column),
      map_(std::move(map)),
      predicate_(std::move(predicate)),
      computations_(std::move(computations)) {
  const Schema& in = child_->output_schema();
  auto index = in.FieldIndex(column);
  init_error_ = index.status();
  index_ = index.ok() ? index.value() : 0;
  for (size_t i = 0; i < in.num_fields(); ++i) {
    if (i != index_ || emit_column_) schema_.AddField(in.field(i));
  }
  for (const ProjectedColumn& pc : computations_) {
    auto t = pc.expr->ResultType(in);
    if (!t.ok()) init_error_ = t.status();
    schema_.AddField({pc.name, t.ok() ? t.value() : TypeId::kInteger});
  }
}

Status InvisibleJoin::Open() {
  TDE_RETURN_NOT_OK(init_error_);
  TDE_RETURN_NOT_OK(child_->Open());
  if (predicate_ != nullptr) {
    bound_.emplace(predicate_, child_->output_schema());
  }
  return Status::OK();
}

Status InvisibleJoin::Select(Block* block) {
  const ColumnVector& codes = block->columns[index_];
  const expr::DictTranslation& pass = map_->pass;
  if (codes.dict == nullptr) {
    if (bound_.has_value()) {
      TDE_RETURN_NOT_OK(bound_->Select(*block, &sel_, &memos_));
      block->Compact(sel_);
    }
    return Status::OK();
  }
  if (codes.dict->values.size() != map_->codes()) {
    return Status::Internal("invisible join: codes outside the code map");
  }
  if (pass.count == map_->codes()) return Status::OK();
  const uint32_t n = static_cast<uint32_t>(codes.lanes.size());
  const Lane* code = codes.lanes.data();
  sel_.resize(n);
  const size_t kept = pass.WithPassTest([&](auto passes) {
    size_t out = 0;
    for (uint32_t r = 0; r < n; ++r) {
      sel_[out] = r;
      out += passes(code[r]);
    }
    return out;
  });
  sel_.resize(kept);
  block->Compact(sel_);
  return Status::OK();
}

Status InvisibleJoin::Next(Block* block, bool* eos) {
  // Pull until a block keeps a row, or the end of the stream.
  do {
    TDE_RETURN_NOT_OK(child_->Next(block, eos));
    if (*eos) return Status::OK();
    TDE_RETURN_NOT_OK(Select(block));
  } while (block->rows() == 0);
  ColumnVector& codes = block->columns[index_];
  std::vector<ColumnVector> computed;
  for (size_t i = 0; i < computations_.size(); ++i) {
    if (codes.dict == nullptr) {  // no codes: evaluate per row
      TDE_ASSIGN_OR_RETURN(
          computed.emplace_back(),
          computations_[i].expr->Eval(*block, child_->output_schema()));
      continue;
    }
    const ColumnVector& per_code = map_->computed[i];
    ColumnVector& out = computed.emplace_back();
    out.type = per_code.type;
    out.heap = per_code.heap;
    out.lanes.reserve(codes.lanes.size());
    for (const Lane c : codes.lanes) {
      out.lanes.push_back(per_code.lanes[static_cast<size_t>(c)]);
    }
  }
  if (!emit_column_) {
    block->columns.erase(block->columns.begin() +
                         static_cast<ptrdiff_t>(index_));
  } else if (codes.dict != nullptr) {
    for (Lane& v : codes.lanes) {
      v = map_->entries->values[static_cast<size_t>(v)];
    }
    codes.dict = nullptr;
  }
  for (ColumnVector& c : computed) block->columns.push_back(std::move(c));
  return Status::OK();
}

}  // namespace tde
