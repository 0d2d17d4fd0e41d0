#include "src/exec/filter.h"

#include <bit>
#include <numeric>
#include <utility>

namespace tde {

namespace {

void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->Shape() == ExprShape::kAnd) {
    for (const ExprPtr& k : e->Children()) FlattenAnd(k, out);
    return;
  }
  out->push_back(e);
}

/// `a op b` <=> `b Mirror(op) a`.
CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

template <CompareOp kOp, typename T>
inline bool Holds(T a, T b) {
  if constexpr (kOp == CompareOp::kEq) return a == b;
  if constexpr (kOp == CompareOp::kNe) return a != b;
  if constexpr (kOp == CompareOp::kLt) return a < b;
  if constexpr (kOp == CompareOp::kLe) return a <= b;
  if constexpr (kOp == CompareOp::kGt) return a > b;
  if constexpr (kOp == CompareOp::kGe) return a >= b;
}

/// Keeps the rows r among sel[0, live) — or among [0, live) when `dense` —
/// for which keep(r) holds, compacting them to the front of `sel`.
template <typename Keep>
size_t Retain(bool dense, size_t live, uint32_t* sel, Keep keep) {
  size_t out = 0;
  if (dense) {
    for (uint32_t r = 0; r < live; ++r) {
      sel[out] = r;
      out += keep(r);
    }
  } else {
    for (size_t j = 0; j < live; ++j) {
      const uint32_t r = sel[j];
      sel[out] = r;
      out += keep(r);
    }
  }
  return out;
}

inline double ToReal(Lane v, bool is_real) {
  return is_real ? std::bit_cast<double>(v) : static_cast<double>(v);
}

/// One comparison conjunct over non-string lanes: `a` is a column, `b` a
/// column or (when null) the non-NULL scalar `s`.
template <CompareOp kOp>
size_t CompareLanes(const Lane* a, TypeId at, const Lane* b, TypeId bt,
                    Lane s, bool dense, size_t live, uint32_t* sel) {
  constexpr Lane kNull = kNullSentinel;
  if (at != TypeId::kReal && bt != TypeId::kReal) {
    if (b == nullptr) {
      return Retain(dense, live, sel, [&](uint32_t r) {
        const Lane x = a[r];
        return (x != kNull) & Holds<kOp>(x, s);
      });
    }
    return Retain(dense, live, sel, [&](uint32_t r) {
      const Lane x = a[r];
      const Lane y = b[r];
      return (x != kNull) & (y != kNull) & Holds<kOp>(x, y);
    });
  }
  const bool a_real = at == TypeId::kReal;
  const bool b_real = bt == TypeId::kReal;
  if (b == nullptr) {
    const double ds = ToReal(s, b_real);
    return Retain(dense, live, sel, [&](uint32_t r) {
      const Lane x = a[r];
      return (x != kNull) &
             Holds<kOp>(CompareReals(ToReal(x, a_real), ds), 0);
    });
  }
  return Retain(dense, live, sel, [&](uint32_t r) {
    const Lane x = a[r];
    const Lane y = b[r];
    return (x != kNull) & (y != kNull) &
           Holds<kOp>(CompareReals(ToReal(x, a_real), ToReal(y, b_real)), 0);
  });
}

}  // namespace

BoundPredicate::BoundPredicate(const ExprPtr& predicate, const Schema& schema)
    : schema_(schema) {
  auto bind_operand = [&](const ExprPtr& e, Operand* op) {
    if (const std::string* name = e->AsColumnRef()) {
      auto idx = schema.FieldIndex(*name);
      if (!idx.ok()) return false;
      op->column = static_cast<int>(idx.value());
      return true;
    }
    return e->AsLiteral(&op->type, &op->value);
  };
  std::vector<ExprPtr> parts;
  FlattenAnd(predicate, &parts);
  for (ExprPtr& e : parts) {
    Conjunct c;
    c.expr = std::move(e);
    CompareOp op;
    if (const expr::DictCodePredicate* d = expr::AsDictCodePredicate(c.expr)) {
      auto idx = schema.FieldIndex(d->column());
      if (idx.ok()) {
        c.kind = Kind::kDictCode;
        c.dict = d;
        c.column = static_cast<int>(idx.value());
      }
    } else if (c.expr->AsCompare(&op)) {
      const std::vector<ExprPtr> kids = c.expr->Children();
      Operand l, r;
      if (bind_operand(kids[0], &l) && bind_operand(kids[1], &r) &&
          (l.column >= 0 || r.column >= 0)) {
        if (l.column < 0) {
          std::swap(l, r);
          op = Mirror(op);
        }
        c.kind = Kind::kCompare;
        c.op = op;
        c.lhs = l;
        c.rhs = r;
      }
    }
    conjuncts_.push_back(std::move(c));
  }
}

size_t BoundPredicate::NarrowCompare(const Conjunct& c, const Block& block,
                                     bool dense, uint32_t* sel,
                                     size_t live) const {
  const ColumnVector& a = block.columns[c.lhs.column];
  const ColumnVector* b =
      c.rhs.column >= 0 ? &block.columns[c.rhs.column] : nullptr;
  if (b == nullptr && c.rhs.value == kNullSentinel) return 0;
  const Lane* bl = b != nullptr ? b->lanes.data() : nullptr;
  const TypeId bt = b != nullptr ? b->type : c.rhs.type;
  const Lane s = c.rhs.value;
  const Lane* al = a.lanes.data();
  switch (c.op) {
    case CompareOp::kEq:
      return CompareLanes<CompareOp::kEq>(al, a.type, bl, bt, s, dense, live,
                                          sel);
    case CompareOp::kNe:
      return CompareLanes<CompareOp::kNe>(al, a.type, bl, bt, s, dense, live,
                                          sel);
    case CompareOp::kLt:
      return CompareLanes<CompareOp::kLt>(al, a.type, bl, bt, s, dense, live,
                                          sel);
    case CompareOp::kLe:
      return CompareLanes<CompareOp::kLe>(al, a.type, bl, bt, s, dense, live,
                                          sel);
    case CompareOp::kGt:
      return CompareLanes<CompareOp::kGt>(al, a.type, bl, bt, s, dense, live,
                                          sel);
    case CompareOp::kGe:
      return CompareLanes<CompareOp::kGe>(al, a.type, bl, bt, s, dense, live,
                                          sel);
  }
  return 0;
}

Status BoundPredicate::Narrow(const Conjunct& c, const Block& block,
                              bool dense, SelectionVector* sel, size_t* live,
                              expr::DictMemo* memo) const {
  uint32_t* s = sel->data();
  if (c.kind == Kind::kCompare) {
    const TypeId bt = c.rhs.column >= 0 ? block.columns[c.rhs.column].type
                                        : c.rhs.type;
    // Strings compare under a collation: the generic path handles them.
    if (block.columns[c.lhs.column].type != TypeId::kString &&
        bt != TypeId::kString) {
      *live = NarrowCompare(c, block, dense, s, *live);
      return Status::OK();
    }
  } else if (c.kind == Kind::kDictCode) {
    const ColumnVector& cv = block.columns[c.column];
    if (cv.type == TypeId::kString && cv.heap != nullptr) {
      TDE_ASSIGN_OR_RETURN(const expr::DictTranslation* t,
                           c.dict->Translate(cv.heap, memo));
      const Lane* lanes = cv.lanes.data();
      *live = t->WithPassTest([&](auto pass) {
        return Retain(dense, *live, s,
                      [&](uint32_t r) { return pass(lanes[r]); });
      });
      return Status::OK();
    }
  }
  TDE_ASSIGN_OR_RETURN(ColumnVector mask, c.expr->Eval(block, schema_));
  const Lane* m = mask.lanes.data();
  *live = Retain(dense, *live, s, [&](uint32_t r) { return m[r] == 1; });
  return Status::OK();
}

Status BoundPredicate::Select(const Block& block, SelectionVector* sel,
                              std::vector<expr::DictMemo>* memos) const {
  const size_t n = block.rows();
  sel->resize(n);
  size_t live = n;
  bool dense = true;
  if (memos != nullptr) memos->resize(conjuncts_.size());
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (live == 0) break;
    expr::DictMemo local;
    TDE_RETURN_NOT_OK(Narrow(conjuncts_[i], block, dense, sel, &live,
                             memos != nullptr ? &(*memos)[i] : &local));
    dense = false;
  }
  if (dense) std::iota(sel->begin(), sel->end(), 0u);
  sel->resize(live);
  return Status::OK();
}

Status Filter::Open() {
  TDE_RETURN_NOT_OK(child_->Open());
  bound_.emplace(predicate_, child_->output_schema());
  return Status::OK();
}

Status Filter::Next(Block* block, bool* eos) {
  // Pull until a non-empty filtered block or end of stream, so downstream
  // operators are not flooded with empty blocks.
  while (true) {
    TDE_RETURN_NOT_OK(child_->Next(block, eos));
    if (*eos) return Status::OK();
    const size_t n = block->rows();
    if (n == 0) continue;
    TDE_RETURN_NOT_OK(bound_->Select(*block, &sel_, &memos_));
    rows_in_ += n;
    rows_out_ += sel_.size();
    if (sel_.empty()) continue;
    block->Compact(sel_);
    return Status::OK();
  }
}

}  // namespace tde
