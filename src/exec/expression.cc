#include "src/exec/expression.h"

#include <algorithm>
#include <bit>
#include <cctype>

#include "src/common/collation.h"

namespace tde {
namespace expr {
namespace {

double AsReal(TypeId t, Lane v) {
  if (t == TypeId::kReal) return std::bit_cast<double>(static_cast<uint64_t>(v));
  return static_cast<double>(v);
}

Lane RealLane(double d) {
  return static_cast<Lane>(std::bit_cast<uint64_t>(d));
}

class ColumnExpr : public Expression {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(size_t i, schema.FieldIndex(name_));
    return block.columns[i];  // copy of lanes + shared dictionary context
  }
  Result<TypeId> ResultType(const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(size_t i, schema.FieldIndex(name_));
    return schema.field(i).type;
  }
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  const std::string* AsColumnRef() const override { return &name_; }

 private:
  std::string name_;
};

class LiteralExpr : public Expression {
 public:
  LiteralExpr(TypeId type, Lane value) : type_(type), value_(value) {}

  Result<ColumnVector> Eval(const Block& block, const Schema&) const override {
    ColumnVector out;
    out.type = type_;
    out.lanes.assign(block.rows(), value_);
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override { return type_; }
  std::string ToString() const override { return FormatLane(type_, value_); }
  void CollectColumns(std::vector<std::string>*) const override {}
  bool AsLiteral(TypeId* type, Lane* value) const override {
    *type = type_;
    *value = value_;
    return true;
  }

 private:
  TypeId type_;
  Lane value_;
};

class StringLiteralExpr : public Expression {
 public:
  explicit StringLiteralExpr(std::string v) {
    auto heap = std::make_shared<StringHeap>();
    token_ = heap->Add(v);
    heap_ = std::move(heap);
    text_ = std::move(v);
  }

  Result<ColumnVector> Eval(const Block& block, const Schema&) const override {
    ColumnVector out;
    out.type = TypeId::kString;
    out.lanes.assign(block.rows(), token_);
    out.heap = heap_;
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kString;
  }
  std::string ToString() const override { return "'" + text_ + "'"; }
  void CollectColumns(std::vector<std::string>*) const override {}
  const std::string* AsStringLiteral() const override { return &text_; }

 private:
  std::shared_ptr<const StringHeap> heap_;
  Lane token_ = 0;
  std::string text_;
};

class CompareExpr : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector lv, l_->Eval(block, schema));
    TDE_ASSIGN_OR_RETURN(ColumnVector rv, r_->Eval(block, schema));
    ColumnVector out;
    out.type = TypeId::kBool;
    const size_t n = block.rows();
    out.lanes.resize(n);
    const bool strings = lv.type == TypeId::kString;
    const bool same_sorted_heap =
        strings && lv.heap != nullptr && lv.heap == rv.heap && lv.heap->sorted();
    const bool reals = lv.type == TypeId::kReal || rv.type == TypeId::kReal;
    for (size_t i = 0; i < n; ++i) {
      const Lane a = lv.lanes[i];
      const Lane b = rv.lanes[i];
      if (a == kNullSentinel || b == kNullSentinel) {
        out.lanes[i] = 0;  // comparisons with NULL are false
        continue;
      }
      int cmp;
      if (strings) {
        if (same_sorted_heap) {
          cmp = a < b ? -1 : (a > b ? 1 : 0);
        } else {
          cmp = Collate(lv.heap != nullptr ? lv.heap->collation()
                                           : Collation::kLocale,
                        lv.heap->Get(a), rv.heap->Get(b));
        }
      } else if (reals) {
        cmp = CompareReals(AsReal(lv.type, a), AsReal(rv.type, b));
      } else {
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      }
      bool v = false;
      switch (op_) {
        case CompareOp::kEq: v = cmp == 0; break;
        case CompareOp::kNe: v = cmp != 0; break;
        case CompareOp::kLt: v = cmp < 0; break;
        case CompareOp::kLe: v = cmp <= 0; break;
        case CompareOp::kGt: v = cmp > 0; break;
        case CompareOp::kGe: v = cmp >= 0; break;
      }
      out.lanes[i] = v ? 1 : 0;
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return "(" + l_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
           r_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    l_->CollectColumns(out);
    r_->CollectColumns(out);
  }
  bool AsCompare(CompareOp* op) const override {
    *op = op_;
    return true;
  }
  std::vector<ExprPtr> Children() const override { return {l_, r_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<CompareExpr>(op_, std::move(c[0]), std::move(c[1]));
  }

 private:
  CompareOp op_;
  ExprPtr l_, r_;
};

class ArithExpr : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector lv, l_->Eval(block, schema));
    TDE_ASSIGN_OR_RETURN(ColumnVector rv, r_->Eval(block, schema));
    const bool real = lv.type == TypeId::kReal || rv.type == TypeId::kReal;
    ColumnVector out;
    out.type = real ? TypeId::kReal : TypeId::kInteger;
    const size_t n = block.rows();
    out.lanes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Lane a = lv.lanes[i];
      const Lane b = rv.lanes[i];
      if (a == kNullSentinel || b == kNullSentinel) {
        out.lanes[i] = kNullSentinel;
        continue;
      }
      if (real) {
        const double da = AsReal(lv.type, a);
        const double db = AsReal(rv.type, b);
        double v = 0;
        switch (op_) {
          case ArithOp::kAdd: v = da + db; break;
          case ArithOp::kSub: v = da - db; break;
          case ArithOp::kMul: v = da * db; break;
          case ArithOp::kDiv:
            if (db == 0) {
              out.lanes[i] = kNullSentinel;
              continue;
            }
            v = da / db;
            break;
          case ArithOp::kMod:
            out.lanes[i] = kNullSentinel;
            continue;
        }
        out.lanes[i] = RealLane(v);
      } else {
        switch (op_) {
          case ArithOp::kAdd:
            out.lanes[i] = static_cast<Lane>(static_cast<uint64_t>(a) +
                                             static_cast<uint64_t>(b));
            break;
          case ArithOp::kSub:
            out.lanes[i] = static_cast<Lane>(static_cast<uint64_t>(a) -
                                             static_cast<uint64_t>(b));
            break;
          case ArithOp::kMul:
            out.lanes[i] = static_cast<Lane>(static_cast<uint64_t>(a) *
                                             static_cast<uint64_t>(b));
            break;
          case ArithOp::kDiv:
            out.lanes[i] = b == 0 ? kNullSentinel : a / b;
            break;
          case ArithOp::kMod:
            out.lanes[i] = b == 0 ? kNullSentinel : a % b;
            break;
        }
      }
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(TypeId lt, l_->ResultType(schema));
    TDE_ASSIGN_OR_RETURN(TypeId rt, r_->ResultType(schema));
    return (lt == TypeId::kReal || rt == TypeId::kReal) ? TypeId::kReal
                                                        : TypeId::kInteger;
  }
  std::string ToString() const override {
    static const char* kOps[] = {"+", "-", "*", "/", "%"};
    return "(" + l_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
           r_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    l_->CollectColumns(out);
    r_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override { return {l_, r_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<ArithExpr>(op_, std::move(c[0]), std::move(c[1]));
  }
  bool AsArith(ArithOp* op) const override {
    *op = op_;
    return true;
  }

 private:
  ArithOp op_;
  ExprPtr l_, r_;
};

class LogicalExpr : public Expression {
 public:
  LogicalExpr(bool is_and, ExprPtr l, ExprPtr r)
      : is_and_(is_and), l_(std::move(l)), r_(std::move(r)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector lv, l_->Eval(block, schema));
    TDE_ASSIGN_OR_RETURN(ColumnVector rv, r_->Eval(block, schema));
    ColumnVector out;
    out.type = TypeId::kBool;
    const size_t n = block.rows();
    out.lanes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const bool a = lv.lanes[i] == 1;
      const bool b = rv.lanes[i] == 1;
      out.lanes[i] = (is_and_ ? (a && b) : (a || b)) ? 1 : 0;
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + (is_and_ ? " AND " : " OR ") +
           r_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    l_->CollectColumns(out);
    r_->CollectColumns(out);
  }
  ExprShape Shape() const override {
    return is_and_ ? ExprShape::kAnd : ExprShape::kOr;
  }
  std::vector<ExprPtr> Children() const override { return {l_, r_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<LogicalExpr>(is_and_, std::move(c[0]),
                                         std::move(c[1]));
  }
  bool is_and() const { return is_and_; }

 private:
  bool is_and_;
  ExprPtr l_, r_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr e) : e_(std::move(e)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, e_->Eval(block, schema));
    for (Lane& x : v.lanes) x = (x == 1) ? 0 : 1;
    v.type = TypeId::kBool;
    return v;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override { return "NOT " + e_->ToString(); }
  void CollectColumns(std::vector<std::string>* out) const override {
    e_->CollectColumns(out);
  }
  ExprShape Shape() const override { return ExprShape::kNot; }
  std::vector<ExprPtr> Children() const override { return {e_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<NotExpr>(std::move(c[0]));
  }
  const ExprPtr& child() const { return e_; }

 private:
  ExprPtr e_;
};

class IsNullExpr : public Expression {
 public:
  explicit IsNullExpr(ExprPtr e) : e_(std::move(e)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, e_->Eval(block, schema));
    ColumnVector out;
    out.type = TypeId::kBool;
    out.lanes.resize(v.lanes.size());
    for (size_t i = 0; i < v.lanes.size(); ++i) {
      out.lanes[i] = v.lanes[i] == kNullSentinel ? 1 : 0;
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override {
    return e_->ToString() + " IS NULL";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    e_->CollectColumns(out);
  }
  ExprShape Shape() const override { return ExprShape::kIsNull; }
  std::vector<ExprPtr> Children() const override { return {e_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<IsNullExpr>(std::move(c[0]));
  }

 private:
  ExprPtr e_;
};

class InExpr : public Expression {
 public:
  InExpr(ExprPtr input, std::vector<ExprPtr> values)
      : input_(std::move(input)), values_(std::move(values)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector in, input_->Eval(block, schema));
    std::vector<ColumnVector> vals;
    vals.reserve(values_.size());
    for (const ExprPtr& v : values_) {
      TDE_ASSIGN_OR_RETURN(ColumnVector cv, v->Eval(block, schema));
      vals.push_back(std::move(cv));
    }
    ColumnVector out;
    out.type = TypeId::kBool;
    const size_t n = block.rows();
    out.lanes.assign(n, 0);
    const bool strings = in.type == TypeId::kString;
    for (size_t i = 0; i < n; ++i) {
      const Lane a = in.lanes[i];
      if (a == kNullSentinel) continue;  // NULL never matches
      for (const ColumnVector& vv : vals) {
        const Lane b = vv.lanes[i];
        if (b == kNullSentinel) continue;
        bool eq;
        if (strings) {
          if (in.heap != nullptr && in.heap == vv.heap && in.heap->sorted()) {
            eq = a == b;
          } else {
            eq = Collate(in.heap != nullptr ? in.heap->collation()
                                            : Collation::kLocale,
                         in.heap->Get(a), vv.heap->Get(b)) == 0;
          }
        } else if (in.type == TypeId::kReal || vv.type == TypeId::kReal) {
          eq = CompareReals(AsReal(in.type, a), AsReal(vv.type, b)) == 0;
        } else {
          eq = a == b;
        }
        if (eq) {
          out.lanes[i] = 1;
          break;
        }
      }
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override {
    std::string s = "(" + input_->ToString() + " IN (";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i > 0) s += ", ";
      s += values_[i]->ToString();
    }
    return s + "))";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    input_->CollectColumns(out);
    for (const ExprPtr& v : values_) v->CollectColumns(out);
  }
  ExprShape Shape() const override { return ExprShape::kIn; }
  std::vector<ExprPtr> Children() const override {
    std::vector<ExprPtr> kids = {input_};
    kids.insert(kids.end(), values_.begin(), values_.end());
    return kids;
  }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    ExprPtr input = std::move(c[0]);
    c.erase(c.begin());
    return std::make_shared<InExpr>(std::move(input), std::move(c));
  }

 private:
  ExprPtr input_;
  std::vector<ExprPtr> values_;
};

class LikeExpr : public Expression {
 public:
  LikeExpr(ExprPtr input, std::string pattern)
      : input_(std::move(input)), pattern_(std::move(pattern)) {}

  static size_t CodePointLen(unsigned char lead) {
    if (lead < 0x80) return 1;
    if ((lead >> 5) == 0x6) return 2;
    if ((lead >> 4) == 0xe) return 3;
    if ((lead >> 3) == 0x1e) return 4;
    return 1;  // stray continuation byte: treat as one character
  }

  /// Classic two-pointer glob matcher ('%' = any run of code points,
  /// '_' = exactly one code point). Wildcards count UTF-8 code points, not
  /// bytes; literals compare byte-wise with ASCII case folding, which
  /// matches multi-byte code points exactly (continuation bytes are
  /// fold-invariant).
  static bool Match(std::string_view s, std::string_view p, bool fold_case) {
    auto eq = [fold_case](char a, char b) {
      if (!fold_case) return a == b;
      return std::tolower(static_cast<unsigned char>(a)) ==
             std::tolower(static_cast<unsigned char>(b));
    };
    size_t si = 0, pi = 0;
    size_t star_p = std::string_view::npos, star_s = 0;
    while (si < s.size()) {
      if (pi < p.size() && p[pi] == '%') {
        star_p = pi++;
        star_s = si;
      } else if (pi < p.size() && p[pi] == '_') {
        si += CodePointLen(static_cast<unsigned char>(s[si]));
        ++pi;
      } else if (pi < p.size() && eq(p[pi], s[si])) {
        ++si;
        ++pi;
      } else if (star_p != std::string_view::npos) {
        pi = star_p + 1;
        star_s += CodePointLen(static_cast<unsigned char>(s[star_s]));
        si = star_s;
      } else {
        return false;
      }
    }
    while (pi < p.size() && p[pi] == '%') ++pi;
    return pi == p.size();
  }

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, input_->Eval(block, schema));
    if (v.type != TypeId::kString || v.heap == nullptr) {
      return {Status::InvalidArgument("LIKE over non-string input")};
    }
    const bool fold = v.heap->collation() == Collation::kLocale;
    ColumnVector out;
    out.type = TypeId::kBool;
    out.lanes.resize(v.lanes.size());
    for (size_t i = 0; i < v.lanes.size(); ++i) {
      out.lanes[i] =
          v.lanes[i] != kNullSentinel &&
                  Match(v.heap->Get(v.lanes[i]), pattern_, fold)
              ? 1
              : 0;
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return TypeId::kBool;
  }
  std::string ToString() const override {
    return "(" + input_->ToString() + " LIKE '" + pattern_ + "')";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    input_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override { return {input_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<LikeExpr>(std::move(c[0]), pattern_);
  }
  const std::string* AsLikePattern() const override { return &pattern_; }

 private:
  ExprPtr input_;
  std::string pattern_;
};

class CaseExpr : public Expression {
 public:
  CaseExpr(std::vector<CaseBranch> branches, ExprPtr otherwise)
      : branches_(std::move(branches)), otherwise_(std::move(otherwise)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    std::vector<ColumnVector> conds, vals;
    for (const CaseBranch& b : branches_) {
      TDE_ASSIGN_OR_RETURN(ColumnVector c, b.condition->Eval(block, schema));
      TDE_ASSIGN_OR_RETURN(ColumnVector v, b.value->Eval(block, schema));
      conds.push_back(std::move(c));
      vals.push_back(std::move(v));
    }
    ColumnVector other;
    if (otherwise_ != nullptr) {
      TDE_ASSIGN_OR_RETURN(other, otherwise_->Eval(block, schema));
    }
    ColumnVector out;
    TDE_ASSIGN_OR_RETURN(TypeId t, ResultType(schema));
    out.type = t;
    const size_t n = block.rows();
    out.lanes.assign(n, kNullSentinel);
    // String branches may carry tokens into *different* heaps (each string
    // literal owns its own), so the selected lane cannot be copied as-is
    // under a single output heap: resolve it to text and re-add it into a
    // merged heap. Fast path: every string source already shares one heap.
    bool same_heap = true;
    const StringHeap* first_heap =
        !vals.empty() ? vals[0].heap.get() : nullptr;
    for (const ColumnVector& v : vals) {
      same_heap = same_heap && v.heap.get() == first_heap;
    }
    if (otherwise_ != nullptr) {
      same_heap = same_heap && other.heap.get() == first_heap;
    }
    std::shared_ptr<StringHeap> merged;
    if (t == TypeId::kString && !same_heap) {
      merged = std::make_shared<StringHeap>(
          first_heap != nullptr ? first_heap->collation()
                                : Collation::kLocale);
      merged->set_may_repeat(true);
    }
    auto emit = [&](size_t i, const ColumnVector& src) {
      const Lane lane = src.lanes[i];
      if (merged == nullptr || lane == kNullSentinel ||
          src.heap == nullptr) {
        out.lanes[i] = lane;
        return;
      }
      out.lanes[i] = merged->Add(src.heap->Get(lane));
    };
    for (size_t i = 0; i < n; ++i) {
      bool taken = false;
      for (size_t b = 0; b < branches_.size(); ++b) {
        if (conds[b].lanes[i] == 1) {
          emit(i, vals[b]);
          taken = true;
          break;
        }
      }
      if (!taken && otherwise_ != nullptr) emit(i, other);
    }
    if (merged != nullptr) {
      out.heap = std::move(merged);
    } else if (!vals.empty() && vals[0].heap != nullptr) {
      out.heap = vals[0].heap;
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema& schema) const override {
    return branches_[0].value->ResultType(schema);
  }
  std::string ToString() const override {
    std::string s = "CASE";
    for (const CaseBranch& b : branches_) {
      s += " WHEN " + b.condition->ToString() + " THEN " +
           b.value->ToString();
    }
    if (otherwise_ != nullptr) s += " ELSE " + otherwise_->ToString();
    return s + " END";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    for (const CaseBranch& b : branches_) {
      b.condition->CollectColumns(out);
      b.value->CollectColumns(out);
    }
    if (otherwise_ != nullptr) otherwise_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override {
    std::vector<ExprPtr> kids;
    for (const CaseBranch& b : branches_) {
      kids.push_back(b.condition);
      kids.push_back(b.value);
    }
    if (otherwise_ != nullptr) kids.push_back(otherwise_);
    return kids;
  }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    std::vector<CaseBranch> branches(branches_.size());
    for (size_t b = 0; b < branches.size(); ++b) {
      branches[b] = {std::move(c[2 * b]), std::move(c[2 * b + 1])};
    }
    ExprPtr otherwise =
        otherwise_ != nullptr ? std::move(c.back()) : nullptr;
    return std::make_shared<CaseExpr>(std::move(branches),
                                      std::move(otherwise));
  }
  bool AsCase(size_t* branches, bool* has_else) const override {
    *branches = branches_.size();
    *has_else = otherwise_ != nullptr;
    return true;
  }

 private:
  std::vector<CaseBranch> branches_;
  ExprPtr otherwise_;
};

class DateFuncExpr : public Expression {
 public:
  DateFuncExpr(DateFunc f, ExprPtr e) : f_(f), e_(std::move(e)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, e_->Eval(block, schema));
    ColumnVector out;
    out.type = (f_ == DateFunc::kTruncMonth || f_ == DateFunc::kTruncYear)
                   ? TypeId::kDate
                   : TypeId::kInteger;
    out.lanes.resize(v.lanes.size());
    for (size_t i = 0; i < v.lanes.size(); ++i) {
      const Lane d = v.lanes[i];
      if (d == kNullSentinel) {
        out.lanes[i] = kNullSentinel;
        continue;
      }
      switch (f_) {
        case DateFunc::kYear: out.lanes[i] = DateYear(d); break;
        case DateFunc::kMonth: out.lanes[i] = DateMonth(d); break;
        case DateFunc::kDay: out.lanes[i] = DateDay(d); break;
        case DateFunc::kTruncMonth: out.lanes[i] = TruncateToMonth(d); break;
        case DateFunc::kTruncYear: out.lanes[i] = TruncateToYear(d); break;
      }
    }
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return (f_ == DateFunc::kTruncMonth || f_ == DateFunc::kTruncYear)
               ? TypeId::kDate
               : TypeId::kInteger;
  }
  std::string ToString() const override {
    static const char* kNames[] = {"YEAR", "MONTH", "DAY", "TRUNC_MONTH",
                                   "TRUNC_YEAR"};
    return std::string(kNames[static_cast<int>(f_)]) + "(" + e_->ToString() +
           ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    e_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override { return {e_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<DateFuncExpr>(f_, std::move(c[0]));
  }
  bool AsDateFunc(DateFunc* f) const override {
    *f = f_;
    return true;
  }

 private:
  DateFunc f_;
  ExprPtr e_;
};

class StrFuncExpr : public Expression {
 public:
  StrFuncExpr(StrFunc f, ExprPtr e) : f_(f), e_(std::move(e)) {}

  Result<ColumnVector> Eval(const Block& block,
                            const Schema& schema) const override {
    TDE_ASSIGN_OR_RETURN(ColumnVector v, e_->Eval(block, schema));
    if (v.type != TypeId::kString || v.heap == nullptr) {
      return {Status::InvalidArgument("string function over non-string input")};
    }
    ColumnVector out;
    if (f_ == StrFunc::kLength) {
      out.type = TypeId::kInteger;
      out.lanes.resize(v.lanes.size());
      for (size_t i = 0; i < v.lanes.size(); ++i) {
        out.lanes[i] = v.lanes[i] == kNullSentinel
                           ? kNullSentinel
                           : static_cast<Lane>(v.heap->Get(v.lanes[i]).size());
      }
      return out;
    }
    // String producers: the string function library cannot estimate the
    // result domain ahead of time (Sect. 4.1.2), so the output is a fresh
    // heap with wide tokens; FlowTable later sorts and minimizes it.
    // Equal results are not deduplicated here: a filter or projection
    // never needs it, and consumers that compare tokens see the flag.
    auto heap = std::make_shared<StringHeap>(v.heap->collation());
    heap->set_may_repeat(true);
    out.type = TypeId::kString;
    out.lanes.resize(v.lanes.size());
    std::string tmp;
    for (size_t i = 0; i < v.lanes.size(); ++i) {
      if (v.lanes[i] == kNullSentinel) {
        out.lanes[i] = kNullSentinel;
        continue;
      }
      const std::string_view s = v.heap->Get(v.lanes[i]);
      tmp.assign(s);
      switch (f_) {
        case StrFunc::kUpper:
          std::transform(tmp.begin(), tmp.end(), tmp.begin(), [](char c) {
            return static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
          });
          break;
        case StrFunc::kLower:
          std::transform(tmp.begin(), tmp.end(), tmp.begin(), [](char c) {
            return static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
          });
          break;
        case StrFunc::kExtension: {
          const size_t dot = tmp.rfind('.');
          const size_t slash = tmp.rfind('/');
          if (dot == std::string::npos ||
              (slash != std::string::npos && dot < slash)) {
            tmp.clear();
          } else {
            tmp = tmp.substr(dot + 1);
            // Strip any query string.
            const size_t q = tmp.find('?');
            if (q != std::string::npos) tmp.resize(q);
          }
          break;
        }
        case StrFunc::kLength:
          break;  // handled above
      }
      out.lanes[i] = heap->Add(tmp);
    }
    out.heap = std::move(heap);
    return out;
  }
  Result<TypeId> ResultType(const Schema&) const override {
    return f_ == StrFunc::kLength ? TypeId::kInteger : TypeId::kString;
  }
  std::string ToString() const override {
    static const char* kNames[] = {"UPPER", "LOWER", "LENGTH", "EXTENSION"};
    return std::string(kNames[static_cast<int>(f_)]) + "(" + e_->ToString() +
           ")";
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    e_->CollectColumns(out);
  }
  std::vector<ExprPtr> Children() const override { return {e_}; }
  ExprPtr WithChildren(std::vector<ExprPtr> c) const override {
    return std::make_shared<StrFuncExpr>(f_, std::move(c[0]));
  }
  bool AsStrFunc(StrFunc* f) const override {
    *f = f_;
    return true;
  }

 private:
  StrFunc f_;
  ExprPtr e_;
};

}  // namespace

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr Int(int64_t v) {
  return std::make_shared<LiteralExpr>(TypeId::kInteger, v);
}
ExprPtr Real(double v) {
  return std::make_shared<LiteralExpr>(TypeId::kReal, RealLane(v));
}
ExprPtr Bool(bool v) {
  return std::make_shared<LiteralExpr>(TypeId::kBool, v ? 1 : 0);
}
ExprPtr Str(std::string v) {
  return std::make_shared<StringLiteralExpr>(std::move(v));
}
ExprPtr Date(int year, unsigned month, unsigned day) {
  return std::make_shared<LiteralExpr>(TypeId::kDate,
                                       DaysFromCivil(year, month, day));
}
ExprPtr Null(TypeId type) {
  return std::make_shared<LiteralExpr>(type, kNullSentinel);
}
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(op, std::move(l), std::move(r));
}
ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(op, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(true, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(false, std::move(l), std::move(r));
}
ExprPtr Not(ExprPtr e) { return std::make_shared<NotExpr>(std::move(e)); }
ExprPtr IsNull(ExprPtr e) { return std::make_shared<IsNullExpr>(std::move(e)); }
ExprPtr In(ExprPtr input, std::vector<ExprPtr> values) {
  return std::make_shared<InExpr>(std::move(input), std::move(values));
}
ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_shared<LikeExpr>(std::move(input), std::move(pattern));
}
ExprPtr Case(std::vector<CaseBranch> branches, ExprPtr otherwise) {
  return std::make_shared<CaseExpr>(std::move(branches),
                                    std::move(otherwise));
}
ExprPtr DateF(DateFunc f, ExprPtr e) {
  return std::make_shared<DateFuncExpr>(f, std::move(e));
}
ExprPtr StrF(StrFunc f, ExprPtr e) {
  return std::make_shared<StrFuncExpr>(f, std::move(e));
}

namespace {

/// Evaluates a column-free scalar subtree down to a literal, if possible.
ExprPtr TryFoldConstant(const ExprPtr& e) {
  TypeId t;
  Lane v;
  if (e->AsLiteral(&t, &v)) return nullptr;  // already minimal
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  if (!cols.empty()) return nullptr;
  Schema dummy_schema;
  dummy_schema.AddField({"$fold", TypeId::kInteger});
  auto rt = e->ResultType(dummy_schema);
  if (!rt.ok() || rt.value() == TypeId::kString) return nullptr;
  Block b;
  b.columns.resize(1);
  b.columns[0].type = TypeId::kInteger;
  b.columns[0].lanes = {0};
  auto r = e->Eval(b, dummy_schema);
  if (!r.ok() || r.value().lanes.size() != 1) return nullptr;
  return std::make_shared<LiteralExpr>(rt.value(), r.value().lanes[0]);
}

bool IsBoolLiteral(const ExprPtr& e, bool* value) {
  TypeId t;
  Lane v;
  if (!e->AsLiteral(&t, &v) || t != TypeId::kBool) return false;
  *value = v == 1;
  return true;
}

}  // namespace

ExprPtr Simplify(const ExprPtr& e) {
  // Bottom-up: simplify children, rebuild if any changed.
  ExprPtr cur = e;
  std::vector<ExprPtr> kids = e->Children();
  if (!kids.empty()) {
    bool changed = false;
    for (ExprPtr& k : kids) {
      ExprPtr s = Simplify(k);
      changed = changed || s.get() != k.get();
      k = std::move(s);
    }
    if (changed) {
      if (ExprPtr rebuilt = e->WithChildren(std::move(kids))) {
        cur = std::move(rebuilt);
      }
    }
    kids = cur->Children();
  }
  // Constant folding.
  if (ExprPtr folded = TryFoldConstant(cur)) return folded;
  // Boolean identities.
  if (const auto* lg = dynamic_cast<const LogicalExpr*>(cur.get())) {
    bool lv, rv;
    const bool l_lit = IsBoolLiteral(kids[0], &lv);
    const bool r_lit = IsBoolLiteral(kids[1], &rv);
    if (lg->is_and()) {
      if (l_lit) return lv ? kids[1] : Bool(false);
      if (r_lit) return rv ? kids[0] : Bool(false);
    } else {
      if (l_lit) return lv ? Bool(true) : kids[1];
      if (r_lit) return rv ? Bool(true) : kids[0];
    }
  }
  if (const auto* nt = dynamic_cast<const NotExpr*>(cur.get())) {
    if (const auto* inner = dynamic_cast<const NotExpr*>(nt->child().get())) {
      return inner->child();
    }
  }
  return cur;
}

ExprPtr RenameColumns(const ExprPtr& e,
                      const std::map<std::string, std::string>& rename) {
  if (const std::string* name = e->AsColumnRef()) {
    const auto it = rename.find(*name);
    return it == rename.end() ? e : Col(it->second);
  }
  std::vector<ExprPtr> kids = e->Children();
  if (kids.empty()) return e;
  bool changed = false;
  for (ExprPtr& k : kids) {
    ExprPtr s = RenameColumns(k, rename);
    changed = changed || s.get() != k.get();
    k = std::move(s);
  }
  if (!changed) return e;
  ExprPtr rebuilt = e->WithChildren(std::move(kids));
  return rebuilt != nullptr ? rebuilt : e;
}

}  // namespace expr
}  // namespace tde
