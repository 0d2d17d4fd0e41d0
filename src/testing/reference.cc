#include "src/testing/reference.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <set>
#include <utility>

#include "src/common/collation.h"

namespace tde {
namespace testing {
namespace {

RefValue NullOf(TypeId t) {
  RefValue v;
  v.type = t;
  v.null = true;
  return v;
}

RefValue BoolVal(bool b) {
  RefValue v;
  v.type = TypeId::kBool;
  v.null = false;
  v.i = b ? 1 : 0;
  return v;
}

RefValue IntVal(TypeId t, int64_t x) {
  RefValue v;
  v.type = t;
  v.null = false;
  v.i = x;
  return v;
}

RefValue RealVal(double d) {
  RefValue v;
  v.type = TypeId::kReal;
  v.null = false;
  v.d = d;
  return v;
}

RefValue StrVal(std::string s) {
  RefValue v;
  v.type = TypeId::kString;
  v.null = false;
  v.s = std::move(s);
  return v;
}

double AsDouble(const RefValue& v) {
  return v.type == TypeId::kReal ? v.d : static_cast<double>(v.i);
}

/// Mirrors the engine's boolean consumption: connectives and filters treat
/// a lane as true iff it equals 1; a NULL lane is never 1, so NULL acts as
/// false. Reals mirror the raw-lane check bit for bit; strings are tokens
/// in the engine and are never meaningfully truthy.
bool Truthy(const RefValue& v) {
  if (v.null) return false;
  if (v.type == TypeId::kReal) {
    return std::bit_cast<int64_t>(v.d) == 1;
  }
  if (v.type == TypeId::kString) return false;
  return v.i == 1;
}

size_t CodePointLen(unsigned char lead) {
  if (lead < 0x80) return 1;
  if ((lead >> 5) == 0x6) return 2;
  if ((lead >> 4) == 0xe) return 3;
  if ((lead >> 3) == 0x1e) return 4;
  return 1;  // stray continuation byte: treat as one character
}

bool CodePointEq(std::string_view a, size_t alen, std::string_view b,
                 size_t blen, bool fold_case) {
  if (alen == 1 && blen == 1) {
    if (!fold_case) return a[0] == b[0];
    return std::tolower(static_cast<unsigned char>(a[0])) ==
           std::tolower(static_cast<unsigned char>(b[0]));
  }
  return alen == blen && a.substr(0, alen) == b.substr(0, blen);
}

}  // namespace

bool ReferenceLikeMatch(std::string_view s, std::string_view p,
                        bool fold_case) {
  if (p.empty()) return s.empty();
  const unsigned char pc = static_cast<unsigned char>(p[0]);
  if (pc == '%') {
    // Any run of characters: try every code point boundary, including the
    // end of the string.
    size_t i = 0;
    while (true) {
      if (ReferenceLikeMatch(s.substr(i), p.substr(1), fold_case)) {
        return true;
      }
      if (i >= s.size()) return false;
      i += CodePointLen(static_cast<unsigned char>(s[i]));
    }
  }
  if (s.empty()) return false;
  const size_t slen = CodePointLen(static_cast<unsigned char>(s[0]));
  if (pc == '_') {
    return ReferenceLikeMatch(s.substr(slen), p.substr(1), fold_case);
  }
  const size_t plen = CodePointLen(pc);
  if (!CodePointEq(p, plen, s, slen, fold_case)) return false;
  return ReferenceLikeMatch(s.substr(slen), p.substr(plen), fold_case);
}

int CompareRefValues(const RefValue& a, const RefValue& b) {
  if (a.type == TypeId::kString || b.type == TypeId::kString) {
    return Collate(Collation::kLocale, a.s, b.s);
  }
  if (a.type == TypeId::kReal || b.type == TypeId::kReal) {
    // Same total order as the engine (CompareReals): NaN equals NaN and
    // sorts above every number, so NaN-seeded data cannot produce a
    // comparator that is not a strict weak ordering on either side.
    return CompareReals(AsDouble(a), AsDouble(b));
  }
  return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
}

std::string RefValueString(const RefValue& v) {
  if (v.null) return "NULL";
  if (v.type == TypeId::kString) return v.s;
  if (v.type == TypeId::kReal) {
    return FormatLane(TypeId::kReal,
                      static_cast<Lane>(std::bit_cast<uint64_t>(v.d)));
  }
  return FormatLane(v.type, v.i);
}

namespace {

using Row = std::vector<RefValue>;

Status OracleError(const std::string& what) {
  return Status::InvalidArgument("reference interpreter: " + what);
}

Result<size_t> FieldIndex(const std::vector<RefField>& fields,
                          const std::string& name) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == name) return i;
  }
  return {OracleError("unknown column '" + name + "'")};
}

/// Row-at-a-time expression evaluation mirroring the documented engine
/// semantics (see DESIGN.md, "The reference semantics contract").
Result<RefValue> EvalExpr(const ExprPtr& e, const std::vector<RefField>& fields,
                          const Row& row) {
  // Column reference.
  if (const std::string* name = e->AsColumnRef()) {
    TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(fields, *name));
    return row[i];
  }
  // String literal.
  if (const std::string* text = e->AsStringLiteral()) {
    return StrVal(*text);
  }
  // Scalar literal.
  {
    TypeId t;
    Lane v;
    if (e->AsLiteral(&t, &v)) {
      if (v == kNullSentinel) return NullOf(t);
      if (t == TypeId::kReal) {
        return RealVal(std::bit_cast<double>(static_cast<uint64_t>(v)));
      }
      return IntVal(t, v);
    }
  }
  const std::vector<ExprPtr> kids = e->Children();
  // Comparison: NULL on either side is false; strings collate; a real on
  // either side promotes to double.
  {
    CompareOp op;
    if (e->AsCompare(&op)) {
      TDE_ASSIGN_OR_RETURN(RefValue l, EvalExpr(kids[0], fields, row));
      TDE_ASSIGN_OR_RETURN(RefValue r, EvalExpr(kids[1], fields, row));
      if (l.null || r.null) return BoolVal(false);
      if ((l.type == TypeId::kString) != (r.type == TypeId::kString)) {
        return {OracleError("comparison between string and non-string")};
      }
      const int cmp = CompareRefValues(l, r);
      switch (op) {
        case CompareOp::kEq: return BoolVal(cmp == 0);
        case CompareOp::kNe: return BoolVal(cmp != 0);
        case CompareOp::kLt: return BoolVal(cmp < 0);
        case CompareOp::kLe: return BoolVal(cmp <= 0);
        case CompareOp::kGt: return BoolVal(cmp > 0);
        case CompareOp::kGe: return BoolVal(cmp >= 0);
      }
      return BoolVal(false);
    }
  }
  // Arithmetic: NULL propagates; division/modulo by zero is NULL; integer
  // ops wrap two's-complement; a real operand promotes the result.
  {
    ArithOp op;
    if (e->AsArith(&op)) {
      TDE_ASSIGN_OR_RETURN(RefValue l, EvalExpr(kids[0], fields, row));
      TDE_ASSIGN_OR_RETURN(RefValue r, EvalExpr(kids[1], fields, row));
      if (l.type == TypeId::kString || r.type == TypeId::kString) {
        return {OracleError("arithmetic over strings")};
      }
      const bool real = l.type == TypeId::kReal || r.type == TypeId::kReal;
      const TypeId out = real ? TypeId::kReal : TypeId::kInteger;
      if (l.null || r.null) return NullOf(out);
      if (real) {
        const double a = AsDouble(l);
        const double b = AsDouble(r);
        switch (op) {
          case ArithOp::kAdd: return RealVal(a + b);
          case ArithOp::kSub: return RealVal(a - b);
          case ArithOp::kMul: return RealVal(a * b);
          case ArithOp::kDiv:
            return b == 0 ? NullOf(out) : RealVal(a / b);
          case ArithOp::kMod: return NullOf(out);
        }
        return NullOf(out);
      }
      const uint64_t a = static_cast<uint64_t>(l.i);
      const uint64_t b = static_cast<uint64_t>(r.i);
      switch (op) {
        case ArithOp::kAdd: return IntVal(out, static_cast<int64_t>(a + b));
        case ArithOp::kSub: return IntVal(out, static_cast<int64_t>(a - b));
        case ArithOp::kMul: return IntVal(out, static_cast<int64_t>(a * b));
        case ArithOp::kDiv:
          return r.i == 0 ? NullOf(out) : IntVal(out, l.i / r.i);
        case ArithOp::kMod:
          return r.i == 0 ? NullOf(out) : IntVal(out, l.i % r.i);
      }
      return NullOf(out);
    }
  }
  // Connectives, IS NULL, IN.
  switch (e->Shape()) {
    case ExprShape::kAnd:
    case ExprShape::kOr: {
      TDE_ASSIGN_OR_RETURN(RefValue l, EvalExpr(kids[0], fields, row));
      TDE_ASSIGN_OR_RETURN(RefValue r, EvalExpr(kids[1], fields, row));
      const bool a = Truthy(l);
      const bool b = Truthy(r);
      return BoolVal(e->Shape() == ExprShape::kAnd ? (a && b) : (a || b));
    }
    case ExprShape::kNot: {
      TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[0], fields, row));
      // Two-valued: NOT of anything that is not exactly TRUE is TRUE —
      // NOT (x < NULL) is TRUE under the sentinel model.
      return BoolVal(!Truthy(v));
    }
    case ExprShape::kIsNull: {
      TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[0], fields, row));
      return BoolVal(v.null);
    }
    case ExprShape::kIn: {
      TDE_ASSIGN_OR_RETURN(RefValue in, EvalExpr(kids[0], fields, row));
      if (in.null) return BoolVal(false);  // NULL never matches
      for (size_t k = 1; k < kids.size(); ++k) {
        TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[k], fields, row));
        if (v.null) continue;
        if ((in.type == TypeId::kString) != (v.type == TypeId::kString)) {
          return {OracleError("IN between string and non-string")};
        }
        if (CompareRefValues(in, v) == 0) return BoolVal(true);
      }
      return BoolVal(false);
    }
    default:
      break;
  }
  // LIKE.
  if (const std::string* pattern = e->AsLikePattern()) {
    TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[0], fields, row));
    if (v.type != TypeId::kString) {
      return {OracleError("LIKE over non-string input")};
    }
    if (v.null) return BoolVal(false);
    // Locale collation folds case; every heap in this engine collates
    // locale by default.
    return BoolVal(ReferenceLikeMatch(v.s, *pattern, /*fold_case=*/true));
  }
  // Date functions.
  {
    DateFunc f;
    if (e->AsDateFunc(&f)) {
      TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[0], fields, row));
      const TypeId out =
          (f == DateFunc::kTruncMonth || f == DateFunc::kTruncYear)
              ? TypeId::kDate
              : TypeId::kInteger;
      if (v.null) return NullOf(out);
      switch (f) {
        case DateFunc::kYear: return IntVal(out, DateYear(v.i));
        case DateFunc::kMonth: return IntVal(out, DateMonth(v.i));
        case DateFunc::kDay: return IntVal(out, DateDay(v.i));
        case DateFunc::kTruncMonth: return IntVal(out, TruncateToMonth(v.i));
        case DateFunc::kTruncYear: return IntVal(out, TruncateToYear(v.i));
      }
      return NullOf(out);
    }
  }
  // String functions.
  {
    StrFunc f;
    if (e->AsStrFunc(&f)) {
      TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(kids[0], fields, row));
      if (v.type != TypeId::kString) {
        return {OracleError("string function over non-string input")};
      }
      const TypeId out =
          f == StrFunc::kLength ? TypeId::kInteger : TypeId::kString;
      if (v.null) return NullOf(out);
      switch (f) {
        case StrFunc::kLength:
          return IntVal(out, static_cast<int64_t>(v.s.size()));
        case StrFunc::kUpper: {
          std::string t = v.s;
          std::transform(t.begin(), t.end(), t.begin(), [](char c) {
            return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          });
          return StrVal(std::move(t));
        }
        case StrFunc::kLower: {
          std::string t = v.s;
          std::transform(t.begin(), t.end(), t.begin(), [](char c) {
            return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          });
          return StrVal(std::move(t));
        }
        case StrFunc::kExtension: {
          std::string t = v.s;
          const size_t dot = t.rfind('.');
          const size_t slash = t.rfind('/');
          if (dot == std::string::npos ||
              (slash != std::string::npos && dot < slash)) {
            t.clear();
          } else {
            t = t.substr(dot + 1);
            const size_t q = t.find('?');
            if (q != std::string::npos) t.resize(q);
          }
          return StrVal(std::move(t));
        }
      }
      return NullOf(out);
    }
  }
  // CASE: every branch evaluates (errors in untaken branches propagate,
  // as in the block-at-a-time engine); the first true condition wins.
  {
    size_t nbranches;
    bool has_else;
    if (e->AsCase(&nbranches, &has_else)) {
      std::vector<RefValue> conds(nbranches), vals(nbranches);
      for (size_t b = 0; b < nbranches; ++b) {
        TDE_ASSIGN_OR_RETURN(conds[b], EvalExpr(kids[2 * b], fields, row));
        TDE_ASSIGN_OR_RETURN(vals[b], EvalExpr(kids[2 * b + 1], fields, row));
      }
      RefValue other = NullOf(vals.empty() ? TypeId::kInteger : vals[0].type);
      if (has_else) {
        TDE_ASSIGN_OR_RETURN(other, EvalExpr(kids.back(), fields, row));
      }
      for (size_t b = 0; b < nbranches; ++b) {
        if (Truthy(conds[b])) return vals[b];
      }
      return other;
    }
  }
  return {OracleError("unsupported expression: " + e->ToString())};
}

struct RefRelation {
  std::vector<RefField> fields;
  std::vector<Row> rows;
};

Schema ToSchema(const std::vector<RefField>& fields) {
  Schema s;
  for (const RefField& f : fields) s.AddField({f.name, f.type});
  return s;
}

/// Grouping/join-key comparator: NULL is one key value (grouped together,
/// below everything), then the reference value ordering.
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].null != b[i].null) return a[i].null;
      if (a[i].null) continue;
      const int cmp = CompareRefValues(a[i], b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

struct AggAccum {
  uint64_t n = 0;
  __int128 sum_i = 0;
  double sum_d = 0;
  bool seen = false;
  RefValue best;                 // MIN/MAX champion
  std::vector<RefValue> values;  // MEDIAN
  std::set<RefValue, bool (*)(const RefValue&, const RefValue&)> distinct{
      [](const RefValue& a, const RefValue& b) {
        return CompareRefValues(a, b) < 0;
      }};
};

Status Accumulate(AggKind kind, TypeId in_type, const RefValue& v,
                  AggAccum* s) {
  if (kind == AggKind::kCountStar) {
    ++s->n;
    return Status::OK();
  }
  if (v.null) return Status::OK();  // aggregates ignore NULLs
  switch (kind) {
    case AggKind::kCountStar:
      break;
    case AggKind::kCount:
      ++s->n;
      break;
    case AggKind::kSum:
      if (in_type == TypeId::kReal) {
        s->sum_d += v.d;
      } else {
        s->sum_i += v.i;
        if (s->sum_i > INT64_MAX || s->sum_i < INT64_MIN) {
          return Status::OutOfRange(
              "integer overflow in SUM: result exceeds int64");
        }
      }
      ++s->n;
      break;
    case AggKind::kMin:
      if (!s->seen || CompareRefValues(v, s->best) < 0) s->best = v;
      s->seen = true;
      break;
    case AggKind::kMax:
      if (!s->seen || CompareRefValues(v, s->best) > 0) s->best = v;
      s->seen = true;
      break;
    case AggKind::kAvg:
      s->sum_d += AsDouble(v);
      ++s->n;
      break;
    case AggKind::kCountDistinct:
      s->distinct.insert(v);
      break;
    case AggKind::kMedian:
      s->values.push_back(v);
      break;
  }
  return Status::OK();
}

RefValue FinalizeAccum(AggKind kind, TypeId in_type, AggAccum* s) {
  const TypeId out = agg_internal::OutputType(kind, in_type);
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return IntVal(out, static_cast<int64_t>(s->n));
    case AggKind::kSum:
      if (s->n == 0) return NullOf(out);
      return in_type == TypeId::kReal
                 ? RealVal(s->sum_d)
                 : IntVal(out, static_cast<int64_t>(s->sum_i));
    case AggKind::kMin:
    case AggKind::kMax:
      return s->seen ? s->best : NullOf(out);
    case AggKind::kAvg:
      return s->n == 0 ? NullOf(out)
                       : RealVal(s->sum_d / static_cast<double>(s->n));
    case AggKind::kCountDistinct:
      return IntVal(out, static_cast<int64_t>(s->distinct.size()));
    case AggKind::kMedian: {
      if (s->values.empty()) return NullOf(out);
      std::stable_sort(s->values.begin(), s->values.end(),
                       [](const RefValue& a, const RefValue& b) {
                         return CompareRefValues(a, b) < 0;
                       });
      return s->values[(s->values.size() - 1) / 2];  // lower median
    }
  }
  return NullOf(out);
}

Result<RefRelation> EvalPlan(const PlanNodePtr& node,
                             const std::map<std::string, const RefTable*>& tables);

Result<RefRelation> EvalScan(const PlanNode& node,
                             const std::map<std::string, const RefTable*>& tables) {
  if (!node.code_columns.empty()) {
    return {OracleError("scan carries rewrite-only column lists")};
  }
  if (node.table == nullptr) return {OracleError("scan without table")};
  const auto it = tables.find(node.table->name());
  if (it == tables.end()) {
    return {OracleError("no decoded table '" + node.table->name() + "'")};
  }
  const RefTable& t = *it->second;
  RefRelation out;
  if (node.columns.empty()) {
    out.fields = t.fields;
    out.rows = t.rows;
    return out;
  }
  std::vector<size_t> idx;
  for (const std::string& c : node.columns) {
    TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(t.fields, c));
    idx.push_back(i);
    out.fields.push_back(t.fields[i]);
  }
  out.rows.reserve(t.rows.size());
  for (const Row& r : t.rows) {
    Row slim;
    slim.reserve(idx.size());
    for (size_t i : idx) slim.push_back(r[i]);
    out.rows.push_back(std::move(slim));
  }
  return out;
}

Result<RefRelation> EvalAggregate(const PlanNode& node, RefRelation in) {
  if (node.metadata_answered || node.fold_runs) {
    return {OracleError("aggregate carries rewrite-only flags")};
  }
  const AggregateOptions& opt = node.agg;
  std::vector<size_t> key_idx;
  for (const std::string& k : opt.group_by) {
    TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(in.fields, k));
    key_idx.push_back(i);
  }
  std::vector<size_t> agg_idx(opt.aggs.size(), 0);
  std::vector<TypeId> agg_type(opt.aggs.size(), TypeId::kInteger);
  for (size_t a = 0; a < opt.aggs.size(); ++a) {
    if (opt.aggs[a].kind == AggKind::kCountStar) continue;
    TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(in.fields, opt.aggs[a].input));
    agg_idx[a] = i;
    agg_type[a] = in.fields[i].type;
  }

  std::map<Row, size_t, KeyLess> group_of;
  std::vector<Row> group_keys;                   // first-seen order
  std::vector<std::vector<AggAccum>> states;     // one per group
  for (const Row& r : in.rows) {
    Row key;
    key.reserve(key_idx.size());
    for (size_t i : key_idx) key.push_back(r[i]);
    auto [it, inserted] = group_of.try_emplace(key, group_keys.size());
    if (inserted) {
      group_keys.push_back(std::move(key));
      states.emplace_back(opt.aggs.size());
    }
    std::vector<AggAccum>& s = states[it->second];
    for (size_t a = 0; a < opt.aggs.size(); ++a) {
      TDE_RETURN_NOT_OK(
          Accumulate(opt.aggs[a].kind, agg_type[a], r[agg_idx[a]], &s[a]));
    }
  }
  // A grand aggregate (no keys) over zero rows still yields one row.
  if (opt.group_by.empty() && group_keys.empty()) {
    group_keys.emplace_back();
    states.emplace_back(opt.aggs.size());
  }

  RefRelation out;
  for (size_t i : key_idx) out.fields.push_back(in.fields[i]);
  for (size_t a = 0; a < opt.aggs.size(); ++a) {
    out.fields.push_back(
        {opt.aggs[a].output,
         agg_internal::OutputType(opt.aggs[a].kind, agg_type[a])});
  }
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row r = group_keys[g];
    for (size_t a = 0; a < opt.aggs.size(); ++a) {
      r.push_back(FinalizeAccum(opt.aggs[a].kind, agg_type[a], &states[g][a]));
    }
    out.rows.push_back(std::move(r));
  }
  return out;
}

Result<RefRelation> EvalJoin(const PlanNode& node, RefRelation outer,
                             const std::map<std::string, const RefTable*>& tables) {
  if (node.inner_table == nullptr) return {OracleError("join without inner")};
  if (node.inner_predicate != nullptr) {
    return {OracleError("join carries a rewrite-only inner predicate")};
  }
  const auto it = tables.find(node.inner_table->name());
  if (it == tables.end()) {
    return {OracleError("no decoded table '" + node.inner_table->name() + "'")};
  }
  const RefTable& inner = *it->second;
  TDE_ASSIGN_OR_RETURN(size_t outer_key, FieldIndex(outer.fields, node.join.outer_key));
  TDE_ASSIGN_OR_RETURN(size_t inner_key, FieldIndex(inner.fields, node.join.inner_key));
  std::vector<size_t> payload_idx;
  for (const std::string& p : node.join.inner_payload) {
    TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(inner.fields, p));
    payload_idx.push_back(i);
  }
  // Many-to-one: the inner key must be unique. NULL is a key value like
  // any other (Tableau join semantics): a NULL outer key matches the one
  // inner row whose key is NULL, and a second NULL inner key is a
  // duplicate.
  std::map<Row, size_t, KeyLess> inner_of;
  for (size_t r = 0; r < inner.rows.size(); ++r) {
    const RefValue& k = inner.rows[r][inner_key];
    if (!inner_of.try_emplace(Row{k}, r).second) {
      return {OracleError("duplicate inner join key")};
    }
  }
  RefRelation out;
  out.fields = outer.fields;
  for (size_t i : payload_idx) out.fields.push_back(inner.fields[i]);
  for (Row& r : outer.rows) {
    const RefValue& k = r[outer_key];
    const auto match = inner_of.find(Row{k});
    if (match == inner_of.end()) continue;  // unmatched outer rows drop
    Row joined = std::move(r);
    for (size_t i : payload_idx) {
      joined.push_back(inner.rows[match->second][i]);
    }
    out.rows.push_back(std::move(joined));
  }
  return out;
}

Result<RefRelation> EvalPlan(const PlanNodePtr& node,
                             const std::map<std::string, const RefTable*>& tables) {
  switch (node->kind) {
    case PlanNodeKind::kScan:
      return EvalScan(*node, tables);
    case PlanNodeKind::kFilter: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      RefRelation out;
      out.fields = in.fields;
      for (Row& r : in.rows) {
        TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(node->predicate, in.fields, r));
        if (Truthy(v)) out.rows.push_back(std::move(r));
      }
      return out;
    }
    case PlanNodeKind::kProject: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      RefRelation out;
      const Schema schema = ToSchema(in.fields);
      for (const ProjectedColumn& p : node->projections) {
        TDE_ASSIGN_OR_RETURN(TypeId t, p.expr->ResultType(schema));
        out.fields.push_back({p.name, t});
      }
      for (const Row& r : in.rows) {
        Row projected;
        projected.reserve(node->projections.size());
        for (const ProjectedColumn& p : node->projections) {
          TDE_ASSIGN_OR_RETURN(RefValue v, EvalExpr(p.expr, in.fields, r));
          projected.push_back(std::move(v));
        }
        out.rows.push_back(std::move(projected));
      }
      return out;
    }
    case PlanNodeKind::kAggregate: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      return EvalAggregate(*node, std::move(in));
    }
    case PlanNodeKind::kSort: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      std::vector<size_t> key_idx;
      for (const SortKey& k : node->sort_keys) {
        TDE_ASSIGN_OR_RETURN(size_t i, FieldIndex(in.fields, k.column));
        key_idx.push_back(i);
      }
      // Stable; NULL sorts below every value: first under ASC, last under
      // DESC.
      std::stable_sort(
          in.rows.begin(), in.rows.end(), [&](const Row& a, const Row& b) {
            for (size_t k = 0; k < key_idx.size(); ++k) {
              const RefValue& va = a[key_idx[k]];
              const RefValue& vb = b[key_idx[k]];
              int cmp;
              if (va.null || vb.null) {
                cmp = va.null == vb.null ? 0 : (va.null ? -1 : 1);
              } else {
                cmp = CompareRefValues(va, vb);
              }
              if (cmp != 0) {
                return node->sort_keys[k].ascending ? cmp < 0 : cmp > 0;
              }
            }
            return false;
          });
      return in;
    }
    case PlanNodeKind::kLimit: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      if (in.rows.size() > node->limit) in.rows.resize(node->limit);
      return in;
    }
    case PlanNodeKind::kJoinTable: {
      TDE_ASSIGN_OR_RETURN(RefRelation in, EvalPlan(node->children[0], tables));
      return EvalJoin(*node, std::move(in), tables);
    }
    case PlanNodeKind::kExchange:
    case PlanNodeKind::kMaterialize:
      // Semantically transparent.
      return EvalPlan(node->children[0], tables);
    default:
      return {OracleError("rewritten plan node (oracle interprets logical "
                          "plans only)")};
  }
}

}  // namespace

Result<RefResult> EvalReference(
    const PlanNodePtr& node,
    const std::map<std::string, const RefTable*>& tables) {
  TDE_ASSIGN_OR_RETURN(RefRelation rel, EvalPlan(node, tables));
  RefResult out;
  out.fields = std::move(rel.fields);
  out.rows = std::move(rel.rows);
  return out;
}

}  // namespace testing
}  // namespace tde
