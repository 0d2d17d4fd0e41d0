#include "src/testing/genquery.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

namespace tde {
namespace testing {
namespace {

/// splitmix64: tiny, deterministic across platforms and standard-library
/// implementations — a repro seed must mean the same workload everywhere.
struct Rng {
  uint64_t state;

  uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t U(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(U(static_cast<uint64_t>(hi - lo + 1)));
  }
  bool Chance(uint32_t pct) { return U(100) < pct; }
};

/// Low-cardinality vocabulary. Every entry stays distinct under the locale
/// collation (case- and accent-folding): token-level distinctness in the
/// engine then agrees with collation-level distinctness in the oracle for
/// grouping and COUNTD.
const char* const kWords[] = {"alder", "birch",  "cedar", "drift",
                              "émigré", "fjord", "ginkgo", "hazel",
                              "naïve",  "oak",   "über",   "willow"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

size_t CodePointLen(unsigned char lead) {
  if (lead < 0x80) return 1;
  if ((lead >> 5) == 0x6) return 2;
  if ((lead >> 4) == 0xe) return 3;
  if ((lead >> 3) == 0x1e) return 4;
  return 1;
}

std::string FormatReal(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", d);
  return buf;
}

const char* ShapeName(ColumnShape s) {
  switch (s) {
    case ColumnShape::kSequential: return "sequential";
    case ColumnShape::kNarrow: return "narrow";
    case ColumnShape::kRunny: return "runny";
    case ColumnShape::kLowCard: return "lowcard";
    case ColumnShape::kScattered: return "scattered";
    case ColumnShape::kRowId: return "rowid";
  }
  return "?";
}

const char* SpecTypeName(TypeId t) {
  switch (t) {
    case TypeId::kInteger: return "int";
    case TypeId::kReal: return "real";
    case TypeId::kString: return "str";
    case TypeId::kDate: return "date";
    default: return "?";
  }
}

}  // namespace

std::string TableSpec::ToString() const {
  std::string out = "table " + name + " seed=" + std::to_string(seed) +
                    " rows=" + std::to_string(rows) + " cols=[";
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnSpec& c = columns[i];
    if (i > 0) out += ", ";
    out += c.name;
    out += ":";
    out += SpecTypeName(c.type);
    out += ":";
    out += ShapeName(c.shape);
    out += ":null=" + std::to_string(c.null_chance);
    if (c.range > 0) out += ":range=" + std::to_string(c.range);
    if (c.null_row >= 0) out += ":null_row=" + std::to_string(c.null_row);
  }
  return out + "]";
}

Dataset GenerateDataset(const TableSpec& spec) {
  Dataset d;
  d.spec = spec;
  const int64_t epoch = DaysFromCivil(1994, 1, 1);

  // Column-major generation, one independent deterministic stream per
  // column.
  std::vector<std::vector<RefValue>> cols(spec.columns.size());
  for (size_t c = 0; c < spec.columns.size(); ++c) {
    const ColumnSpec& cs = spec.columns[c];
    Rng rng{spec.seed * 0x100000001B3ull + c * 0x9E3779B9ull + 1};
    cols[c].resize(spec.rows);
    // Run state for kRunny shapes.
    RefValue run_value;
    uint64_t run_left = 0;
    for (uint64_t r = 0; r < spec.rows; ++r) {
      RefValue v;
      v.type = cs.type;
      const bool is_null = rng.U(256) < cs.null_chance ||
                           static_cast<int64_t>(r) == cs.null_row;
      // Advance the run state even for NULL rows so runs survive sparse
      // NULLs instead of restarting after each one.
      const bool new_run = cs.shape == ColumnShape::kRunny && run_left == 0;
      if (run_left > 0) --run_left;
      if (new_run) run_left = 24 + rng.U(40);
      v.null = false;
      switch (cs.type) {
        case TypeId::kInteger: {
          if (cs.range > 0) {
            v.i = static_cast<int64_t>(rng.U(static_cast<uint64_t>(cs.range)));
            break;
          }
          switch (cs.shape) {
            case ColumnShape::kRowId:
              v.i = static_cast<int64_t>(r);
              break;
            case ColumnShape::kSequential:
              v.i = static_cast<int64_t>(r) * 3 + static_cast<int64_t>(rng.U(3));
              break;
            case ColumnShape::kNarrow:
              v.i = static_cast<int64_t>(rng.U(60));
              break;
            case ColumnShape::kRunny:
              if (new_run) run_value = v, run_value.i = static_cast<int64_t>(rng.U(10));
              v.i = run_value.i;
              break;
            case ColumnShape::kLowCard:
              v.i = static_cast<int64_t>(rng.U(8)) * 7;
              break;
            case ColumnShape::kScattered:
              v.i = rng.Range(-1000000, 1000000);
              break;
          }
          break;
        }
        case TypeId::kReal: {
          // Quarters only: sums and averages stay exactly representable,
          // so compressed-domain accumulation order cannot introduce
          // floating-point drift the comparison would mistake for a bug.
          switch (cs.shape) {
            case ColumnShape::kSequential:
            case ColumnShape::kRowId:
              v.d = static_cast<double>(r) * 0.25;
              break;
            case ColumnShape::kNarrow:
              v.d = static_cast<double>(rng.U(40)) * 0.25;
              break;
            case ColumnShape::kRunny:
              if (new_run) run_value = v, run_value.d = static_cast<double>(rng.U(16)) * 0.25;
              v.d = run_value.d;
              break;
            case ColumnShape::kLowCard:
              v.d = static_cast<double>(rng.U(8)) * 0.25;
              break;
            case ColumnShape::kScattered:
              // A few NaNs ride along: sorts, aggregates and comparisons
              // must hold the engine/oracle total order (NaN above +inf,
              // NaN == NaN) instead of the IEEE partial order, which
              // breaks strict weak ordering and corrupts sorted output.
              v.d = rng.Chance(4)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : static_cast<double>(rng.Range(-400, 400)) * 0.25;
              break;
          }
          break;
        }
        case TypeId::kString: {
          switch (cs.shape) {
            case ColumnShape::kRunny:
              if (new_run) run_value = v, run_value.s = kWords[rng.U(kNumWords)];
              v.s = run_value.s;
              break;
            case ColumnShape::kScattered:
              v.s = std::string(kWords[rng.U(kNumWords)]) + "-" +
                    std::to_string(rng.U(500));
              break;
            default:  // low cardinality
              v.s = kWords[rng.U(8)];
              break;
          }
          break;
        }
        case TypeId::kDate: {
          switch (cs.shape) {
            case ColumnShape::kSequential:
            case ColumnShape::kRowId:
              v.i = epoch + static_cast<int64_t>(r);
              break;
            case ColumnShape::kNarrow:
              v.i = epoch + static_cast<int64_t>(rng.U(90));
              break;
            case ColumnShape::kRunny:
              v.i = epoch + static_cast<int64_t>(r / 16);
              break;
            case ColumnShape::kLowCard:
              v.i = epoch + static_cast<int64_t>(rng.U(8)) * 30;
              break;
            case ColumnShape::kScattered:
              v.i = epoch + static_cast<int64_t>(rng.U(730));
              break;
          }
          break;
        }
        default:
          break;
      }
      if (is_null) {
        v = RefValue{};
        v.type = cs.type;
      }
      cols[c][r] = std::move(v);
    }
  }

  // Assemble the oracle's rows and the importer's CSV from the same
  // values.
  for (const ColumnSpec& cs : spec.columns) {
    d.ref.fields.push_back({cs.name, cs.type});
  }
  d.ref.rows.resize(spec.rows);
  std::string& csv = d.csv;
  for (size_t c = 0; c < spec.columns.size(); ++c) {
    if (c > 0) csv += ",";
    csv += spec.columns[c].name;
  }
  csv += "\n";
  for (uint64_t r = 0; r < spec.rows; ++r) {
    auto& row = d.ref.rows[r];
    row.reserve(spec.columns.size());
    for (size_t c = 0; c < spec.columns.size(); ++c) {
      if (c > 0) csv += ",";
      const RefValue& v = cols[c][r];
      if (!v.null) {
        switch (v.type) {
          case TypeId::kReal: csv += FormatReal(v.d); break;
          case TypeId::kString: csv += v.s; break;
          default: csv += FormatLane(v.type, v.i); break;
        }
      }
      row.push_back(std::move(cols[c][r]));
    }
    csv += "\n";
  }
  return d;
}

TableSpec MakeFactSpec(uint64_t seed, uint64_t rows) {
  TableSpec t;
  t.name = "fact";
  t.seed = seed;
  t.rows = rows;
  t.columns = {
      // Join key into dim.dk (40 rows), with two dangling values.
      {"fk", TypeId::kInteger, ColumnShape::kLowCard, 20, 42},
      {"a", TypeId::kInteger, ColumnShape::kNarrow, 26},
      {"b", TypeId::kInteger, ColumnShape::kSequential, 0},
      {"c", TypeId::kInteger, ColumnShape::kRunny, 20},
      {"d", TypeId::kReal, ColumnShape::kScattered, 30},
      {"s", TypeId::kString, ColumnShape::kLowCard, 26},
      {"t", TypeId::kString, ColumnShape::kScattered, 26},
      {"dt", TypeId::kDate, ColumnShape::kRunny, 26},
  };
  return t;
}

TableSpec MakeDimSpec(uint64_t seed, uint64_t rows) {
  TableSpec t;
  t.name = "dim";
  t.seed = seed;
  t.rows = rows;
  const int64_t null_row = rows > 0 ? static_cast<int64_t>(seed % rows) : -1;
  t.columns = {
      {"dk", TypeId::kInteger, ColumnShape::kSequential, 0, 0, null_row},
      // Also the join key into dim2.ek: [0, 60) against ek's [0, rows).
      {"dv", TypeId::kInteger, ColumnShape::kNarrow, 13},
      {"dn", TypeId::kString, ColumnShape::kLowCard, 13},
  };
  return t;
}

TableSpec MakeDim2Spec(uint64_t seed, uint64_t rows) {
  TableSpec t;
  t.name = "dim2";
  t.seed = seed;
  t.rows = rows;
  t.columns = {
      // Dense: dim -> dim2 runs as a fetch join, dim's keys as a hash join.
      {"ek", TypeId::kInteger, ColumnShape::kRowId, 0},
      {"ev", TypeId::kInteger, ColumnShape::kLowCard, 13},
      {"es", TypeId::kString, ColumnShape::kScattered, 13},
  };
  return t;
}

namespace {

/// Schema the generator draws predicate/projection columns from: fact
/// columns, plus dim payload columns after a join.
struct GenColumn {
  std::string name;
  TypeId type;
  const Dataset* source;  // where to sample literals from
  size_t source_col;
};

class SqlBuilder {
 public:
  SqlBuilder(Rng* rng, std::vector<GenColumn> cols)
      : rng_(rng), cols_(std::move(cols)) {}

  const GenColumn& AnyColumn() { return cols_[rng_->U(cols_.size())]; }
  const GenColumn& TypedColumn(TypeId t) {
    std::vector<const GenColumn*> match;
    for (const GenColumn& c : cols_) {
      if (c.type == t) match.push_back(&c);
    }
    return match.empty() ? cols_[0] : *match[rng_->U(match.size())];
  }

  /// Samples an actual (non-NULL) value of the column and renders it as a
  /// SQL literal; distribution-agnostic and a guaranteed domain hit.
  std::string SampleLiteral(const GenColumn& c) {
    const auto& rows = c.source->ref.rows;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const RefValue& v = rows[rng_->U(rows.size())][c.source_col];
      if (v.null) continue;
      switch (v.type) {
        case TypeId::kInteger: {
          int64_t x = v.i;
          if (rng_->Chance(25)) x += rng_->Range(-3, 3);  // near miss
          return std::to_string(x);
        }
        case TypeId::kReal:
          // NaN has no SQL literal spelling ("nan" lexes as an
          // identifier); resample like a NULL hit.
          if (std::isnan(v.d)) continue;
          return FormatReal(v.d);
        case TypeId::kString:
          return "'" + v.s + "'";
        case TypeId::kDate:
          return "DATE '" + FormatLane(TypeId::kDate, v.i) + "'";
        default:
          return "0";
      }
    }
    return c.type == TypeId::kString ? "'oak'" : "0";
  }

  /// A literal of the other numeric type near an actual value: a real
  /// literal for an integer column (exact or halfway to the next value)
  /// and an integer literal for a real column; other columns get their own
  /// type.
  std::string SampleCrossLiteral(const GenColumn& c) {
    if (c.type != TypeId::kInteger && c.type != TypeId::kReal) {
      return SampleLiteral(c);
    }
    const auto& rows = c.source->ref.rows;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const RefValue& v = rows[rng_->U(rows.size())][c.source_col];
      if (v.null) continue;
      if (v.type == TypeId::kInteger) {
        // Beyond 2^53 a double cannot hold the value; keep to exact ones.
        if (v.i > (int64_t{1} << 53) || v.i < -(int64_t{1} << 53)) continue;
        const double d = static_cast<double>(v.i);
        return FormatReal(rng_->Chance(50) ? d : d + 0.5);
      }
      if (!std::isfinite(v.d) || std::fabs(v.d) > 1e15) continue;
      return std::to_string(static_cast<int64_t>(std::llround(v.d)));
    }
    return c.type == TypeId::kReal ? "0" : "0.50";
  }

  std::string SampleString(const GenColumn& c) {
    const auto& rows = c.source->ref.rows;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const RefValue& v = rows[rng_->U(rows.size())][c.source_col];
      if (!v.null && !v.s.empty()) return v.s;
    }
    return "oak";
  }

  std::string LikePattern(const std::string& w) {
    // Code point boundaries of w.
    std::vector<size_t> cp = {0};
    while (cp.back() < w.size()) {
      cp.push_back(cp.back() + CodePointLen(static_cast<unsigned char>(w[cp.back()])));
    }
    const size_t n = cp.size() - 1;  // code points
    switch (rng_->U(10)) {
      case 0: return w.substr(0, cp[1 + rng_->U(n)]) + "%";  // trailing %
      case 1: return "%" + w.substr(cp[rng_->U(n)]);
      case 2: {  // %mid%
        const size_t lo = rng_->U(n);
        const size_t hi = lo + 1 + rng_->U(n - lo);
        return "%" + w.substr(cp[lo], cp[hi] - cp[lo]) + "%";
      }
      case 3: {  // one code point replaced by _
        const size_t k = rng_->U(n);
        return w.substr(0, cp[k]) + "_" + w.substr(cp[k + 1]);
      }
      case 4: return "%%" + w;            // consecutive wildcards
      case 5: return "";                  // empty pattern
      case 6: return "%";                 // match-all
      case 7: return std::string(n, '_');  // all-underscores, cp length
      case 8: return "_%";                // at least one character
      default: return w;                  // exact
    }
  }

  std::string Atom() {
    const GenColumn& c = AnyColumn();
    static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
    switch (rng_->U(8)) {
      case 0:  // comparison with a literal
        return "(" + c.name + " " + kCmp[rng_->U(6)] + " " +
               SampleLiteral(c) + ")";
      case 6:  // the literal on the left
        return "(" + SampleLiteral(c) + " " + kCmp[rng_->U(6)] + " " +
               c.name + ")";
      case 7: {  // integer column vs real literal, or the reverse
        const GenColumn& n =
            TypedColumn(rng_->Chance(50) ? TypeId::kInteger : TypeId::kReal);
        const std::string lit = SampleCrossLiteral(n);
        const char* op = kCmp[rng_->U(6)];
        return rng_->Chance(30) ? "(" + lit + " " + op + " " + n.name + ")"
                                : "(" + n.name + " " + op + " " + lit + ")";
      }
      case 1: {  // BETWEEN (occasionally reversed -> provably empty)
        std::string lo = SampleLiteral(c);
        std::string hi = SampleLiteral(c);
        return "(" + c.name + " BETWEEN " + lo + " AND " + hi + ")";
      }
      case 2: {  // IN / NOT IN
        std::string list = SampleLiteral(c);
        const size_t extra = 1 + rng_->U(3);
        for (size_t i = 0; i < extra; ++i) list += ", " + SampleLiteral(c);
        const char* neg = rng_->Chance(35) ? " NOT" : "";
        return "(" + c.name + neg + " IN (" + list + "))";
      }
      case 3:
        return "(" + c.name + (rng_->Chance(50) ? " IS NULL" : " IS NOT NULL") +
               ")";
      case 4: {  // LIKE over a string column
        const GenColumn& s = TypedColumn(TypeId::kString);
        if (s.type != TypeId::kString) return Atom();
        return "(" + s.name + " LIKE '" + LikePattern(SampleString(s)) + "')";
      }
      default: {  // comparison between two columns of the same type
        const GenColumn& l = AnyColumn();
        const GenColumn& r = TypedColumn(l.type);
        return "(" + l.name + " " + kCmp[rng_->U(6)] + " " + r.name + ")";
      }
    }
  }

  std::string Predicate(int depth = 0) {
    if (depth == 0 && rng_->Chance(20)) {
      // A flat AND chain of 3-5 atoms, the shape of TPC-H Q6's filter.
      const size_t n = 3 + rng_->U(3);
      std::string chain = "(" + Atom();
      for (size_t i = 1; i < n; ++i) chain += " AND " + Atom();
      return chain + ")";
    }
    if (depth >= 2 || rng_->Chance(45)) {
      std::string a = Atom();
      return rng_->Chance(20) ? "NOT " + a : a;
    }
    const char* conn = rng_->Chance(50) ? " AND " : " OR ";
    return "(" + Predicate(depth + 1) + conn + Predicate(depth + 1) + ")";
  }

  /// A computed scalar select expression and a short description of its
  /// type (for ORDER BY eligibility).
  std::string ComputedExpr() {
    switch (rng_->U(8)) {
      case 0: {
        const GenColumn& c = TypedColumn(TypeId::kInteger);
        return "(" + c.name + " + " + SampleLiteral(c) + ")";
      }
      case 1: {
        const GenColumn& c = TypedColumn(TypeId::kInteger);
        return "(" + c.name + " % 7)";
      }
      case 2: {
        const GenColumn& c = TypedColumn(TypeId::kReal);
        if (c.type != TypeId::kReal) return ComputedExpr();
        return "(" + c.name + " * 2)";
      }
      case 3: {
        const GenColumn& c = TypedColumn(TypeId::kDate);
        if (c.type != TypeId::kDate) return ComputedExpr();
        static const char* kFns[] = {"YEAR", "MONTH", "DAY", "TRUNC_MONTH"};
        return std::string(kFns[rng_->U(4)]) + "(" + c.name + ")";
      }
      case 4: {
        const GenColumn& c = TypedColumn(TypeId::kString);
        if (c.type != TypeId::kString) return ComputedExpr();
        return "LENGTH(" + c.name + ")";
      }
      case 5: {
        const GenColumn& c = TypedColumn(TypeId::kString);
        if (c.type != TypeId::kString) return ComputedExpr();
        return std::string(rng_->Chance(50) ? "UPPER" : "LOWER") + "(" +
               c.name + ")";
      }
      case 6: {  // integer CASE
        return "CASE WHEN " + Atom() + " THEN 1 WHEN " + Atom() +
               " THEN 2 ELSE 0 END";
      }
      default: {  // string CASE
        return "CASE WHEN " + Atom() + " THEN 'low' ELSE 'high' END";
      }
    }
  }

  Rng* rng_;
  std::vector<GenColumn> cols_;
};

struct AggChoice {
  std::string sql;    // e.g. "SUM(a)"
  std::string alias;  // e.g. "g0"
  bool is_count = false;
};

}  // namespace

GeneratedQuery GenerateQuery(uint64_t seed, const Dataset& fact,
                             const Dataset& dim, const Dataset& dim2) {
  Rng rng{seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull};
  GeneratedQuery q;
  q.has_join = rng.Chance(30);
  // Drawn only for join queries, so single-table seeds keep their SQL.
  q.has_second_join = q.has_join && rng.Chance(40);

  std::vector<GenColumn> cols;
  // Every column of `d` except its join key (which is not payload).
  const auto add_columns = [&](const Dataset& d, const std::string& key) {
    for (size_t i = 0; i < d.ref.fields.size(); ++i) {
      if (d.ref.fields[i].name == key) continue;
      cols.push_back({d.ref.fields[i].name, d.ref.fields[i].type, &d, i});
    }
  };
  add_columns(fact, "");
  if (q.has_join) add_columns(dim, "dk");
  if (q.has_second_join) add_columns(dim2, "ek");
  SqlBuilder b(&rng, cols);

  std::string from = "FROM fact";
  if (q.has_join) from += " JOIN dim ON dim.dk = fk";
  if (q.has_second_join) from += " JOIN dim2 ON dim2.ek = dv";
  q.is_aggregate = rng.Chance(45);

  std::string where;
  if (rng.Chance(75)) where = " WHERE " + b.Predicate();

  if (!q.is_aggregate) {
    // Plain selection.
    std::vector<std::pair<std::string, std::string>> items;  // sql, out name
    if (rng.Chance(12)) {
      items.push_back({"*", ""});
    } else {
      const size_t n = 2 + rng.U(4);
      int anon = 0;
      for (size_t i = 0; i < n; ++i) {
        if (rng.Chance(70)) {
          const GenColumn& c = b.AnyColumn();
          items.push_back({c.name, c.name});
        } else {
          const std::string alias = "e" + std::to_string(anon++);
          items.push_back({b.ComputedExpr() + " AS " + alias, alias});
        }
      }
    }
    const bool want_order = rng.Chance(55);
    if (want_order) {
      // `b` is unique and non-NULL by construction; appending it as the
      // final key makes every plain ORDER BY a total order, so engine and
      // oracle rows compare positionally regardless of scan order or sort
      // stability.
      bool has_b = items[0].second.empty();  // SELECT * includes b
      for (const auto& it : items) has_b = has_b || it.second == "b";
      if (!has_b) items.push_back({"b", "b"});
    }
    std::string select = "SELECT ";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) select += ", ";
      select += items[i].first;
    }
    q.sql = select + " " + from + where;
    if (want_order) {
      std::set<std::string> used = {"b"};
      std::string order;
      const size_t keys = rng.U(3);
      for (size_t k = 0; k < keys; ++k) {
        const auto& it = items[rng.U(items.size())];
        if (it.second.empty() || !used.insert(it.second).second) continue;
        if (!order.empty()) order += ", ";
        order += it.second + (rng.Chance(40) ? " DESC" : "");
      }
      if (!order.empty()) order += ", ";
      order += "b";
      if (rng.Chance(40)) order += " DESC";
      q.sql += " ORDER BY " + order;
      q.has_order_by = true;
    }
    if (rng.Chance(30)) {
      // Small k half the time: the Top-N rewrite's interesting regime
      // (bounded heap, zone skips); large k degenerates to the full sort.
      q.limit = rng.Chance(50) ? rng.U(25) : rng.U(fact.spec.rows + 10);
      q.sql += " LIMIT " + std::to_string(q.limit);
      q.has_limit = true;
    }
    return q;
  }

  // Aggregate query: 0-2 keys, 1-3 aggregates over type-suitable inputs.
  struct Key {
    std::string sql;   // select-list entry
    std::string name;  // output name
  };
  std::vector<Key> keys;
  const size_t nkeys = rng.U(3);
  for (size_t k = 0; k < nkeys; ++k) {
    if (rng.Chance(25)) {
      const GenColumn& c = b.TypedColumn(TypeId::kDate);
      if (c.type == TypeId::kDate) {
        const std::string alias = "k" + std::to_string(k);
        keys.push_back({"YEAR(" + c.name + ") AS " + alias, alias});
        continue;
      }
    }
    const GenColumn& c = b.AnyColumn();
    bool dup = false;
    for (const Key& existing : keys) dup = dup || existing.name == c.name;
    if (dup) continue;
    keys.push_back({c.name, c.name});
  }

  std::vector<AggChoice> aggs;
  const size_t naggs = 1 + rng.U(3);
  for (size_t a = 0; a < naggs; ++a) {
    AggChoice choice;
    choice.alias = "g" + std::to_string(a);
    switch (rng.U(8)) {
      case 0:
        choice.sql = "COUNT(*)";
        choice.is_count = true;
        break;
      case 1: {
        const GenColumn& c = b.AnyColumn();
        choice.sql = "COUNT(" + c.name + ")";
        choice.is_count = true;
        break;
      }
      case 2: {
        const GenColumn& c = b.AnyColumn();
        choice.sql = "COUNTD(" + c.name + ")";
        break;
      }
      case 3: {
        const GenColumn& c =
            b.TypedColumn(rng.Chance(50) ? TypeId::kInteger : TypeId::kReal);
        choice.sql = "SUM(" + c.name + ")";
        break;
      }
      case 4: {
        const GenColumn& c =
            b.TypedColumn(rng.Chance(50) ? TypeId::kInteger : TypeId::kReal);
        choice.sql = "AVG(" + c.name + ")";
        break;
      }
      case 5: {
        const GenColumn& c = b.AnyColumn();
        choice.sql = std::string(rng.Chance(50) ? "MIN" : "MAX") + "(" +
                     c.name + ")";
        break;
      }
      case 6: {
        const GenColumn& c =
            b.TypedColumn(rng.Chance(50) ? TypeId::kInteger : TypeId::kReal);
        choice.sql = "MEDIAN(" + c.name + ")";
        break;
      }
      default: {
        const GenColumn& c = b.AnyColumn();
        choice.sql = "MEDIAN(" + c.name + ")";
        break;
      }
    }
    aggs.push_back(std::move(choice));
  }

  std::string select = "SELECT ";
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k > 0) select += ", ";
    select += keys[k].sql;
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (a > 0 || !keys.empty()) select += ", ";
    select += aggs[a].sql + " AS " + aggs[a].alias;
  }
  q.sql = select + " " + from + where;

  // Explicit GROUP BY half the time (it must name the same keys).
  if (!keys.empty() && rng.Chance(50)) {
    std::string group;
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k > 0) group += ", ";
      group += keys[k].name;
    }
    q.sql += " GROUP BY " + group;
  }
  // HAVING over a count alias.
  for (const AggChoice& a : aggs) {
    if (a.is_count && rng.Chance(25)) {
      q.sql += " HAVING " + a.alias + " > " + std::to_string(1 + rng.U(3));
      break;
    }
  }
  // ORDER BY: optionally an aggregate, then every key — a total order, so
  // ordered results compare positionally.
  if (!keys.empty() && rng.Chance(60)) {
    std::string order;
    if (rng.Chance(40)) {
      order = aggs[rng.U(aggs.size())].alias + (rng.Chance(50) ? " DESC" : "");
    }
    for (const Key& k : keys) {
      if (!order.empty()) order += ", ";
      order += k.name + (rng.Chance(40) ? " DESC" : "");
    }
    q.sql += " ORDER BY " + order;
    q.has_order_by = true;
    if (rng.Chance(20)) {
      q.limit = 1 + rng.U(20);
      q.sql += " LIMIT " + std::to_string(q.limit);
      q.has_limit = true;
    }
  }
  return q;
}

}  // namespace testing
}  // namespace tde
