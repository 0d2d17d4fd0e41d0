// Randomized SQL differential smoke test for compressed-domain
// aggregation: a seeded generator produces ~200 GROUP BY / HAVING /
// aggregate queries over a mixed-encoding table (dictionary strings,
// run-length integers, plain integers, NULLs), and every query is answered
// three ways — the engine with all rewrites on, the engine with every
// compressed-domain path off, and a naive row-at-a-time reference
// evaluator built right here — which must all agree cell for cell.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/sql/parser.h"
#include "src/workload/tpch_queries.h"
#include "tests/test_util.h"

namespace tde {
namespace {

StrategicOptions DecodeThenAggregate() {
  StrategicOptions off;
  off.enable_invisible_join = false;
  off.enable_rank_join = false;
  off.enable_dict_predicates = false;
  off.enable_run_filters = false;
  off.enable_dict_grouping = false;
  off.enable_run_aggregation = false;
  off.enable_metadata_aggregates = false;
  return off;
}

/// Rows rendered the way QueryResult renders them, sorted — queries whose
/// output order the plan does not pin compare as multisets.
std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> rows;
  for (uint64_t i = 0; i < r.num_rows(); ++i) {
    std::string row;
    for (size_t c = 0; c < r.schema().num_fields(); ++c) {
      if (c > 0) row += "|";
      row += r.ValueString(i, c);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string RenderReal(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", d);
  return buf;
}

// ---------------------------------------------------------------------------
// The generated dataset: kept in plain vectors (the reference ground
// truth) and round-tripped through CSV import (the engine's view, with
// dictionary / run-length / frame-of-reference encodings picked by the
// importer). Empty CSV cells become NULLs.
// ---------------------------------------------------------------------------

struct Dataset {
  std::vector<std::optional<std::string>> s;  // low-cardinality dictionary
  std::vector<std::optional<int64_t>> r;      // sorted, run-length encodes
  std::vector<std::optional<int64_t>> v;      // plain payload, some NULLs
  std::vector<std::optional<int64_t>> w;      // narrow range
  size_t rows = 0;

  std::string ToCsv() const {
    std::string csv = "s,r,v,w\n";
    for (size_t i = 0; i < rows; ++i) {
      csv += s[i] ? *s[i] : "";
      csv += ",";
      csv += r[i] ? std::to_string(*r[i]) : "";
      csv += ",";
      csv += v[i] ? std::to_string(*v[i]) : "";
      csv += ",";
      csv += w[i] ? std::to_string(*w[i]) : "";
      csv += "\n";
    }
    return csv;
  }
};

Dataset MakeDataset(size_t rows, uint64_t seed) {
  static const std::vector<std::string> kVocab = {
      "apple", "banana", "cherry", "date", "elderberry", "fig", "grape"};
  Dataset d;
  d.rows = rows;
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    if (rng() % 8 == 0) {
      d.s.push_back(std::nullopt);
    } else {
      d.s.push_back(kVocab[rng() % kVocab.size()]);
    }
    d.r.push_back(static_cast<int64_t>(i / 37));
    if (rng() % 11 == 0) {
      d.v.push_back(std::nullopt);
    } else {
      d.v.push_back(static_cast<int64_t>(rng() % 1000));
    }
    d.w.push_back(static_cast<int64_t>(rng() % 90));
  }
  return d;
}

// ---------------------------------------------------------------------------
// The naive reference evaluator: row-at-a-time over the vectors, no
// encodings, no rewrites — the semantics the engine must reproduce.
// ---------------------------------------------------------------------------

enum class RefAgg { kCountStar, kCount, kSum, kMin, kMax, kAvg, kCountD,
                    kMedian };

struct AggCol {
  RefAgg kind;
  std::string input;  // "", "s", "r", "v", "w"
  std::string alias;
};

enum class WhereKind { kNone, kVGt, kRBetween, kSEq, kSNotNull };
enum class HavingKind { kNone, kFirstAggGe, kImpossible };

struct GenQuery {
  std::vector<std::string> keys;  // subset of {s, r}
  std::vector<AggCol> aggs;
  WhereKind where = WhereKind::kNone;
  int64_t where_a = 0, where_b = 0;
  HavingKind having = HavingKind::kNone;
  int64_t having_k = 0;

  std::string ToSql() const {
    std::string sql = "SELECT ";
    for (const auto& k : keys) sql += k + ", ";
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (i > 0) sql += ", ";
      static const char* kNames[] = {"COUNT", "COUNT", "SUM", "MIN",
                                     "MAX",   "AVG",   "COUNTD", "MEDIAN"};
      const auto& a = aggs[i];
      sql += kNames[static_cast<int>(a.kind)];
      sql += "(";
      sql += a.kind == RefAgg::kCountStar ? "*" : a.input;
      sql += ") AS " + a.alias;
    }
    sql += " FROM t";
    switch (where) {
      case WhereKind::kNone:
        break;
      case WhereKind::kVGt:
        sql += " WHERE v > " + std::to_string(where_a);
        break;
      case WhereKind::kRBetween:
        sql += " WHERE r BETWEEN " + std::to_string(where_a) + " AND " +
               std::to_string(where_b);
        break;
      case WhereKind::kSEq:
        sql += " WHERE s = 'cherry'";
        break;
      case WhereKind::kSNotNull:
        sql += " WHERE s IS NOT NULL";
        break;
    }
    if (!keys.empty()) {
      sql += " GROUP BY " + keys[0];
      for (size_t i = 1; i < keys.size(); ++i) sql += ", " + keys[i];
    }
    if (having == HavingKind::kFirstAggGe) {
      sql += " HAVING " + aggs[0].alias + " >= " + std::to_string(having_k);
    } else if (having == HavingKind::kImpossible) {
      sql += " HAVING " + aggs[0].alias + " > 1000000000";
    }
    return sql;
  }
};

bool RowPasses(const Dataset& d, const GenQuery& q, size_t i) {
  switch (q.where) {
    case WhereKind::kNone:
      return true;
    case WhereKind::kVGt:
      return d.v[i] && *d.v[i] > q.where_a;
    case WhereKind::kRBetween:
      return d.r[i] && *d.r[i] >= q.where_a && *d.r[i] <= q.where_b;
    case WhereKind::kSEq:
      return d.s[i] && *d.s[i] == "cherry";
    case WhereKind::kSNotNull:
      return d.s[i].has_value();
  }
  return true;
}

/// One reference cell: NULL, integer, real, or string.
struct RefVal {
  enum Kind { kNull, kInt, kReal, kStr } kind = kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;

  std::string Render() const {
    switch (kind) {
      case kNull: return "NULL";
      case kInt: return std::to_string(i);
      case kReal: return RenderReal(d);
      case kStr: return s;
    }
    return "NULL";
  }
};

RefVal EvalAgg(const Dataset& d, const AggCol& a,
               const std::vector<size_t>& rows) {
  RefVal out;
  if (a.kind == RefAgg::kCountStar) {
    out.kind = RefVal::kInt;
    out.i = static_cast<int64_t>(rows.size());
    return out;
  }
  if (a.input == "s") {
    std::vector<std::string> vals;
    for (size_t i : rows) {
      if (d.s[i]) vals.push_back(*d.s[i]);
    }
    switch (a.kind) {
      case RefAgg::kCount:
        return {RefVal::kInt, static_cast<int64_t>(vals.size()), 0, ""};
      case RefAgg::kCountD: {
        std::set<std::string> u(vals.begin(), vals.end());
        return {RefVal::kInt, static_cast<int64_t>(u.size()), 0, ""};
      }
      case RefAgg::kMin:
      case RefAgg::kMax: {
        if (vals.empty()) return out;
        auto it = a.kind == RefAgg::kMin
                      ? std::min_element(vals.begin(), vals.end())
                      : std::max_element(vals.begin(), vals.end());
        return {RefVal::kStr, 0, 0, *it};
      }
      case RefAgg::kMedian: {
        if (vals.empty()) return out;
        std::sort(vals.begin(), vals.end());
        return {RefVal::kStr, 0, 0, vals[(vals.size() - 1) / 2]};
      }
      default:
        ADD_FAILURE() << "numeric aggregate over string column";
        return out;
    }
  }
  const auto& col = a.input == "r" ? d.r : a.input == "v" ? d.v : d.w;
  std::vector<int64_t> vals;
  for (size_t i : rows) {
    if (col[i]) vals.push_back(*col[i]);
  }
  switch (a.kind) {
    case RefAgg::kCount:
      return {RefVal::kInt, static_cast<int64_t>(vals.size()), 0, ""};
    case RefAgg::kCountD: {
      std::set<int64_t> u(vals.begin(), vals.end());
      return {RefVal::kInt, static_cast<int64_t>(u.size()), 0, ""};
    }
    case RefAgg::kSum: {
      if (vals.empty()) return out;
      int64_t sum = 0;
      for (int64_t x : vals) sum += x;
      return {RefVal::kInt, sum, 0, ""};
    }
    case RefAgg::kMin:
    case RefAgg::kMax: {
      if (vals.empty()) return out;
      auto it = a.kind == RefAgg::kMin
                    ? std::min_element(vals.begin(), vals.end())
                    : std::max_element(vals.begin(), vals.end());
      return {RefVal::kInt, *it, 0, ""};
    }
    case RefAgg::kAvg: {
      if (vals.empty()) return out;
      double sum = 0;
      for (int64_t x : vals) sum += static_cast<double>(x);
      return {RefVal::kReal, 0, sum / static_cast<double>(vals.size()), ""};
    }
    case RefAgg::kMedian: {
      if (vals.empty()) return out;
      std::sort(vals.begin(), vals.end());
      return {RefVal::kInt, vals[(vals.size() - 1) / 2], 0, ""};
    }
    default:
      return out;
  }
}

std::vector<std::string> ReferenceRows(const Dataset& d, const GenQuery& q) {
  // Group the passing rows by the rendered key tuple.
  std::map<std::vector<std::string>, std::vector<size_t>> groups;
  for (size_t i = 0; i < d.rows; ++i) {
    if (!RowPasses(d, q, i)) continue;
    std::vector<std::string> key;
    for (const auto& k : q.keys) {
      if (k == "s") {
        key.push_back(d.s[i] ? *d.s[i] : "NULL");
      } else {
        key.push_back(d.r[i] ? std::to_string(*d.r[i]) : "NULL");
      }
    }
    groups[key].push_back(i);
  }
  // Whole-table aggregation always yields one row, even over no input.
  if (q.keys.empty() && groups.empty()) groups[{}] = {};
  std::vector<std::string> rows;
  for (const auto& [key, members] : groups) {
    std::vector<RefVal> cells;
    for (const auto& a : q.aggs) cells.push_back(EvalAgg(d, a, members));
    if (q.having != HavingKind::kNone) {
      const RefVal& h = cells[0];
      if (h.kind != RefVal::kInt) continue;  // NULL comparisons are false
      if (q.having == HavingKind::kFirstAggGe && h.i < q.having_k) continue;
      if (q.having == HavingKind::kImpossible && h.i <= 1000000000) continue;
    }
    std::string row;
    for (const auto& k : key) {
      if (!row.empty()) row += "|";
      row += k;
    }
    for (const auto& c : cells) {
      if (!row.empty()) row += "|";
      row += c.Render();
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

GenQuery GenerateQuery(std::mt19937_64& rng) {
  GenQuery q;
  switch (rng() % 4) {
    case 0: break;
    case 1: q.keys = {"s"}; break;
    case 2: q.keys = {"r"}; break;
    case 3: q.keys = {"s", "r"}; break;
  }
  const size_t naggs = 1 + rng() % 3;
  static const RefAgg kAll[] = {RefAgg::kCountStar, RefAgg::kCount,
                                RefAgg::kSum,       RefAgg::kMin,
                                RefAgg::kMax,       RefAgg::kAvg,
                                RefAgg::kCountD,    RefAgg::kMedian};
  static const char* kIntCols[] = {"r", "v", "w"};
  static const char* kAnyCols[] = {"s", "r", "v", "w"};
  for (size_t i = 0; i < naggs; ++i) {
    AggCol a;
    a.kind = kAll[rng() % 8];
    a.alias = "a" + std::to_string(i);
    if (a.kind == RefAgg::kCountStar) {
      a.input = "";
    } else if (a.kind == RefAgg::kSum || a.kind == RefAgg::kAvg) {
      a.input = kIntCols[rng() % 3];
    } else {
      a.input = kAnyCols[rng() % 4];
    }
    q.aggs.push_back(std::move(a));
  }
  switch (rng() % 5) {
    case 0: q.where = WhereKind::kNone; break;
    case 1:
      q.where = WhereKind::kVGt;
      q.where_a = static_cast<int64_t>(rng() % 900);
      break;
    case 2:
      q.where = WhereKind::kRBetween;
      q.where_a = static_cast<int64_t>(rng() % 60);
      q.where_b = q.where_a + static_cast<int64_t>(rng() % 30);
      break;
    case 3: q.where = WhereKind::kSEq; break;
    case 4: q.where = WhereKind::kSNotNull; break;
  }
  // HAVING compares the first aggregate when it is integer-valued.
  const RefAgg k0 = q.aggs[0].kind;
  const bool int_agg = k0 == RefAgg::kCountStar || k0 == RefAgg::kCount ||
                       k0 == RefAgg::kCountD ||
                       (k0 == RefAgg::kSum && true);
  if (!q.keys.empty() && int_agg) {
    switch (rng() % 4) {
      case 0:
        q.having = HavingKind::kFirstAggGe;
        q.having_k = static_cast<int64_t>(rng() % 50);
        break;
      case 1:
        q.having = HavingKind::kImpossible;
        break;
      default:
        break;
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

class SqlAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeDataset(3000, 0xC0FFEE);
    auto t = engine_.ImportTextBuffer(data_.ToCsv(), "t");
    ASSERT_TRUE(t.ok()) << t.status().message();
  }

  Dataset data_;
  Engine engine_;
};

TEST_F(SqlAggTest, RandomizedDifferentialSmoke) {
  std::mt19937_64 rng(987654321);  // deterministic: same 200 queries always
  const StrategicOptions control = DecodeThenAggregate();
  int group_by = 0, having = 0;
  for (int qi = 0; qi < 200; ++qi) {
    GenQuery q = GenerateQuery(rng);
    group_by += q.keys.empty() ? 0 : 1;
    having += q.having == HavingKind::kNone ? 0 : 1;
    const std::string sql = q.ToSql();
    SCOPED_TRACE("query " + std::to_string(qi) + ": " + sql);

    std::vector<std::string> expected = ReferenceRows(data_, q);

    auto full = engine_.ExecuteSql(sql);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_EQ(SortedRows(full.value()), expected);

    auto parsed = sql::ParseQuery(sql, *engine_.database());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    auto off = engine_.Execute(parsed.value().plan, control);
    ASSERT_TRUE(off.ok()) << off.status().message();
    EXPECT_EQ(SortedRows(off.value()), expected);
  }
  // The generator must actually exercise the interesting shapes.
  EXPECT_GT(group_by, 100);
  EXPECT_GT(having, 20);
}

TEST_F(SqlAggTest, GroupByNullableDictionaryColumn) {
  const std::string sql =
      "SELECT s, COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS total "
      "FROM t GROUP BY s";
  auto full = engine_.ExecuteSql(sql);
  ASSERT_TRUE(full.ok()) << full.status().message();
  // 7 vocabulary entries plus the NULL group.
  EXPECT_EQ(full.value().num_rows(), 8u);
  bool saw_null_group = false;
  for (uint64_t i = 0; i < full.value().num_rows(); ++i) {
    if (full.value().ValueString(i, 0) == "NULL") saw_null_group = true;
  }
  EXPECT_TRUE(saw_null_group);
  auto parsed = sql::ParseQuery(sql, *engine_.database());
  ASSERT_TRUE(parsed.ok());
  auto off = engine_.Execute(parsed.value().plan, DecodeThenAggregate());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(SortedRows(full.value()), SortedRows(off.value()));
}

TEST_F(SqlAggTest, HavingEliminatesEveryGroup) {
  auto r = engine_.ExecuteSql(
      "SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING n > 1000000");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_rows(), 0u);
}

TEST_F(SqlAggTest, GroupByOverEmptyInput) {
  // The filter admits no row (v is never negative; NULL fails too), so
  // the aggregation sees an empty input: zero groups.
  auto r = engine_.ExecuteSql(
      "SELECT s, COUNT(*) AS n, SUM(v) AS total FROM t "
      "WHERE v < -5 GROUP BY s");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_rows(), 0u);
  // Whole-table over the same empty input still yields its one row.
  auto w = engine_.ExecuteSql(
      "SELECT COUNT(*) AS n, SUM(v) AS total FROM t WHERE v < -5");
  ASSERT_TRUE(w.ok()) << w.status().message();
  ASSERT_EQ(w.value().num_rows(), 1u);
  EXPECT_EQ(w.value().ValueString(0, 0), "0");
  EXPECT_EQ(w.value().ValueString(0, 1), "NULL");
}

/// A string function's equal results are one value: UPPER folds 'ab',
/// 'AB' and 'Ab' into one group key and one distinct value, with and
/// without the compressed-domain paths.
TEST(SqlAggStrings, EqualResultsOfAStringFunctionAreOneValue) {
  Engine engine;
  ASSERT_TRUE(
      engine.ImportTextBuffer("k,s\n1,ab\n2,AB\n3,Ab\n4,cd\n5,\n", "t").ok());
  for (const StrategicOptions& options :
       {StrategicOptions{}, DecodeThenAggregate()}) {
    auto grouped = engine.ExecuteSql(
        "SELECT UPPER(s) AS u, COUNT(*) AS n FROM t GROUP BY u", options);
    ASSERT_TRUE(grouped.ok()) << grouped.status().message();
    EXPECT_EQ(SortedRows(grouped.value()),
              (std::vector<std::string>{"AB|3", "CD|1", "NULL|1"}));
    auto distinct =
        engine.ExecuteSql("SELECT COUNTD(UPPER(s)) AS n FROM t", options);
    ASSERT_TRUE(distinct.ok()) << distinct.status().message();
    EXPECT_EQ(distinct.value().ValueString(0, 0), "2");
  }
}

TEST(SqlAggTpch, RollupQueriesMatchWithRewritesOff) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  // Two controls: the compressed-domain paths off (filter pushdown and
  // pruning still on), and every rewrite off — the plan as parsed, with
  // Q3's and Q12's filters above their joins.
  const std::vector<StrategicOptions> controls = {DecodeThenAggregate(),
                                                  testutil::AllRewritesOff()};
  for (const auto& q : TpchQueries()) {
    SCOPED_TRACE(q.id);
    auto parsed = sql::ParseQuery(q.sql, *engine.database());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    auto on = engine.Execute(parsed.value().plan);
    ASSERT_TRUE(on.ok()) << on.status().message();
    EXPECT_GT(on.value().num_rows(), 0u);
    for (const StrategicOptions& control : controls) {
      auto off = engine.Execute(parsed.value().plan, control);
      ASSERT_TRUE(off.ok()) << off.status().message();
      EXPECT_EQ(SortedRows(on.value()), SortedRows(off.value()));
    }
  }
}

TEST(SqlAggTpch, JoinQueriesFilterAndNarrowLineitemBelowTheJoins) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  // Columns the lineitem scan still reads: Q3's key, two revenue inputs
  // and l_shipdate; Q12's key, l_shipmode and l_receiptdate.
  const std::map<std::string, size_t> scan_columns = {{"Q3", 4}, {"Q12", 3}};
  for (const auto& q : TpchQueries()) {
    const auto want = scan_columns.find(q.id);
    if (want == scan_columns.end()) continue;
    SCOPED_TRACE(q.id);
    auto parsed = sql::ParseQuery(q.sql, *engine.database());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    auto explain = ExplainPlan(parsed.value().plan);
    ASSERT_TRUE(explain.ok()) << explain.status().message();
    // The plan tree: one node per line, before the tactical notes.
    std::vector<std::string> tree;
    size_t start = 0;
    while (start < explain.value().size()) {
      size_t end = explain.value().find('\n', start);
      if (end == std::string::npos) end = explain.value().size();
      std::string line = explain.value().substr(start, end - start);
      if (line == "tactical decisions:") break;
      tree.push_back(std::move(line));
      start = end + 1;
    }
    SCOPED_TRACE(explain.value());
    ASSERT_GE(tree.size(), 3u);
    // No filter is left above the joins...
    for (const std::string& line : tree) {
      if (line.find("JoinTable(") != std::string::npos) break;
      EXPECT_EQ(line.find("Filter("), std::string::npos);
    }
    // ...the lineitem conjuncts sit on the scan, under the joins...
    const std::string& filter = tree[tree.size() - 2];
    const std::string& scan = tree.back();
    EXPECT_NE(tree[tree.size() - 3].find("JoinTable("), std::string::npos);
    EXPECT_NE(filter.find("Filter("), std::string::npos);
    EXPECT_NE(filter.find("l_"), std::string::npos);
    ASSERT_EQ(scan.find("Scan(lineitem)["), scan.find_first_not_of(' '));
    EXPECT_GT(filter.find_first_not_of(' '),
              tree[tree.size() - 3].find_first_not_of(' '));
    // ...and the scan reads only the columns the plan uses.
    const auto commas = std::count(scan.begin(), scan.end(), ',');
    EXPECT_EQ(static_cast<size_t>(commas) + 1, want->second);
    // EXPLAIN ANALYZE reports the same width for the executed scan.
    auto analyze = ExplainAnalyzePlan(parsed.value().plan);
    ASSERT_TRUE(analyze.ok()) << analyze.status().message();
    EXPECT_NE(analyze.value().find("TableScan(lineitem)"), std::string::npos);
    EXPECT_NE(analyze.value().find(
                  "columns=" + std::to_string(want->second)),
              std::string::npos)
        << analyze.value();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Morsel merge exactness: the same text imported in small segments (the
// engine runs each aggregate as one task per segment and merges the
// partials in segment order) and in one segment (the serial operator).
// Every answer — its row order too, for a GROUP BY without ORDER BY — and
// every failure must be the serial one.

namespace {

class MorselMergeTest : public ::testing::Test {
 protected:
  void Load(const std::string& csv, uint64_t segment_rows) {
    ImportOptions seg;
    seg.flow.segment_rows = segment_rows;
    ImportOptions one;
    one.flow.segment_rows = uint64_t{1} << 30;
    ASSERT_TRUE(morsels_.ImportTextBuffer(csv, "t", seg).ok());
    ASSERT_TRUE(serial_.ImportTextBuffer(csv, "t", one).ok());
  }

  /// Morsel-parallel aggregation engages on the segmented import, and both
  /// imports give the same rows in the same order, or both fail alike.
  /// Returns the segmented answer.
  Result<QueryResult> ExpectSame(const std::string& sql) {
    auto explain = morsels_.ExecuteSql("EXPLAIN " + sql);
    EXPECT_TRUE(explain.ok()) << sql;
    if (explain.ok()) {
      EXPECT_NE(explain.value().ToCsv().find("segment morsels in parallel"),
                std::string::npos)
          << sql << "\n"
          << explain.value().ToCsv();
    }
    auto want = serial_.ExecuteSql(sql);
    auto got = morsels_.ExecuteSql(sql);
    EXPECT_EQ(want.ok(), got.ok())
        << sql << "\n  serial: " << want.status().ToString()
        << "\n  morsels: " << got.status().ToString();
    if (!want.ok() || !got.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << sql;
      EXPECT_EQ(want.status().message(), got.status().message()) << sql;
    } else {
      EXPECT_EQ(want.value().ToCsv(), got.value().ToCsv()) << sql;
    }
    return got;
  }

  Engine serial_;
  Engine morsels_;
};

TEST_F(MorselMergeTest, IntegerSumOverflowSeenOnlyAcrossASegmentBoundary) {
  // Segment 0 ends 11 below INT64_MAX; segment 1's first row crosses it and
  // its second comes back down. Each partial stays inside int64 and so does
  // the final total, but the serial fold's running total leaves int64 at
  // row 4: the query must fail, as it does serially.
  Load("g,v\n"
       "1,4611686018427387903\n1,4611686018427387893\n1,0\n1,0\n"
       "1,100\n1,-200\n1,0\n1,0\n",
       4);
  auto r = ExpectSame("SELECT g, SUM(v) AS s FROM t GROUP BY g");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overflow"), std::string::npos);
  EXPECT_FALSE(ExpectSame("SELECT SUM(v) AS s FROM t WHERE v <> 5").ok());
}

TEST_F(MorselMergeTest, IntegerSumPartialLeavesInt64WhileEveryPrefixFits) {
  // Segment 1's own running total reaches 3 * (2^62 - 1), past INT64_MAX,
  // but it starts from segment 0's total near INT64_MIN, so every
  // row-order prefix fits and the serial fold succeeds.
  Load("g,v\n"
       "1,-4611686018427387904\n1,-4611686018427387900\n1,0\n1,0\n"
       "1,4611686018427387903\n1,4611686018427387903\n"
       "1,4611686018427387903\n1,0\n",
       4);
  auto r = ExpectSame("SELECT g, SUM(v) AS s FROM t GROUP BY g");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ValueString(0, 1), "4611686018427387905");
}

TEST_F(MorselMergeTest, EveryAggregateAndEdgeCaseMatchesTheSerialAnswer) {
  // 16-row segments. `k` is NULL in every seventh row and "late" only from
  // row 150; rows 32-63 hold odd `n` only, so the even-`n` filter leaves
  // those segments empty; `s` mixes case so MIN/MAX/MEDIAN need collation.
  static const char* kWords[] = {"pear", "Apple", "fig", "banana", "Cherry",
                                 "apple", "date", "Fig", "kiwi", "Banana"};
  std::string csv = "k,s,n,x\n";
  for (int i = 0; i < 230; ++i) {
    const char* k = i % 7 == 3 ? "" : i >= 150 && i % 3 == 0 ? "late"
                                 : (i % 5 < 2 ? "red" : "blue");
    const int n = (i / 32) % 2 == 1 ? 2 * i + 1 : (i * 37) % 101;
    csv += std::string(k) + "," + kWords[(i * 7) % 10] + "," +
           std::to_string(n) + "," + std::to_string(i * 0.25 - 7.5) + "\n";
  }
  Load(csv, 16);
  for (const char* sql : {
           "SELECT k, MIN(s) AS mn, MAX(s) AS mx, COUNTD(s) AS cd, "
           "MEDIAN(s) AS ms, MEDIAN(n) AS mn2, COUNT(*) AS c, COUNT(k) AS ck "
           "FROM t GROUP BY k",
           "SELECT k, SUM(n) AS sn, AVG(n) AS an, SUM(x) AS sx, AVG(x) AS ax, "
           "MIN(x) AS mnx, MAX(n) AS mxn FROM t WHERE (n % 2) = 0 GROUP BY k",
           "SELECT s, k, COUNT(*) AS c, COUNTD(n) AS cd FROM t GROUP BY s, k",
           "SELECT n, COUNT(*) AS c FROM t WHERE (n % 2) = 0 GROUP BY n",
           "SELECT COUNT(*) AS c, MIN(s) AS mn, SUM(n) AS sn, MEDIAN(x) AS mx "
           "FROM t WHERE (n % 1000) = 999",
           "SELECT MIN(s) AS mn, MAX(s) AS mx, COUNTD(k) AS ck, "
           "MEDIAN(n) AS md FROM t WHERE (n % 3) = 0",
       }) {
    auto r = ExpectSame(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
}

/// Emits one block of `k` lanes, then fails.
class FailingSource : public Operator {
 public:
  FailingSource() { schema_.AddField({"k", TypeId::kInteger}); }
  Status Open() override { return Status::OK(); }
  Status Next(Block* block, bool* eos) override {
    *eos = false;
    block->columns.assign(1, ColumnVector{});
    if (emitted_) return Status::Internal("morsel 5 failed");
    emitted_ = true;
    block->columns[0].lanes = {1, 2, 3};
    return Status::OK();
  }
  const Schema& output_schema() const override { return schema_; }

 private:
  Schema schema_;
  bool emitted_ = false;
};

TEST(MorselMerge, AFailingMorselFailsTheAggregate) {
  for (int round = 0; round < 20; ++round) {
    std::vector<std::unique_ptr<Operator>> inputs;
    for (int m = 0; m < 12; ++m) {
      if (m == 5) {
        inputs.push_back(std::make_unique<FailingSource>());
      } else {
        inputs.push_back(testutil::VectorSource::Ints(
            {{"k", std::vector<Lane>(3000, m)}}));
      }
    }
    AggregateOptions opts;
    opts.group_by = {"k"};
    opts.aggs = {{AggKind::kCountStar, "", "n"}};
    HashAggregate agg(std::move(inputs), opts);
    const Status st = agg.Open();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "morsel 5 failed");
  }
}

TEST(MorselMerge, PartialsMergeInInputOrder) {
  // Groups come out in first-occurrence order across the inputs, and a
  // group first seen in a later input lands after every earlier one.
  std::vector<std::unique_ptr<Operator>> inputs;
  inputs.push_back(testutil::VectorSource::Ints({{"k", {7, 3, 7}}}));
  inputs.push_back(testutil::VectorSource::Ints({{"k", {}}}));
  inputs.push_back(testutil::VectorSource::Ints({{"k", {9, 3, 1}}}));
  inputs.push_back(testutil::VectorSource::Ints({{"k", {1, 4}}}));
  AggregateOptions opts;
  opts.group_by = {"k"};
  opts.aggs = {{AggKind::kCountStar, "", "n"}};
  HashAggregate agg(std::move(inputs), opts);
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(&agg, &blocks).ok());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].columns[0].lanes, (std::vector<Lane>{7, 3, 9, 1, 4}));
  EXPECT_EQ(blocks[0].columns[1].lanes, (std::vector<Lane>{2, 2, 1, 2, 1}));
  EXPECT_EQ(agg.morsels(), 4u);
  EXPECT_GE(agg.morsel_threads(), 1u);
}

}  // namespace

}  // namespace tde
