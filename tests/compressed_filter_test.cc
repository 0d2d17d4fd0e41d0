// Compressed-domain predicate evaluation: the rewritten plans must answer
// byte-for-byte identically to decode-then-filter, across encodings and
// predicate shapes, while EXPLAIN ANALYZE and the metrics registry surface
// what was pruned, skipped, and rewritten.

#include <cstdio>
#include <random>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/exec/compressed_predicate.h"
#include "src/exec/scheduler.h"
#include "src/observe/metrics.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/storage/heap_accelerator.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

/// A table with a low-cardinality string column `s` (optionally nullable),
/// an integer column `v`, and a row id — FlowTable sorts the heap, so the
/// dictionary-code rewrite sees collation-ordered tokens.
std::shared_ptr<Table> StringTable(size_t rows, bool with_nulls,
                                   uint64_t seed) {
  static const std::vector<std::string> kVocab = {
      "apple", "banana", "cherry", "date", "elderberry", "fig", "grape"};
  Schema schema;
  schema.AddField({"id", TypeId::kInteger});
  schema.AddField({"v", TypeId::kInteger});
  schema.AddField({"s", TypeId::kString});
  std::vector<ColumnVector> cols(3);
  cols[0].type = TypeId::kInteger;
  cols[1].type = TypeId::kInteger;
  cols[2].type = TypeId::kString;
  auto heap = std::make_shared<StringHeap>();
  HeapAccelerator acc(heap.get());
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    cols[0].lanes.push_back(static_cast<Lane>(i));
    cols[1].lanes.push_back(static_cast<Lane>(rng() % 1000));
    if (with_nulls && rng() % 7 == 0) {
      cols[2].lanes.push_back(kNullSentinel);
    } else {
      cols[2].lanes.push_back(acc.Add(kVocab[rng() % kVocab.size()]));
    }
  }
  cols[2].heap = std::move(heap);
  auto src = std::make_unique<VectorSource>(std::move(schema),
                                            std::move(cols));
  return FlowTable::Build(std::move(src)).MoveValue();
}

/// A table whose `r` column is sorted and low-cardinality (run-length
/// encodes) with an unsorted integer payload `p`.
std::shared_ptr<Table> RleTable(size_t rows, uint64_t seed) {
  std::vector<Lane> r(rows), p(rows);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    r[i] = static_cast<Lane>(i / ((rows / 10) + 1));
    p[i] = static_cast<Lane>(rng() % 100000);
  }
  auto t = FlowTable::Build(VectorSource::Ints({{"r", r}, {"p", p}}))
               .MoveValue();
  return t;
}

/// Control options: every compressed-domain path off — the plan stays a
/// plain decode-then-filter Filter over Scan.
StrategicOptions DecodeThenFilter() {
  StrategicOptions off;
  off.enable_invisible_join = false;
  off.enable_rank_join = false;
  off.enable_metadata_pruning = false;
  off.enable_run_filters = false;
  off.enable_dict_predicates = false;
  return off;
}

/// Byte-identical comparison: same row count, same order, same rendering
/// of every cell (strings through their heaps, NULLs as NULL).
void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.schema().num_fields(), b.schema().num_fields()) << label;
  for (uint64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_fields(); ++c) {
      ASSERT_EQ(a.ValueString(r, c), b.ValueString(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

struct Shape {
  const char* name;
  std::function<ExprPtr()> make;
};

std::vector<Shape> StringShapes() {
  return {
      {"eq", [] { return Eq(Col("s"), Str("cherry")); }},
      {"eq_absent", [] { return Eq(Col("s"), Str("zucchini")); }},
      {"ne", [] { return Ne(Col("s"), Str("banana")); }},
      {"range_le", [] { return Le(Col("s"), Str("date")); }},
      {"range_gt", [] { return Gt(Col("s"), Str("cherry")); }},
      {"in",
       [] {
         return In(Col("s"), {Str("apple"), Str("fig"), Str("zucchini")});
       }},
      {"is_null", [] { return IsNull(Col("s")); }},
      {"not_eq", [] { return Not(Eq(Col("s"), Str("grape"))); }},
      {"not_is_null", [] { return Not(IsNull(Col("s"))); }},
      {"or_mixed",
       [] { return Or(IsNull(Col("s")), Eq(Col("s"), Str("banana"))); }},
      {"and_two_cols",
       [] {
         return And(Eq(Col("s"), Str("apple")), Gt(Col("v"), Int(500)));
       }},
  };
}

std::vector<Shape> RleShapes() {
  return {
      {"eq", [] { return Eq(Col("r"), Int(3)); }},
      {"range_gt", [] { return Gt(Col("r"), Int(5)); }},
      {"range_between",
       [] { return And(Ge(Col("r"), Int(2)), Lt(Col("r"), Int(7))); }},
      {"in", [] { return In(Col("r"), {Int(1), Int(8), Int(42)}); }},
      {"is_null", [] { return IsNull(Col("r")); }},
      {"ne", [] { return Ne(Col("r"), Int(4)); }},
  };
}

TEST(CompressedFilter, StringPredicatesMatchDecodeThenFilter) {
  // Invisible join off on both sides: this test pins the dictionary-code
  // lowering (the invisible join is a different rewrite with inner-join
  // NULL semantics, covered by its own tests).
  StrategicOptions compressed_opts;
  compressed_opts.enable_invisible_join = false;
  for (const bool with_nulls : {false, true}) {
    auto t = StringTable(4000, with_nulls, with_nulls ? 11 : 7);
    for (const Shape& shape : StringShapes()) {
      auto make = [&] { return Plan::Scan(t).Filter(shape.make()); };
      auto control = ExecutePlan(make(), DecodeThenFilter()).MoveValue();
      auto compressed = ExecutePlan(make(), compressed_opts).MoveValue();
      ExpectIdentical(control, compressed,
                      std::string(shape.name) +
                          (with_nulls ? " (nulls)" : " (no nulls)"));
    }
  }
}

TEST(CompressedFilter, RunFilterMatchesDecodeThenFilter) {
  auto t = RleTable(30000, 3);
  ASSERT_EQ(t->ColumnByName("r").value()->encoding_type(),
            EncodingType::kRunLength);
  for (const Shape& shape : RleShapes()) {
    auto make = [&] { return Plan::Scan(t).Filter(shape.make()); };
    auto control = ExecutePlan(make(), DecodeThenFilter()).MoveValue();
    auto compressed = ExecutePlan(make()).MoveValue();
    ExpectIdentical(control, compressed, shape.name);
  }
}

TEST(CompressedFilter, RunFilterRewritesPlanAndPreservesRowOrder) {
  auto t = RleTable(30000, 5);
  auto optimized =
      StrategicOptimize(
          Plan::Scan(t).Filter(Gt(Col("r"), Int(5))).root())
          .MoveValue();
  // Filter over Scan became Project over IndexedScan (predicate evaluated
  // once per run).
  ASSERT_EQ(optimized->kind, PlanNodeKind::kProject);
  ASSERT_EQ(optimized->children[0]->kind, PlanNodeKind::kIndexedScan);
  EXPECT_EQ(optimized->children[0]->index_column, "r");
  EXPECT_EQ(optimized->children[0]->sort_index_by_value, false);

  // Row order is the physical order: r ascends, and within equal r the
  // payload sequence matches the unrewritten plan exactly (checked by the
  // byte-identical test above); here assert monotone r.
  auto result = ExecutePlanNode(optimized, StrategicOptions{}).MoveValue();
  for (uint64_t row = 1; row < result.num_rows(); ++row) {
    ASSERT_GE(result.Value(row, 0), result.Value(row - 1, 0)) << row;
  }
}

TEST(CompressedFilter, MetadataPruneFalseBecomesLimitZero) {
  auto t = RleTable(30000, 9);  // r in [0, 9], no NULLs
  auto optimized =
      StrategicOptimize(
          Plan::Scan(t).Filter(Gt(Col("r"), Int(1000))).root())
          .MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kLimit);
  EXPECT_EQ(optimized->limit, 0u);
  EXPECT_EQ(optimized->pruned_rows, t->rows());
  auto result = ExecutePlanNode(optimized, StrategicOptions{}).MoveValue();
  EXPECT_EQ(result.num_rows(), 0u);
  // Schema is preserved even though the scan never opens.
  EXPECT_EQ(result.schema().num_fields(), t->num_columns());
}

TEST(CompressedFilter, MetadataPruneTrueDissolvesFilter) {
  auto t = RleTable(30000, 9);
  auto plan = Plan::Scan(t).Filter(Ge(Col("r"), Int(0)));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kScan);
  auto result = ExecutePlanNode(optimized, StrategicOptions{}).MoveValue();
  EXPECT_EQ(result.num_rows(), t->rows());
}

TEST(CompressedFilter, MetadataPruneRespectsNulls) {
  // A nullable column must not dissolve IS NULL or fold always-TRUE
  // comparisons: NULL rows fail every comparison.
  std::vector<Lane> vals(2000);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = i % 5 == 0 ? kNullSentinel : static_cast<Lane>(i % 50);
  }
  auto t =
      FlowTable::Build(VectorSource::Ints({{"x", vals}})).MoveValue();
  auto pruned = StrategicOptimize(
                    Plan::Scan(t).Filter(Ge(Col("x"), Int(0))).root())
                    .MoveValue();
  EXPECT_EQ(pruned->kind, PlanNodeKind::kFilter);  // not provably true
  auto result = ExecutePlanNode(pruned, StrategicOptions{}).MoveValue();
  EXPECT_EQ(result.num_rows(), 1600u);  // the 400 NULLs filtered out
}

TEST(CompressedFilter, DictRewriteWrapsOnlyStringSubtrees) {
  Schema schema;
  schema.AddField({"s", TypeId::kString});
  schema.AddField({"v", TypeId::kInteger});
  int rewrites = 0;
  ExprPtr p = RewriteDictPredicates(
      And(Eq(Col("s"), Str("x")), Gt(Col("v"), Int(1))), schema, &rewrites);
  EXPECT_EQ(rewrites, 1);
  EXPECT_FALSE(IsDictCodePredicate(p));  // the AND itself is untouched
  EXPECT_TRUE(IsDictCodePredicate(p->Children()[0]));

  rewrites = 0;
  ExprPtr whole =
      RewriteDictPredicates(Eq(Col("s"), Str("x")), schema, &rewrites);
  EXPECT_EQ(rewrites, 1);
  EXPECT_TRUE(IsDictCodePredicate(whole));
  // Idempotent: lowering an already-lowered predicate changes nothing.
  rewrites = 0;
  EXPECT_EQ(RewriteDictPredicates(whole, schema, &rewrites).get(),
            whole.get());
  EXPECT_EQ(rewrites, 0);

  rewrites = 0;
  ExprPtr ints =
      RewriteDictPredicates(Gt(Col("v"), Int(1)), schema, &rewrites);
  EXPECT_EQ(rewrites, 0);
  EXPECT_FALSE(IsDictCodePredicate(ints));
}

TEST(CompressedFilter, InExpressionSemantics) {
  auto t = StringTable(500, /*with_nulls=*/true, 21);
  // IN matches listed values only; NULL input rows never match.
  auto r = ExecutePlan(Plan::Scan(t).Filter(
                           In(Col("s"), {Str("apple"), Str("fig")})))
               .MoveValue();
  for (uint64_t row = 0; row < r.num_rows(); ++row) {
    const std::string s = r.ValueString(row, 2);
    ASSERT_TRUE(s == "apple" || s == "fig") << s;
  }
  // Integer IN with an empty-ish match set.
  auto t2 = FlowTable::Build(VectorSource::Ints({{"x", {1, 2, 3, 4, 5}}}))
                .MoveValue();
  auto r2 = ExecutePlan(Plan::Scan(t2).Filter(
                            In(Col("x"), {Int(2), Int(5), Int(99)})))
                .MoveValue();
  ASSERT_EQ(r2.num_rows(), 2u);
  EXPECT_EQ(r2.Value(0, 0), 2);
  EXPECT_EQ(r2.Value(1, 0), 5);
}

TEST(CompressedFilter, MetricsAndExplainAnalyzeSurfaceCounters) {
  observe::MetricsRegistry& reg = observe::MetricsRegistry::Global();

  // Metadata pruning reports the rows it proved away.
  {
    auto t = RleTable(30000, 13);
    const uint64_t before = reg.GetCounter("filter.rows_pruned")->value();
    QueryResult result;
    std::string analyzed =
        ExplainAnalyzePlan(Plan::Scan(t).Filter(Gt(Col("r"), Int(1000))),
                           &result)
            .MoveValue();
    EXPECT_EQ(reg.GetCounter("filter.rows_pruned")->value(),
              before + t->rows());
    EXPECT_NE(analyzed.find("rows_pruned"), std::string::npos) << analyzed;
  }

  // Run-level filtering reports skipped runs.
  {
    auto t = RleTable(30000, 17);
    const uint64_t before = reg.GetCounter("filter.runs_skipped")->value();
    QueryResult result;
    std::string analyzed =
        ExplainAnalyzePlan(Plan::Scan(t).Filter(Gt(Col("r"), Int(5))),
                           &result)
            .MoveValue();
    EXPECT_GT(reg.GetCounter("filter.runs_skipped")->value(), before);
    EXPECT_NE(analyzed.find("runs_skipped"), std::string::npos) << analyzed;
  }

  // Dictionary-code lowering reports its rewrites. (Disable the invisible
  // join so the plan keeps a Filter for the lowering to rewrite.)
  {
    auto t = StringTable(4000, /*with_nulls=*/false, 23);
    StrategicOptions opts;
    opts.enable_invisible_join = false;
    const uint64_t before = reg.GetCounter("filter.dict_rewrites")->value();
    const bool was = observe::StatsEnabled();
    observe::SetStatsEnabled(true);
    auto result =
        ExecutePlan(Plan::Scan(t).Filter(Eq(Col("s"), Str("cherry"))), opts);
    observe::SetStatsEnabled(was);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(reg.GetCounter("filter.dict_rewrites")->value(), before + 1);
  }
}

TEST(CompressedFilter, DictPredicatesDisableOptionFallsBack) {
  auto t = StringTable(2000, /*with_nulls=*/true, 29);
  StrategicOptions opts;
  opts.enable_invisible_join = false;
  opts.enable_dict_predicates = false;
  const Plan plan = Plan::Scan(t).Filter(Ne(Col("s"), Str("date")));
  auto plain = ExecutePlan(plan, opts).MoveValue();
  auto control = ExecutePlan(plan, DecodeThenFilter()).MoveValue();
  ExpectIdentical(plain, control, "dict predicates disabled");
}

// --- Regressions from the differential harness (tests/differential_test) --

/// A small engine table with a nullable low-cardinality string column so
/// the strategic optimizer rewrites filters/computations on `s` into an
/// invisible join against its dictionary.
void FillNullableDict(Engine* e) {
  std::string csv = "v,s\n";
  static const char* kColors[] = {"red", "green", "blue"};
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i) + ",";
    if (i % 5 != 0) csv += kColors[i % 3];  // every fifth row: NULL
    csv += "\n";
  }
  ASSERT_TRUE(e->ImportTextBuffer(csv, "t").ok());
}

/// Found by differential seed 10: the invisible join dropped every NULL
/// row of the dictionary column because the dictionary had no NULL entry.
TEST(CompressedFilter, InvisibleJoinKeepsNullRowsForIsNull) {
  Engine e;
  FillNullableDict(&e);
  auto r = e.ExecuteSql("SELECT * FROM t WHERE s IS NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 8u);  // i % 5 == 0 for i in [0, 40)
  // SELECT * keeps the table's column order even though the invisible
  // join routes `s` through the inner side.
  ASSERT_EQ(r.value().schema().num_fields(), 2u);
  EXPECT_EQ(r.value().schema().field(0).name, "v");
  EXPECT_EQ(r.value().schema().field(1).name, "s");
  for (uint64_t row = 0; row < r.value().num_rows(); ++row) {
    EXPECT_EQ(r.value().ValueString(row, 1), "NULL");
  }
}

/// Same root cause through the computation-pushdown rewrite: a projection
/// of a NULL value is NULL, not a dropped row.
TEST(CompressedFilter, InvisibleJoinComputePushdownKeepsNullRows) {
  Engine e;
  FillNullableDict(&e);
  auto r = e.ExecuteSql("SELECT LENGTH(s) AS n, v FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 40u);
  int nulls = 0;
  for (uint64_t row = 0; row < 40; ++row) {
    if (r.value().ValueString(row, 0) == "NULL") ++nulls;
  }
  EXPECT_EQ(nulls, 8);
}

/// A pushed-down CASE with an ELSE branch is NOT null on NULL input; the
/// NULL dictionary row must flow through the expression, not be replaced
/// by a hard-wired NULL payload.
TEST(CompressedFilter, InvisibleJoinPushedCaseEvaluatesNullBranch) {
  Engine e;
  FillNullableDict(&e);
  auto r = e.ExecuteSql(
      "SELECT CASE WHEN (s = 'red') THEN 'hot' ELSE 'cold' END AS m "
      "FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 40u);
  for (uint64_t row = 0; row < 40; ++row) {
    const std::string m = r.value().ValueString(row, 0);
    EXPECT_TRUE(m == "hot" || m == "cold") << m;  // never NULL
  }
}

/// A computation named like the column it reads stays above the scan: an
/// invisible join would emit both under one name, and the plan above would
/// read the column instead of the computation.
TEST(CompressedFilter, ComputationNamedLikeItsColumnIsNotPushed) {
  Engine e;
  FillNullableDict(&e);
  auto r = e.ExecuteSql("SELECT LENGTH(s) AS s, v FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 40u);
  for (uint64_t row = 0; row < 40; ++row) {
    const std::string n = r.value().ValueString(row, 0);
    EXPECT_TRUE(n == "NULL" || n == "3" || n == "4" || n == "5") << n;
  }
}

/// Found by differential seed 37: LIKE '_' consumed one byte, so
/// multi-byte UTF-8 code points never matched width-based patterns.
TEST(CompressedFilter, LikeWildcardsCountCodePointsNotBytes) {
  Engine e;
  ImportOptions opts;
  opts.text.has_header = true;  // an all-string table defeats inference
  ASSERT_TRUE(
      e.ImportTextBuffer("s\némigré\nnaïve\nfjord\nüber\n", "w", opts).ok());
  auto six = e.ExecuteSql("SELECT s FROM w WHERE s LIKE '______'");
  ASSERT_TRUE(six.ok()) << six.status().ToString();
  ASSERT_EQ(six.value().num_rows(), 1u);  // émigré: 6 code points, 8 bytes
  EXPECT_EQ(six.value().ValueString(0, 0), "émigré");
  auto mid = e.ExecuteSql("SELECT s FROM w WHERE s LIKE 'na_ve'");
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  ASSERT_EQ(mid.value().num_rows(), 1u);  // '_' spans the two-byte ï
  EXPECT_EQ(mid.value().ValueString(0, 0), "naïve");
  auto pct = e.ExecuteSql("SELECT s FROM w WHERE s LIKE '%ber'");
  ASSERT_TRUE(pct.ok()) << pct.status().ToString();
  ASSERT_EQ(pct.value().num_rows(), 1u);
  EXPECT_EQ(pct.value().ValueString(0, 0), "über");
}

/// Found by differential seed 171 (data seed 3): LIMIT 0 over a Project
/// returned a result with no columns at all — the child was never opened,
/// so its schema was never built.
TEST(CompressedFilter, LimitZeroPreservesProjectedSchema) {
  Engine e;
  FillNullableDict(&e);
  auto r = e.ExecuteSql("SELECT s, v, s FROM t LIMIT 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 0u);
  ASSERT_EQ(r.value().schema().num_fields(), 3u);
  EXPECT_EQ(r.value().schema().field(0).name, "s");
  EXPECT_EQ(r.value().schema().field(1).name, "v");
  EXPECT_EQ(r.value().schema().field(2).name, "s");
}

/// Found by differential seed 2: a string CASE whose branches read
/// different columns stamped branch 0's heap on the output, so every lane
/// rendered through the wrong heap.
TEST(CompressedFilter, CaseAcrossColumnsMergesBranchHeaps) {
  Engine e;
  ImportOptions opts;
  opts.text.has_header = true;  // mostly-string rows defeat inference
  ASSERT_TRUE(e.ImportTextBuffer(
                   "v,a,b\n1,one-a,one-b\n2,two-a,two-b\n3,three-a,three-b\n",
                   "c", opts)
                  .ok());
  auto r = e.ExecuteSql(
      "SELECT v, CASE WHEN (v = 2) THEN a ELSE b END AS m "
      "FROM c ORDER BY v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().ValueString(0, 1), "one-b");
  EXPECT_EQ(r.value().ValueString(1, 1), "two-a");
  EXPECT_EQ(r.value().ValueString(2, 1), "three-b");
}

/// Per-entry projections (Sect. 4.1.2): a computation over one stored
/// string column — read from the scan or from a join's payload, Q12's
/// shape — is evaluated once per heap entry and gathered by token. Answers
/// must equal per-row evaluation (`enable_dict_predicates` off) at every
/// pool size, NULL rows included. A computed column's per-block heaps
/// keep per-row evaluation, and so does a stored heap past the entry
/// bound.
TEST(CompressedFilter, PerEntryProjectionsMatchPerRow) {
  static const char* kVocab[] = {"a", "b", "cat", "dog", "emu"};
  std::string facts = "id,g,k,s,w\n";
  for (int i = 0; i < 3000; ++i) {
    facts += std::to_string(i) + "," + std::to_string(i % 5) + "," +
             std::to_string(i % 23) + ",";
    if (i % 7 != 3) facts += kVocab[(i * 3) % 5];  // every 7th: NULL
    char w[16];
    std::snprintf(w, sizeof(w), "w%05d", i % 2000);  // 2000 distinct
    facts += std::string(",") + (i % 11 == 5 ? "" : w) + "\n";
  }
  std::string dims = "dk,ds\n";
  for (int k = 0; k < 23; ++k) {
    dims += std::to_string(k) + ",";
    if (k % 6 != 1) dims += kVocab[(k + 1) % 5];
    dims += "\n";
  }
  Engine e;
  ImportOptions opts;
  opts.text.has_header = true;
  opts.flow.segment_rows = 512;  // six morsels
  ASSERT_TRUE(e.ImportTextBuffer(facts, "f", opts).ok());
  ASSERT_TRUE(e.ImportTextBuffer(dims, "d", opts).ok());
  auto f = e.database()->GetTable("f").value();
  auto d = e.database()->GetTable("d").value();

  struct Input {
    const char* name;
    std::function<Plan()> source;  // emits g and the string column x
    std::string x;
    const char* note;  // EXPLAIN's projection note, or null
  };
  const std::vector<Input> inputs = {
      {"stored", [&] { return Plan::Scan(f); }, "s",
       "project: 1 per-entry computation(s)"},
      {"join payload",
       [&] { return Plan::Scan(f).Join(d, {"k", "dk", {"ds"}, {}}); }, "ds",
       "project: 1 per-entry computation(s)"},
      {"computed per block",
       [&] {
         return Plan::Scan(f).Project(
             {{Col("g"), "g"},
              {Case({{Eq(Arith(ArithOp::kMod, Col("id"), Int(3)), Int(0)),
                      Col("s")}},
                    Str("b")),
               "c"}});
       },
       "c", nullptr},
      {"past the entry bound", [&] { return Plan::Scan(f); }, "w",
       "project: 1 per-entry computation(s)"},
  };
  struct ShapeOf {
    const char* name;
    std::function<ExprPtr(const std::string&)> make;
    AggKind agg;
  };
  const std::vector<ShapeOf> shapes = {
      {"SUM(CASE x = 'a' OR x = 'b')",
       [](const std::string& x) {
         return Case({{Or(Eq(Col(x), Str("a")), Eq(Col(x), Str("b"))),
                       Int(1)}},
                     Int(0));
       },
       AggKind::kSum},
      {"SUM(LENGTH(x))",
       [](const std::string& x) { return StrF(StrFunc::kLength, Col(x)); },
       AggKind::kSum},
      {"COUNTD(UPPER(x))",
       [](const std::string& x) { return StrF(StrFunc::kUpper, Col(x)); },
       AggKind::kCountDistinct},
      // Equal results from different entries: the per-entry heap repeats
      // strings, and COUNTD must go by the text.
      {"COUNTD(CASE x = 'a' OR x IS NULL THEN 'z' ELSE 'y')",
       [](const std::string& x) {
         return Case({{Or(Eq(Col(x), Str("a")), IsNull(Col(x))), Str("z")}},
                     Str("y"));
       },
       AggKind::kCountDistinct},
  };
  StrategicOptions on;
  on.enable_invisible_join = false;  // keep the Project over the scan
  StrategicOptions off = on;
  off.enable_dict_predicates = false;
  TaskScheduler pool1(1), pool2(2), pool4(4);
  for (TaskScheduler* pool : {&pool1, &pool2, &pool4}) {
    TaskScheduler::ScopedOverride override_pool(pool);
    for (const Input& in : inputs) {
      for (const ShapeOf& shape : shapes) {
        const std::string label = std::string(in.name) + " " + shape.name +
                                  " pool " +
                                  std::to_string(pool->workers());
        const Plan plan =
            in.source()
                .Project({{Col("g"), "g"}, {shape.make(in.x), "v"}})
                .Aggregate({"g"}, {{shape.agg, "v", "n"},
                                   {AggKind::kCount, "v", "c"}})
                .OrderBy({{"g", true}});
        QueryResult got;
        auto analyzed = ExplainAnalyzePlan(plan, &got, on);
        ASSERT_TRUE(analyzed.ok()) << label << analyzed.status().ToString();
        auto want = ExecutePlan(plan, off);
        ASSERT_TRUE(want.ok()) << label << want.status().ToString();
        ExpectIdentical(got, want.value(), label);
        ASSERT_EQ(got.num_rows(), 5u) << label;
        const std::string& text = analyzed.value();
        if (in.note != nullptr) {
          EXPECT_NE(text.find(in.note), std::string::npos) << label << text;
          EXPECT_NE(text.find("dict_rewrites=1"), std::string::npos)
              << label << text;
        } else {
          EXPECT_EQ(text.find("per-entry"), std::string::npos)
              << label << text;
        }
      }
    }
  }
  // What each stored heap translates to: the values for `s`, nothing past
  // the entry bound for `w` (2000 entries), whose rows stay per row.
  Schema heaps;
  heaps.AddField({"s", TypeId::kString});
  heaps.AddField({"w", TypeId::kString});
  for (const auto& [column, tabulated] :
       {std::make_pair("s", true), std::make_pair("w", false)}) {
    auto col = f->ColumnByName(column).value();
    std::shared_ptr<const StringHeap> heap(col, col->heap());
    int rewrites = 0;
    const ExprPtr wrapped = RewriteDictComputations(
        StrF(StrFunc::kLength, Col(column)), heaps, &rewrites);
    ASSERT_EQ(rewrites, 1);
    auto t = AsDictCodePredicate(wrapped)->Translate(heap);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(!t.value()->values.lanes.empty(), tabulated) << column;
  }
}

}  // namespace
}  // namespace tde
