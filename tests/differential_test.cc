// Differential correctness harness: every generated query runs through the
// real engine — under a matrix of strategic kill switches and storage
// layouts (monolithic, segmented, and monolithic after OptimizeTable) — and
// through the deliberately naive reference interpreter in
// src/testing. Any disagreement fails with a self-contained repro (data
// seed, query seed, table specs, SQL, config) that regenerates the case
// exactly.
//
// Environment knobs:
//   TDE_DIFF_SEEDS      number of query seeds to sweep (default 240)
//   TDE_DIFF_DATA_SEED  dataset seed (default 1)
//   TDE_DIFF_ROWS       fact-table rows (default 900)
//   TDE_DIFF_SEG_ROWS   rows per segment in the segmented layout (default 256)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/engine.h"
#include "src/exec/scheduler.h"
#include "src/observe/metrics.h"
#include "src/plan/strategic.h"
#include "src/sql/parser.h"
#include "src/testing/genquery.h"
#include "src/testing/reference.h"
#include "tests/test_util.h"

namespace tde {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// A result rendered to strings, the common currency both sides are
/// compared in. Rendering rules match on both sides by construction
/// (RefValueString mirrors QueryResult::ValueString).
struct Rendered {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> rows;
};

Rendered RenderEngine(const QueryResult& r) {
  Rendered out;
  for (size_t c = 0; c < r.schema().num_fields(); ++c) {
    out.names.push_back(r.schema().field(c).name);
  }
  out.rows.resize(r.num_rows());
  for (uint64_t i = 0; i < r.num_rows(); ++i) {
    out.rows[i].reserve(out.names.size());
    for (size_t c = 0; c < out.names.size(); ++c) {
      out.rows[i].push_back(r.ValueString(i, c));
    }
  }
  return out;
}

Rendered RenderOracle(const testing::RefResult& r) {
  Rendered out;
  for (const auto& f : r.fields) out.names.push_back(f.name);
  out.rows.resize(r.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    out.rows[i].reserve(r.rows[i].size());
    for (const auto& v : r.rows[i]) {
      out.rows[i].push_back(testing::RefValueString(v));
    }
  }
  return out;
}

std::string RowToString(const std::vector<std::string>& row) {
  std::string s = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i];
  }
  return s + "]";
}

std::string Preview(const std::vector<std::vector<std::string>>& rows,
                    size_t limit = 6) {
  std::string s;
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    s += "    " + RowToString(rows[i]) + "\n";
  }
  if (rows.size() > limit) {
    s += "    ... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return s;
}

/// Compares engine output against the oracle. `oracle` has the query's
/// LIMIT applied; `oracle_full` is the same result without the top-level
/// LIMIT (identical object when the query has none). Returns "" on
/// agreement, otherwise a description of the first disagreement.
std::string CompareResults(const testing::GeneratedQuery& q,
                           const Rendered& oracle, const Rendered& oracle_full,
                           const Rendered& engine) {
  if (engine.names != oracle.names) {
    std::string s = "output schema differs\n  oracle: ";
    s += RowToString(oracle.names) + "\n  engine: " + RowToString(engine.names);
    return s;
  }
  if (q.has_order_by) {
    // Generated ORDER BY lists are total orders: compare positionally.
    if (engine.rows.size() != oracle.rows.size()) {
      return "row count differs (ordered): oracle " +
             std::to_string(oracle.rows.size()) + ", engine " +
             std::to_string(engine.rows.size()) + "\n  oracle:\n" +
             Preview(oracle.rows) + "  engine:\n" + Preview(engine.rows);
    }
    for (size_t i = 0; i < engine.rows.size(); ++i) {
      if (engine.rows[i] != oracle.rows[i]) {
        return "row " + std::to_string(i) + " differs (ordered)\n  oracle: " +
               RowToString(oracle.rows[i]) +
               "\n  engine: " + RowToString(engine.rows[i]);
      }
    }
    return "";
  }
  if (q.has_limit) {
    // Unordered LIMIT: any `limit`-sized sub-multiset of the full result
    // is correct.
    const size_t want =
        std::min<size_t>(q.limit, oracle_full.rows.size());
    if (engine.rows.size() != want) {
      return "row count differs (unordered LIMIT " + std::to_string(q.limit) +
             "): expected " + std::to_string(want) + ", engine " +
             std::to_string(engine.rows.size());
    }
    auto full = oracle_full.rows;
    auto got = engine.rows;
    std::sort(full.begin(), full.end());
    std::sort(got.begin(), got.end());
    size_t j = 0;
    for (const auto& row : got) {
      while (j < full.size() && full[j] < row) ++j;
      if (j == full.size() || full[j] != row) {
        return "engine row not in full oracle result (unordered LIMIT)\n"
               "  engine row: " +
               RowToString(row);
      }
      ++j;
    }
    return "";
  }
  // Unordered, no LIMIT: multiset equality.
  auto want = oracle.rows;
  auto got = engine.rows;
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want == got) return "";
  if (want.size() != got.size()) {
    return "row count differs (unordered): oracle " +
           std::to_string(want.size()) + ", engine " +
           std::to_string(got.size()) + "\n  oracle:\n" + Preview(want) +
           "  engine:\n" + Preview(got);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      return "multiset mismatch at sorted position " + std::to_string(i) +
             "\n  oracle: " + RowToString(want[i]) +
             "\n  engine: " + RowToString(got[i]);
    }
  }
  return "impossible";
}

struct Config {
  std::string name;
  StrategicOptions opts;
};

std::vector<Config> MakeConfigs() {
  std::vector<Config> configs;
  configs.push_back({"default", StrategicOptions{}});

  configs.push_back({"everything-off", testutil::AllRewritesOff()});

  StrategicOptions o = StrategicOptions{};
  o.enable_dict_grouping = false;
  configs.push_back({"no-dict-grouping", o});

  o = StrategicOptions{};
  o.enable_run_aggregation = false;
  o.enable_rank_join = false;
  configs.push_back({"no-run-aggregation", o});

  o = StrategicOptions{};
  o.enable_metadata_aggregates = false;
  o.enable_metadata_pruning = false;
  configs.push_back({"no-metadata", o});

  o = StrategicOptions{};
  o.enable_dict_predicates = false;
  o.enable_run_filters = false;
  configs.push_back({"no-compressed-predicates", o});

  o = StrategicOptions{};
  o.enable_simplification = false;
  o.enable_filter_pushdown = false;
  o.enable_projection_pruning = false;
  configs.push_back({"no-rewrites", o});

  // The Top-N axis: heap vs full sort must agree on order, ties, and NULL
  // placement; with the fusion off the engine still exercises the
  // rewritten Sort (dict keys, parallel chunks).
  o = StrategicOptions{};
  o.enable_topn = false;
  configs.push_back({"no-topn", o});

  o = StrategicOptions{};
  o.enable_dict_sort = false;
  configs.push_back({"no-dict-sort", o});

  o = StrategicOptions{};
  o.enable_sort_pruning = false;
  configs.push_back({"no-sort-pruning", o});
  return configs;
}

/// Wraps every scan of a cloned plan in a parallel Exchange, the layout
/// the strategic optimizer never inserts on its own but the executor must
/// still get right.
PlanNodePtr WrapScansInExchange(PlanNodePtr node, int workers) {
  if (node == nullptr) return nullptr;
  for (PlanNodePtr& child : node->children) {
    child = WrapScansInExchange(child, workers);
  }
  if (node->kind == PlanNodeKind::kScan) {
    auto ex = std::make_shared<PlanNode>();
    ex->kind = PlanNodeKind::kExchange;
    ex->exchange_workers = workers;
    ex->children = {node};
    return ex;
  }
  return node;
}

/// Strips a top-level LIMIT (for the unordered-LIMIT prefix check, which
/// needs the full result on the oracle side).
PlanNodePtr WithoutTopLimit(const PlanNodePtr& root) {
  if (root != nullptr && root->kind == PlanNodeKind::kLimit) {
    return root->children[0];
  }
  return root;
}

class DifferentialTest : public ::testing::Test {
 protected:
  void BuildDatasets(uint64_t data_seed, uint64_t fact_rows,
                     uint64_t seg_rows) {
    seg_rows_ = seg_rows;
    fact_ = testing::GenerateDataset(testing::MakeFactSpec(data_seed, fact_rows));
    dim_ = testing::GenerateDataset(testing::MakeDimSpec(data_seed + 1, 40));
    dim2_ = testing::GenerateDataset(testing::MakeDim2Spec(data_seed + 2, 20));
    tables_ = {{"fact", &fact_.ref}, {"dim", &dim_.ref}, {"dim2", &dim2_.ref}};

    ImportOptions seg;
    seg.flow.segment_rows = seg_rows;
    for (const testing::Dataset* d : {&fact_, &dim_, &dim2_}) {
      ASSERT_TRUE(mono_.ImportTextBuffer(d->csv, d->spec.name).ok());
      ASSERT_TRUE(seg_.ImportTextBuffer(d->csv, d->spec.name, seg).ok());
      // The optimized layout: dimension-shaped columns become array
      // dictionaries, so queries read kArrayDict codes (invisible joins,
      // join keys, filters).
      ASSERT_TRUE(opt_.ImportTextBuffer(d->csv, d->spec.name).ok());
      auto converted = opt_.OptimizeTable(d->spec.name);
      ASSERT_TRUE(converted.ok()) << converted.status().ToString();
      array_dicts_ += converted.value();
    }
  }

  std::string Repro(uint64_t data_seed, uint64_t seed,
                    const testing::GeneratedQuery& q, const std::string& layout,
                    const std::string& config) const {
    std::string s = "=== differential divergence ===\n";
    s += "data_seed=" + std::to_string(data_seed) +
         " query_seed=" + std::to_string(seed) + "\n";
    s += "layout=" + layout + " config=" + config + "\n";
    s += "sql: " + q.sql + "\n";
    s += fact_.spec.ToString() + "\n";
    s += dim_.spec.ToString() + "\n";
    s += dim2_.spec.ToString() + "\n";
    s += "repro: TDE_DIFF_DATA_SEED=" + std::to_string(data_seed) +
         " TDE_DIFF_ROWS=" + std::to_string(fact_.spec.rows) +
         " TDE_DIFF_SEG_ROWS=" + std::to_string(seg_rows_) +
         " TDE_DIFF_SEEDS=" + std::to_string(seed) +
         " ./differential_test  (query seed " + std::to_string(seed) +
         " runs last)\n";
    return s;
  }

  testing::Dataset fact_;
  testing::Dataset dim_;
  testing::Dataset dim2_;
  std::map<std::string, const testing::RefTable*> tables_;
  uint64_t seg_rows_ = 256;
  int array_dicts_ = 0;
  Engine mono_;
  Engine seg_;
  Engine opt_;
};

TEST_F(DifferentialTest, RandomizedSweep) {
  const uint64_t data_seed = EnvU64("TDE_DIFF_DATA_SEED", 1);
  const uint64_t num_seeds = EnvU64("TDE_DIFF_SEEDS", 240);
  const uint64_t fact_rows = EnvU64("TDE_DIFF_ROWS", 900);
  const uint64_t seg_rows = EnvU64("TDE_DIFF_SEG_ROWS", 256);
  BuildDatasets(data_seed, fact_rows, seg_rows);
  const std::vector<Config> configs = MakeConfigs();

  // A deliberately tiny shared pool for the pool2-exchange leg: with two
  // workers serving four-way exchanges, admission parking, task rotation
  // and consumer helping all fire on every query. The morsel legs also
  // run on pools of one and four.
  TaskScheduler pool1(1);
  TaskScheduler pool2(2);
  TaskScheduler pool4(4);

  uint64_t executed = 0;
  uint64_t chained = 0;
  uint64_t per_entry = 0;  // executions with a per-entry projection
  int failures = 0;
  for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
    const testing::GeneratedQuery q =
        testing::GenerateQuery(seed, fact_, dim_, dim2_);
    if (q.has_second_join) ++chained;

    // Oracle: interpret the *parsed* (pre-optimization) plan.
    auto parsed = sql::ParseQuery(q.sql, *mono_.database());
    ASSERT_TRUE(parsed.ok()) << "generator produced unparseable SQL\n"
                             << Repro(data_seed, seed, q, "-", "-")
                             << parsed.status().ToString();
    auto oracle_res = testing::EvalReference(parsed.value().plan.root(), tables_);
    Rendered oracle, oracle_full;
    if (oracle_res.ok()) {
      oracle = RenderOracle(oracle_res.value());
      oracle_full = oracle;
      if (q.has_limit && !q.has_order_by) {
        auto full = testing::EvalReference(
            WithoutTopLimit(parsed.value().plan.root()), tables_);
        ASSERT_TRUE(full.ok()) << full.status().ToString();
        oracle_full = RenderOracle(full.value());
      }
    }

    struct Run {
      std::string layout;
      std::string config;
      Result<QueryResult> result;
    };
    std::vector<Run> runs;
    for (const Config& c : configs) {
      runs.push_back({"monolithic", c.name, mono_.ExecuteSql(q.sql, c.opts)});
      runs.push_back({"segmented", c.name, seg_.ExecuteSql(q.sql, c.opts)});
      if (c.name == "default" || c.name == "everything-off" ||
          c.name == "no-compressed-predicates") {
        runs.push_back({"optimized", c.name, opt_.ExecuteSql(q.sql, c.opts)});
      }
    }
    // Morsel legs: in the segmented layout every eligible aggregate runs
    // as one task per segment; pools of one, two and four workers change
    // which threads run them and in what order they finish, never the
    // answer or its order.
    for (TaskScheduler* pool : {&pool1, &pool2, &pool4}) {
      TaskScheduler::ScopedOverride override_pool(pool);
      runs.push_back({"segmented",
                      "pool" + std::to_string(pool->workers()) + "-morsels",
                      seg_.ExecuteSql(q.sql)});
    }
    // Exchange variants: parallel scans under the default options. Skipped
    // for unordered LIMIT queries, where "which rows" legitimately depends
    // on arrival order.
    if (!(q.has_limit && !q.has_order_by)) {
      for (Engine* e : {&mono_, &seg_}) {
        auto p = sql::ParseQuery(q.sql, *e->database());
        ASSERT_TRUE(p.ok());
        PlanNodePtr wrapped =
            WrapScansInExchange(ClonePlan(p.value().plan.root()), 4);
        auto optimized = StrategicOptimize(wrapped, StrategicOptions{});
        if (optimized.ok()) {
          runs.push_back({e == &mono_ ? "monolithic" : "segmented",
                          "exchange-wrapped",
                          ExecutePlanNode(optimized.value(),
                                          StrategicOptions{})});
        } else {
          runs.push_back({e == &mono_ ? "monolithic" : "segmented",
                          "exchange-wrapped", optimized.status()});
        }
      }
      // Shared-pool leg: the same exchange-wrapped plans, but scheduled
      // onto a pool of two workers instead of the process-wide pool.
      {
        TaskScheduler::ScopedOverride override_pool(&pool2);
        for (Engine* e : {&mono_, &seg_}) {
          auto p = sql::ParseQuery(q.sql, *e->database());
          ASSERT_TRUE(p.ok());
          PlanNodePtr wrapped =
              WrapScansInExchange(ClonePlan(p.value().plan.root()), 4);
          auto optimized = StrategicOptimize(wrapped, StrategicOptions{});
          if (optimized.ok()) {
            runs.push_back({e == &mono_ ? "monolithic" : "segmented",
                            "pool2-exchange",
                            ExecutePlanNode(optimized.value(),
                                            StrategicOptions{})});
          } else {
            runs.push_back({e == &mono_ ? "monolithic" : "segmented",
                            "pool2-exchange", optimized.status()});
          }
        }
      }
    }

    for (Run& run : runs) {
      ++executed;
      if (run.result.ok() && run.result.value().stats() != nullptr) {
        for (const std::string& note : run.result.value().stats()->notes) {
          if (note.find("per-entry computation") != std::string::npos) {
            ++per_entry;
            break;
          }
        }
      }
      if (!oracle_res.ok()) {
        // The oracle refused (e.g. integer overflow in SUM): the engine
        // must refuse too. Messages may differ; statuses must agree.
        if (run.result.ok()) {
          ADD_FAILURE() << Repro(data_seed, seed, q, run.layout, run.config)
                        << "oracle errored but engine succeeded\n  oracle: "
                        << oracle_res.status().ToString();
          ++failures;
        }
        continue;
      }
      if (!run.result.ok()) {
        ADD_FAILURE() << Repro(data_seed, seed, q, run.layout, run.config)
                      << "engine errored but oracle succeeded\n  engine: "
                      << run.result.status().ToString();
        ++failures;
        continue;
      }
      const Rendered engine = RenderEngine(run.result.value());
      const std::string diff = CompareResults(q, oracle, oracle_full, engine);
      if (!diff.empty()) {
        ADD_FAILURE() << Repro(data_seed, seed, q, run.layout, run.config)
                      << diff;
        ++failures;
      }
      if (failures > 12) {
        FAIL() << "too many divergences; stopping after "
               << executed << " executions";
      }
    }
  }
  RecordProperty("executions", static_cast<int>(executed));
  RecordProperty("chained_join_queries", static_cast<int>(chained));
  RecordProperty("per_entry_executions", static_cast<int>(per_entry));
  RecordProperty("array_dictionary_columns", array_dicts_);
  std::printf("differential: %llu executions, %llu with a per-entry "
              "projection\n",
              static_cast<unsigned long long>(executed),
              static_cast<unsigned long long>(per_entry));
  EXPECT_GE(executed, num_seeds * (configs.size() * 2 + 6));
  EXPECT_GT(array_dicts_, 0);
  // Q3-shaped fact -> dim -> dim2 chains must be part of every real sweep,
  // and so must per-entry projections (seen through the lowering notes,
  // which only a run with stats records).
  if (num_seeds >= 100) {
    EXPECT_GT(chained, 0u);
    if (observe::StatsEnabled()) EXPECT_GT(per_entry, 0u);
  }
}

// ---------------------------------------------------------------------------
// Oracle self-checks: the reference interpreter itself is pinned against
// hand-computed answers, so a sweep pass can't mean "both sides share a
// bug introduced by the oracle".

TEST(ReferenceOracle, HandComputedAggregate) {
  testing::RefTable t;
  t.fields = {{"k", TypeId::kString}, {"v", TypeId::kInteger}};
  auto sval = [](const std::string& s) {
    testing::RefValue v;
    v.type = TypeId::kString;
    v.null = false;
    v.s = s;
    return v;
  };
  auto ival = [](int64_t i) {
    testing::RefValue v;
    v.type = TypeId::kInteger;
    v.null = false;
    v.i = i;
    return v;
  };
  testing::RefValue inull;
  inull.type = TypeId::kInteger;
  t.rows = {{sval("b"), ival(10)},
            {sval("a"), ival(1)},
            {sval("b"), ival(5)},
            {sval("a"), inull},
            {sval("a"), ival(3)}};

  // Oracle needs a plan; parse against an engine holding a same-shaped
  // table (plans resolve tables by name).
  Engine e;
  ASSERT_TRUE(e.ImportTextBuffer("k,v\nb,10\na,1\nb,5\na,\na,3\n", "t").ok());
  auto parsed = sql::ParseQuery(
      "SELECT k, SUM(v) AS s, COUNT(*) AS n, AVG(v) AS m FROM t "
      "GROUP BY k ORDER BY k",
      *e.database());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  std::map<std::string, const testing::RefTable*> tables = {{"t", &t}};
  auto res = testing::EvalReference(parsed.value().plan.root(), tables);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().rows.size(), 2u);
  EXPECT_EQ(testing::RefValueString(res.value().rows[0][0]), "a");
  EXPECT_EQ(testing::RefValueString(res.value().rows[0][1]), "4");   // 1 + 3
  EXPECT_EQ(testing::RefValueString(res.value().rows[0][2]), "3");   // COUNT(*)
  EXPECT_EQ(testing::RefValueString(res.value().rows[0][3]), "2");   // AVG: %g
  EXPECT_EQ(testing::RefValueString(res.value().rows[1][0]), "b");
  EXPECT_EQ(testing::RefValueString(res.value().rows[1][1]), "15");
  EXPECT_EQ(testing::RefValueString(res.value().rows[1][2]), "2");
  EXPECT_EQ(testing::RefValueString(res.value().rows[1][3]), "7.5");
}

TEST(ReferenceOracle, NullComparisonSemantics) {
  Engine e;
  ASSERT_TRUE(e.ImportTextBuffer("x\n1\n\n3\n", "t").ok());
  testing::RefTable t;
  t.fields = {{"x", TypeId::kInteger}};
  auto ival = [](int64_t i) {
    testing::RefValue v;
    v.type = TypeId::kInteger;
    v.null = false;
    v.i = i;
    return v;
  };
  testing::RefValue inull;
  inull.type = TypeId::kInteger;
  t.rows = {{ival(1)}, {inull}, {ival(3)}};
  std::map<std::string, const testing::RefTable*> tables = {{"t", &t}};

  // NULL never satisfies a comparison...
  auto parsed = sql::ParseQuery("SELECT x FROM t WHERE x < 5", *e.database());
  ASSERT_TRUE(parsed.ok());
  auto res = testing::EvalReference(parsed.value().plan.root(), tables);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().rows.size(), 2u);

  // ...but two-valued NOT turns that false into true.
  parsed = sql::ParseQuery("SELECT x FROM t WHERE NOT (x < 5)", *e.database());
  ASSERT_TRUE(parsed.ok());
  res = testing::EvalReference(parsed.value().plan.root(), tables);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().rows.size(), 1u);
  EXPECT_TRUE(res.value().rows[0][0].null);
}

TEST(ReferenceLikeMatcher, Utf8AndWildcards) {
  using testing::ReferenceLikeMatch;
  // '_' consumes one code point, never a lone continuation byte.
  EXPECT_TRUE(ReferenceLikeMatch("é", "_", true));
  EXPECT_FALSE(ReferenceLikeMatch("é", "__", true));
  EXPECT_TRUE(ReferenceLikeMatch("éclair", "_clair", true));
  // Empty pattern matches only the empty string.
  EXPECT_TRUE(ReferenceLikeMatch("", "", true));
  EXPECT_FALSE(ReferenceLikeMatch("a", "", true));
  // Trailing and consecutive wildcards.
  EXPECT_TRUE(ReferenceLikeMatch("oak", "oak%", true));
  EXPECT_TRUE(ReferenceLikeMatch("oak", "%%oak", true));
  EXPECT_TRUE(ReferenceLikeMatch("oak", "%", true));
  EXPECT_TRUE(ReferenceLikeMatch("", "%", true));
  EXPECT_FALSE(ReferenceLikeMatch("", "_%", true));
  // Case folding is ASCII-only.
  EXPECT_TRUE(ReferenceLikeMatch("OAK", "oak", true));
  EXPECT_FALSE(ReferenceLikeMatch("OAK", "oak", false));
}

}  // namespace
}  // namespace tde
