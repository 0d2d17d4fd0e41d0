#include "src/plan/plan.h"

#include <algorithm>
#include <map>
#include <numeric>

#include <gtest/gtest.h>

#include "src/exec/instrument.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/workload/rle_data.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

std::shared_ptr<Table> ColorTable() {
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3, 4, 5}},
                                 {"qty", {10, 20, 30, 40, 50, 60}}});
  src->AddStringColumn("color",
                       {"red", "blue", "red", "green", "blue", "red"});
  return FlowTable::Build(std::move(src)).MoveValue();
}

TEST(Strategic, InvisibleJoinRewriteFires) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(Eq(Col("color"), Str("red")));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kInvisibleJoin);
  EXPECT_EQ(optimized->dict_column, "color");
}

TEST(Strategic, InvisibleJoinDisabledLeavesFilter) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(Eq(Col("color"), Str("red")));
  StrategicOptions opts;
  opts.enable_invisible_join = false;
  auto optimized = StrategicOptimize(plan.root(), opts).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, NoRewriteForMultiColumnPredicate) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t).Filter(
      And(Eq(Col("color"), Str("red")), Gt(Col("qty"), Int(10))));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, RankJoinRewriteFires) {
  auto t = MakeRleTable(100000).MoveValue();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("primary"), Int(90)))
                  .Aggregate({"primary"},
                             {{AggKind::kMax, "secondary", "m"}});
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kAggregate);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kIndexedScan);
  EXPECT_EQ(optimized->children[0]->index_column, "primary");
  EXPECT_EQ(optimized->children[0]->payload,
            (std::vector<std::string>{"secondary"}));
}

TEST(Strategic, RankJoinRequiresRleColumn) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(20)))
                  .Aggregate({"qty"}, {{AggKind::kCountStar, "", "n"}});
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kAggregate);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kFilter);
}

TEST(Strategic, ExchangeUnderMaterializeForcedOrdered) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(0)))
                  .ExchangeBy(4, /*order_preserving=*/false)
                  .Materialize();
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kMaterialize);
  const PlanNodePtr& ex = optimized->children[0];
  ASSERT_EQ(ex->kind, PlanNodeKind::kExchange);
  EXPECT_TRUE(ex->order_preserving);
}

TEST(Strategic, ExchangeWithoutEncoderStaysUnordered) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(0)))
                  .ExchangeBy(4, /*order_preserving=*/false);
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_FALSE(optimized->order_preserving);
}

TEST(Executor, InvisibleJoinPlanMatchesControl) {
  auto t = ColorTable();
  const auto pred = Eq(Col("color"), Str("red"));
  // Control: no rewrites.
  StrategicOptions off;
  off.enable_invisible_join = false;
  auto control = ExecutePlan(Plan::Scan(t).Filter(pred), off);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  auto rewritten = ExecutePlan(Plan::Scan(t).Filter(pred));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(control.value().num_rows(), 3u);
  EXPECT_EQ(rewritten.value().num_rows(), 3u);
  // Same ids survive (column order may differ; locate by name).
  const auto id_col = [](const QueryResult& r) {
    for (size_t i = 0; i < r.schema().num_fields(); ++i) {
      if (r.schema().field(i).name == "id") return i;
    }
    return size_t{999};
  };
  for (uint64_t row = 0; row < 3; ++row) {
    EXPECT_EQ(control.value().Value(row, id_col(control.value())),
              rewritten.value().Value(row, id_col(rewritten.value())));
  }
}

TEST(Executor, RankJoinPlanMatchesControl) {
  auto t = MakeRleTable(300000).MoveValue();
  auto make_plan = [&]() {
    return Plan::Scan(t)
        .Filter(Ge(Col("primary"), Int(95)))
        .Aggregate({"primary"}, {{AggKind::kMax, "secondary", "m"},
                                 {AggKind::kCountStar, "", "n"}});
  };
  StrategicOptions off;
  off.enable_rank_join = false;
  off.enable_invisible_join = false;
  auto control = ExecutePlan(make_plan(), off);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  auto indexed = ExecutePlan(make_plan());
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  ASSERT_EQ(control.value().num_rows(), 5u);
  ASSERT_EQ(indexed.value().num_rows(), 5u);
  // Both report groups 95..99; compare as maps (order may differ).
  std::map<Lane, std::pair<Lane, Lane>> c, x;
  for (uint64_t r = 0; r < 5; ++r) {
    c[control.value().Value(r, 0)] = {control.value().Value(r, 1),
                                      control.value().Value(r, 2)};
    x[indexed.value().Value(r, 0)] = {indexed.value().Value(r, 1),
                                      indexed.value().Value(r, 2)};
  }
  EXPECT_EQ(c, x);
}

TEST(Executor, ProjectAggregateSortPipeline) {
  auto t = ColorTable();
  auto result = ExecutePlan(
      Plan::Scan(t)
          .Project({{Col("qty"), "qty"},
                    {Arith(ArithOp::kMod, Col("id"), Int(2)), "parity"}})
          .Aggregate({"parity"}, {{AggKind::kSum, "qty", "total"}})
          .OrderBy({{"parity", true}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(result.value().Value(0, 0), 0);
  EXPECT_EQ(result.value().Value(0, 1), 10 + 30 + 50);
  EXPECT_EQ(result.value().Value(1, 1), 20 + 40 + 60);
}

TEST(Executor, JoinTablePlan) {
  auto dim_src = VectorSource::Ints({{"k", {0, 1, 2}}});
  dim_src->AddStringColumn("name", {"zero", "one", "two"});
  auto dim = FlowTable::Build(std::move(dim_src)).MoveValue();
  auto fact = FlowTable::Build(VectorSource::Ints(
                                   {{"k", {2, 2, 0, 1}}, {"v", {1, 2, 3, 4}}}))
                  .MoveValue();
  HashJoinOptions join;
  join.outer_key = "k";
  join.inner_key = "k";
  join.inner_payload = {"name"};
  auto result = ExecutePlan(Plan::Scan(fact).Join(dim, join));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows(), 4u);
  EXPECT_EQ(result.value().ValueString(0, 2), "two");
  EXPECT_EQ(result.value().ValueString(2, 2), "zero");
}

TEST(Executor, TacticalHashChoiceFlowsFromMetadata) {
  // Narrow key column -> the aggregation should get a direct hash.
  std::vector<Lane> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<Lane>(i % 7);
  auto t = FlowTable::Build(VectorSource::Ints({{"k", keys}})).MoveValue();
  ASSERT_EQ(t->ColumnByName("k").value()->TokenWidth(), 1);
  auto built = BuildExecutable(
      StrategicOptimize(
          Plan::Scan(t)
              .Aggregate({"k"}, {{AggKind::kCountStar, "", "n"}})
              .root())
          .MoveValue());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto* agg = dynamic_cast<HashAggregate*>(Unwrap(built.value().op.get()));
  ASSERT_NE(agg, nullptr);
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(agg, &blocks).ok());
  EXPECT_EQ(agg->algorithm_used(), HashAlgorithm::kDirect);
}

// --- Filtering move-around and column pruning through joins --------------

/// fact(k, v, w) -> dim(dk, grade, rk, name) -> region(rid, zone): the
/// chain shape of TPC-H Q3's lineitem -> orders -> customer. dim's keys are
/// unsorted (a hash join); region's are dense (a fetch join). fact has a
/// dangling key (9) and a NULL key; dim has a NULL grade.
struct JoinTables {
  std::shared_ptr<Table> fact, dim, region;
};

std::shared_ptr<Table> Named(std::unique_ptr<VectorSource> src,
                             std::string name) {
  FlowTableOptions opts;
  opts.table_name = std::move(name);
  return FlowTable::Build(std::move(src), opts).MoveValue();
}

JoinTables MakeJoinTables() {
  JoinTables t;
  t.fact = Named(VectorSource::Ints(
                     {{"k", {3, 1, 4, 0, 3, 1, 4, 0, 9, kNullSentinel, 4, 1}},
                      {"v", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
                      {"w", {5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10}}}),
                 "fact");
  auto dim = VectorSource::Ints({{"dk", {3, 1, 4, 0}},
                                 {"grade", {10, kNullSentinel, 30, 40}},
                                 {"rk", {0, 1, 1, 0}}});
  dim->AddStringColumn("name", {"three", "one", "four", "zero"});
  t.dim = Named(std::move(dim), "dim");
  auto region = VectorSource::Ints({{"rid", {0, 1}}});
  region->AddStringColumn("zone", {"east", "west"});
  t.region = Named(std::move(region), "region");
  return t;
}

HashJoinOptions JoinOn(std::string outer, std::string inner,
                       std::vector<std::string> payload) {
  HashJoinOptions j;
  j.outer_key = std::move(outer);
  j.inner_key = std::move(inner);
  j.inner_payload = std::move(payload);
  return j;
}

Plan FactJoinDim(const JoinTables& t) {
  return Plan::Scan(t.fact).Join(t.dim,
                                 JoinOn("k", "dk", {"grade", "rk", "name"}));
}

/// Rows rendered as text and sorted: rewrites may change row order.
std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> rows;
  for (uint64_t i = 0; i < r.num_rows(); ++i) {
    std::string row;
    for (size_t c = 0; c < r.schema().num_fields(); ++c) {
      row += r.schema().field(c).name + "=" + r.ValueString(i, c) + ";";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `plan` optimized and with every rewrite off; the answers must
/// agree. Returns the optimized tree for shape checks.
PlanNodePtr OptimizeAndCheck(const Plan& plan, size_t expected_rows) {
  auto control = ExecutePlan(plan, testutil::AllRewritesOff());
  EXPECT_TRUE(control.ok()) << control.status().ToString();
  PlanNodePtr optimized =
      StrategicOptimize(ClonePlan(plan.root())).MoveValue();
  auto rewritten = ExecutePlanNode(optimized, StrategicOptions{});
  EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  if (control.ok() && rewritten.ok()) {
    EXPECT_EQ(control.value().num_rows(), expected_rows);
    EXPECT_EQ(SortedRows(control.value()), SortedRows(rewritten.value()));
  }
  return optimized;
}

TEST(StrategicJoin, ConjunctsSplitByTheSideTheyRead) {
  const JoinTables t = MakeJoinTables();
  // Outer-only (v > 3) goes below the join, payload-only (grade > 15)
  // into the join's inner predicate.
  PlanNodePtr root = OptimizeAndCheck(
      FactJoinDim(t).Filter(
          And(Gt(Col("v"), Int(3)), Gt(Col("grade"), Int(15)))),
      4);  // v = 4, 7, 8, 11 reach grade 30/40
  ASSERT_EQ(root->kind, PlanNodeKind::kJoinTable);
  ASSERT_NE(root->inner_predicate, nullptr);
  EXPECT_EQ(root->inner_predicate->ToString(), "(grade > 15)");
  const PlanNodePtr& below = root->children[0];
  ASSERT_EQ(below->kind, PlanNodeKind::kFilter);
  EXPECT_EQ(below->predicate->ToString(), "(v > 3)");
  EXPECT_EQ(below->children[0]->kind, PlanNodeKind::kScan);
}

TEST(StrategicJoin, MixedConjunctsAndSpanningOrStayAbove) {
  const JoinTables t = MakeJoinTables();
  // (w * 4 > grade) reads both sides; the OR spans both sides as a
  // whole; only (v > 1) can move.
  PlanNodePtr root = OptimizeAndCheck(
      FactJoinDim(t).Filter(
          And(And(Gt(Arith(ArithOp::kMul, Col("w"), Int(4)), Col("grade")),
                  Or(Lt(Col("v"), Int(6)), Gt(Col("grade"), Int(25)))),
              Gt(Col("v"), Int(1)))),
      3);  // v = 5, 7, 11
  ASSERT_EQ(root->kind, PlanNodeKind::kFilter);
  EXPECT_EQ(root->predicate->ToString(),
            "(((w * 4) > grade) AND ((v < 6) OR (grade > 25)))");
  const PlanNodePtr& join = root->children[0];
  ASSERT_EQ(join->kind, PlanNodeKind::kJoinTable);
  EXPECT_EQ(join->inner_predicate, nullptr);
  ASSERT_EQ(join->children[0]->kind, PlanNodeKind::kFilter);
  EXPECT_EQ(join->children[0]->predicate->ToString(), "(v > 1)");
}

TEST(StrategicJoin, StackedJoinsInQ3Shape) {
  const JoinTables t = MakeJoinTables();
  // fact JOIN dim JOIN region WHERE zone = 'east' AND grade < 35 AND v > 2,
  // then SUM(v) by name: every conjunct sinks to its own side, the scan
  // and both payloads narrow, and region's key (rk) stays in dim's payload
  // because the upper join reads it.
  auto plan = FactJoinDim(t)
                  .Join(t.region, JoinOn("rk", "rid", {"zone"}))
                  .Filter(And(And(Eq(Col("zone"), Str("east")),
                                  Lt(Col("grade"), Int(35))),
                              Gt(Col("v"), Int(2))))
                  .Aggregate({"name"}, {{AggKind::kSum, "v", "total"}});
  PlanNodePtr root = OptimizeAndCheck(plan, 1);  // "three": v = 5
  EXPECT_EQ(PlanToString(root),
            "Aggregate\n"
            "  JoinTable(region: rk = rid WHERE (zone = 'east'))[]\n"
            "    JoinTable(dim: k = dk WHERE (grade < 35))[rk, name]\n"
            "      Filter((v > 2))\n"
            "        Scan(fact)[k, v]\n");
  // Both strategies apply their inner predicate: a hash join over dim's
  // unsorted keys, a fetch join over region's dense ones.
  auto explain = ExplainPlan(plan);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().find("join(dk): hash-"), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("join(rid): fetch"), std::string::npos)
      << explain.value();
}

TEST(StrategicJoin, IsNullOnPayloadBecomesInnerPredicate) {
  const JoinTables t = MakeJoinTables();
  // dim's NULL grade belongs to dk = 1: fact rows with k = 1 survive.
  PlanNodePtr root = OptimizeAndCheck(
      FactJoinDim(t)
          .Filter(IsNull(Col("grade")))
          .Project({{Col("v"), "v"}, {Col("name"), "name"}}),
      3);
  ASSERT_EQ(root->kind, PlanNodeKind::kProject);
  const PlanNodePtr& join = root->children[0];
  ASSERT_EQ(join->kind, PlanNodeKind::kJoinTable);
  ASSERT_NE(join->inner_predicate, nullptr);
  EXPECT_EQ(join->inner_predicate->ToString(), "grade IS NULL");
  EXPECT_EQ(join->join.inner_payload, (std::vector<std::string>{"name"}));
  EXPECT_EQ(join->children[0]->kind, PlanNodeKind::kScan);
}

TEST(StrategicJoin, EitherSwitchOffKeepsTodaysPlan) {
  const JoinTables t = MakeJoinTables();
  auto make = [&] {
    return FactJoinDim(t)
        .Filter(And(Gt(Col("v"), Int(3)), Gt(Col("grade"), Int(15))))
        .Aggregate({"name"}, {{AggKind::kCountStar, "", "n"}});
  };
  const std::string parsed = PlanToString(make().root());

  StrategicOptions no_pushdown;
  no_pushdown.enable_filter_pushdown = false;
  PlanNodePtr root = StrategicOptimize(make().root(), no_pushdown).MoveValue();
  const PlanNodePtr& filter = root->children[0];
  ASSERT_EQ(filter->kind, PlanNodeKind::kFilter);
  ASSERT_EQ(filter->children[0]->kind, PlanNodeKind::kJoinTable);
  EXPECT_EQ(filter->children[0]->inner_predicate, nullptr);

  StrategicOptions no_pruning;
  no_pruning.enable_projection_pruning = false;
  root = StrategicOptimize(make().root(), no_pruning).MoveValue();
  ASSERT_EQ(root->children[0]->kind, PlanNodeKind::kJoinTable);
  EXPECT_EQ(root->children[0]->join.inner_payload,
            (std::vector<std::string>{"grade", "rk", "name"}));
  EXPECT_TRUE(root->children[0]->children[0]->children[0]->columns.empty());

  StrategicOptions both = no_pushdown;
  both.enable_projection_pruning = false;
  EXPECT_EQ(PlanToString(StrategicOptimize(make().root(), both).MoveValue()),
            parsed);
}

TEST(Executor, EntryPointsLeaveTheCallersPlanUntouched) {
  // Both plans rewrite: the first into an invisible join, the second
  // through the join. The caller's tree must read the same afterwards.
  const JoinTables t = MakeJoinTables();
  const std::vector<Plan> plans = {
      Plan::Scan(ColorTable()).Filter(Eq(Col("color"), Str("red"))),
      FactJoinDim(t)
          .Filter(And(Gt(Col("v"), Int(3)), Gt(Col("grade"), Int(15))))
          .Aggregate({"name"}, {{AggKind::kSum, "v", "total"}})};
  for (const Plan& plan : plans) {
    const std::string before = PlanToString(plan.root());
    ASSERT_TRUE(ExplainPlan(plan).ok());
    EXPECT_EQ(PlanToString(plan.root()), before);
    ASSERT_TRUE(ExecutePlan(plan).ok());
    EXPECT_EQ(PlanToString(plan.root()), before);
    ASSERT_TRUE(ExplainAnalyzePlan(plan).ok());
    EXPECT_EQ(PlanToString(plan.root()), before);
  }
}

TEST(Executor, JoinOutputIsNotOrderedByTheInnerTable) {
  // Payload values follow the outer row order, whatever order the inner
  // table keeps them in. A Top-N that believed the inner column's
  // "sorted" metadata stopped its drain early and returned wrong rows.
  auto dim = Named(VectorSource::Ints({{"dk", {0, 1, 2, 3}},
                                       {"rank", {10, 20, 30, 40}}}),
                   "ranks");
  const std::vector<Plan> plans = {
      // Invisible join: the dictionary table is sorted by value.
      Plan::Scan(ColorTable())
          .Filter(Ne(Col("color"), Str("violet")))
          .OrderBy({{"color", true}})
          .Limit(2),
      // JoinTable: `rank` is sorted in the inner table, not in the output
      // (outer keys 1, 2, 0, 3 -> ranks 20, 30, 10, 40).
      Plan::Scan(Named(VectorSource::Ints({{"k", {1, 2, 0, 3}}}), "outer"))
          .Join(dim, JoinOn("k", "dk", {"rank"}))
          .OrderBy({{"rank", true}})
          .Limit(1)};
  for (const Plan& plan : plans) {
    auto control = ExecutePlan(plan, testutil::AllRewritesOff());
    auto rewritten = ExecutePlan(plan);
    ASSERT_TRUE(control.ok()) << control.status().ToString();
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    EXPECT_EQ(rewritten.value().ToCsv(), control.value().ToCsv())
        << PlanToString(plan.root());
  }
}

TEST(Executor, UnorderedExchangeKeepsNoOrderFacts) {
  // An unordered Exchange hands blocks on in the order its workers finish
  // them, so the scan's sorted column is not sorted above it: a Top-N
  // there must not stop at the first row that misses its heap.
  std::vector<Lane> x(8 * kBlockSize);
  std::iota(x.begin(), x.end(), 0);
  auto t = FlowTable::Build(VectorSource::Ints({{"x", x}})).MoveValue();
  ASSERT_TRUE(t->column(0).metadata().sorted);
  const Plan plan = Plan::Scan(t)
                        .ExchangeBy(4, /*order_preserving=*/false)
                        .OrderBy({{"x", true}})
                        .Limit(10);
  auto explain = ExplainPlan(plan);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain.value().find("unordered routing"), std::string::npos)
      << explain.value();
  EXPECT_EQ(explain.value().find("sorted input, early stop"),
            std::string::npos)
      << explain.value();
  auto control = ExecutePlan(plan, testutil::AllRewritesOff());
  auto got = ExecutePlan(plan);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().ToCsv(), control.value().ToCsv());
  EXPECT_EQ(got.value().num_rows(), 10u);
}

TEST(Executor, LoweringFollowsTheCallersOptions) {
  // Each lowering switch decides one compressed-domain lowering: its mark
  // shows in EXPLAIN (or EXPLAIN ANALYZE) with the switch on and not with
  // it off. The invisible join is off, so Filters stay Filters.
  std::vector<Lane> k(4096);
  std::iota(k.begin(), k.end(), 0);
  std::vector<std::string> s(k.size());
  for (size_t i = 0; i < s.size(); ++i) s[i] = "v" + std::to_string(i % 8);
  auto src = VectorSource::Ints({{"k", k}});
  src->AddStringColumn("s", s);
  FlowTableOptions flow;
  flow.segment_rows = 512;
  auto t = FlowTable::Build(std::move(src), flow).MoveValue();
  ASSERT_EQ(t->column(0).SegmentShapes().size(), 8u);

  struct Case {
    bool StrategicOptions::*flag;
    Plan plan;
    bool analyze;
    const char* mark;
  };
  const std::vector<Case> cases = {
      {&StrategicOptions::enable_dict_predicates,
       Plan::Scan(t).Filter(Eq(Col("s"), Str("v3"))), false,
       "dictionary-code predicate"},
      {&StrategicOptions::enable_dict_grouping,
       Plan::Scan(t).Aggregate({"s"}, {{AggKind::kCountStar, "", "n"}}),
       false, "dictionary codes"},
      {&StrategicOptions::enable_dict_sort,
       Plan::Scan(t).OrderBy({{"s", true}}), true, "dict_key_sorts"},
      {&StrategicOptions::enable_sort_pruning,
       Plan::Scan(t).OrderBy({{"k", false}}).Limit(10), false,
       "segment sources"},
  };
  for (const Case& c : cases) {
    for (const bool on : {true, false}) {
      StrategicOptions opts;
      opts.enable_invisible_join = false;
      opts.*c.flag = on;
      auto text = c.analyze ? ExplainAnalyzePlan(c.plan, nullptr, opts)
                            : ExplainPlan(c.plan, opts);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_EQ(text.value().find(c.mark) != std::string::npos, on)
          << c.mark << (on ? " (on)\n" : " (off)\n") << text.value();
    }
  }
}

TEST(Plan, ToStringRendersTree) {
  auto t = ColorTable();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("qty"), Int(5)))
                  .Aggregate({"color"}, {{AggKind::kCountStar, "", "n"}});
  const std::string s = PlanToString(plan.root());
  EXPECT_NE(s.find("Aggregate"), std::string::npos);
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("Scan(flow)"), std::string::npos);
}

}  // namespace
}  // namespace tde
