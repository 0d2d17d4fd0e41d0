#include <bit>
#include <map>

#include <gtest/gtest.h>

#include "src/exec/expression.h"
#include "src/exec/flow_table.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

bool LiteralEquals(const ExprPtr& e, TypeId type, Lane value) {
  TypeId t;
  Lane v;
  return e->AsLiteral(&t, &v) && t == type && v == value;
}

TEST(Simplify, FoldsConstantArithmetic) {
  const auto e = Simplify(Add(Int(2), Mul(Int(3), Int(4))));
  EXPECT_TRUE(LiteralEquals(e, TypeId::kInteger, 14));
}

TEST(Simplify, FoldsConstantComparison) {
  EXPECT_TRUE(LiteralEquals(Simplify(Lt(Int(1), Int(2))), TypeId::kBool, 1));
  EXPECT_TRUE(LiteralEquals(Simplify(Eq(Int(1), Int(2))), TypeId::kBool, 0));
}

TEST(Simplify, FoldsConstantStringComparison) {
  EXPECT_TRUE(
      LiteralEquals(Simplify(Eq(Str("a"), Str("a"))), TypeId::kBool, 1));
}

TEST(Simplify, FoldsConstantDateFunctions) {
  const auto e = Simplify(DateF(DateFunc::kYear, Date(1999, 12, 31)));
  EXPECT_TRUE(LiteralEquals(e, TypeId::kInteger, 1999));
}

TEST(Simplify, FoldsRealArithmetic) {
  const auto e = Simplify(Mul(Real(1.5), Real(2.0)));
  TypeId t;
  Lane v;
  ASSERT_TRUE(e->AsLiteral(&t, &v));
  EXPECT_EQ(t, TypeId::kReal);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(static_cast<uint64_t>(v)), 3.0);
}

TEST(Simplify, AndOrIdentities) {
  const auto x = Gt(Col("x"), Int(5));
  EXPECT_EQ(Simplify(And(x, Bool(true))).get(), x.get());
  EXPECT_TRUE(LiteralEquals(Simplify(And(x, Bool(false))), TypeId::kBool, 0));
  EXPECT_EQ(Simplify(Or(Bool(false), x)).get(), x.get());
  EXPECT_TRUE(LiteralEquals(Simplify(Or(x, Bool(true))), TypeId::kBool, 1));
}

TEST(Simplify, DoubleNegationCancels) {
  const auto x = Gt(Col("x"), Int(5));
  EXPECT_EQ(Simplify(Not(Not(x))).get(), x.get());
}

TEST(Simplify, FoldsInsideNonConstantTrees) {
  // x > (2 + 3) -> x > 5
  const auto e = Simplify(Gt(Col("x"), Add(Int(2), Int(3))));
  EXPECT_EQ(e->ToString(), "(x > 5)");
}

TEST(Simplify, LeavesNonConstantAlone) {
  const auto e = Gt(Col("x"), Col("y"));
  EXPECT_EQ(Simplify(e).get(), e.get());
}

TEST(Simplify, NullPropagationFolds) {
  // NULL + 1 folds to NULL.
  const auto e = Simplify(Add(Null(TypeId::kInteger), Int(1)));
  EXPECT_TRUE(LiteralEquals(e, TypeId::kInteger, kNullSentinel));
}

TEST(Simplify, FoldsConstantLikeAndCase) {
  // LIKE over a literal folds to a boolean literal.
  EXPECT_TRUE(LiteralEquals(Simplify(Like(Str("index.html"), "%.html")),
                            TypeId::kBool, 1));
  EXPECT_TRUE(LiteralEquals(Simplify(Like(Str("logo.png"), "%.html")),
                            TypeId::kBool, 0));
  // CASE with constant branches folds too.
  const auto c = Simplify(Case({{Lt(Int(1), Int(2)), Int(10)}}, Int(20)));
  EXPECT_TRUE(LiteralEquals(c, TypeId::kInteger, 10));
  // Non-constant CASE folds its constant pieces only.
  const auto partial =
      Simplify(Case({{Gt(Col("x"), Add(Int(1), Int(1))), Int(10)}}, Int(20)));
  EXPECT_EQ(partial->ToString(), "CASE WHEN (x > 2) THEN 10 ELSE 20 END");
}

TEST(RenameColumns, RewritesReferences) {
  const auto e = And(Gt(Col("a"), Int(1)), Eq(Col("b"), Col("a")));
  const auto r = RenameColumns(e, {{"a", "x"}});
  EXPECT_EQ(r->ToString(), "((x > 1) AND (b = x))");
}

TEST(RenameColumns, NoMatchSharesTree) {
  const auto e = Gt(Col("a"), Int(1));
  EXPECT_EQ(RenameColumns(e, {{"z", "y"}}).get(), e.get());
}

TEST(StrategicSimplify, RemovesWhereTrue) {
  auto t = FlowTable::Build(VectorSource::Ints({{"x", {1, 2, 3}}}))
               .MoveValue();
  auto plan = Plan::Scan(t).Filter(Or(Gt(Col("x"), Int(0)), Bool(true)));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kScan);
}

TEST(StrategicSimplify, SimplifiesPredicatesInPlace) {
  auto t = FlowTable::Build(VectorSource::Ints({{"x", {1, 2, 3}}}))
               .MoveValue();
  auto plan = Plan::Scan(t).Filter(Gt(Col("x"), Add(Int(1), Int(1))));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kFilter);
  EXPECT_EQ(optimized->predicate->ToString(), "(x > 2)");
}

TEST(StrategicPushdown, FilterCommutesWithProjection) {
  auto t = FlowTable::Build(
               VectorSource::Ints({{"x", {1, 5, 9}}, {"y", {2, 4, 6}}}))
               .MoveValue();
  auto plan = Plan::Scan(t)
                  .Project({{Col("x"), "renamed"},
                            {Add(Col("y"), Int(1)), "computed"}})
                  .Filter(Gt(Col("renamed"), Int(3)));
  StrategicOptions opts;
  opts.enable_invisible_join = false;
  auto optimized = StrategicOptimize(plan.root(), opts).MoveValue();
  // Filter moved below the projection, renamed back to the scan column.
  ASSERT_EQ(optimized->kind, PlanNodeKind::kProject);
  ASSERT_EQ(optimized->children[0]->kind, PlanNodeKind::kFilter);
  EXPECT_EQ(optimized->children[0]->predicate->ToString(), "(x > 3)");
  // And the results are unchanged.
  auto result = ExecutePlanNode(optimized, opts).MoveValue();
  EXPECT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.Value(0, 0), 5);
  EXPECT_EQ(result.Value(0, 1), 5);
}

TEST(StrategicPushdown, BlockedByComputedColumns) {
  auto t = FlowTable::Build(
               VectorSource::Ints({{"x", {1, 5, 9}}, {"y", {2, 4, 6}}}))
               .MoveValue();
  auto plan = Plan::Scan(t)
                  .Project({{Add(Col("x"), Int(1)), "computed"}})
                  .Filter(Gt(Col("computed"), Int(3)));
  StrategicOptions opts;
  opts.enable_invisible_join = false;
  auto optimized = StrategicOptimize(plan.root(), opts).MoveValue();
  EXPECT_EQ(optimized->kind, PlanNodeKind::kFilter);
}

TEST(StrategicPushdown, ExposesInvisibleJoinThroughProjection) {
  // Filter above a projection over a dictionary-compressed string column:
  // pushdown + invisible join must chain.
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3}}});
  src->AddStringColumn("color", {"red", "blue", "red", "green"});
  auto t = FlowTable::Build(std::move(src)).MoveValue();
  auto plan = Plan::Scan(t)
                  .Project({{Col("color"), "c"}, {Col("id"), "id"}})
                  .Filter(Eq(Col("c"), Str("red")));
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kProject);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kInvisibleJoin);
  auto result = ExecutePlanNode(optimized, StrategicOptions{}).MoveValue();
  EXPECT_EQ(result.num_rows(), 2u);
}

TEST(StrategicComputePushdown, StringFunctionMovesToDictionarySide) {
  // The Sect. 4.1.2 URL scenario, through the optimizer: EXTENSION(url)
  // over a dictionary-compressed column becomes an invisible join with the
  // computation on the inner side.
  auto src = VectorSource::Ints({{"bytes", {}}});
  std::vector<Lane> bytes;
  std::vector<std::string> urls;
  const char* domain[] = {"/a.html", "/b.png", "/c.html", "/d.css"};
  for (int i = 0; i < 4000; ++i) {
    bytes.push_back(i % 100);
    urls.push_back(domain[i % 4]);
  }
  src = VectorSource::Ints({{"bytes", bytes}});
  src->AddStringColumn("url", urls);
  auto t = FlowTable::Build(std::move(src)).MoveValue();

  auto plan = Plan::Scan(t)
                  .Project({{StrF(StrFunc::kExtension, Col("url")), "ext"},
                            {Col("bytes"), "bytes"}})
                  .Aggregate({"ext"}, {{AggKind::kCountStar, "", "n"},
                                       {AggKind::kSum, "bytes", "total"}});
  // A copy: the rewrites change nodes in place, and the control below
  // optimizes the plan as parsed.
  auto optimized = StrategicOptimize(ClonePlan(plan.root())).MoveValue();
  // Project -> InvisibleJoin somewhere beneath the aggregate.
  ASSERT_EQ(optimized->kind, PlanNodeKind::kAggregate);
  ASSERT_EQ(optimized->children[0]->kind, PlanNodeKind::kProject);
  EXPECT_EQ(optimized->children[0]->children[0]->kind,
            PlanNodeKind::kInvisibleJoin);
  EXPECT_EQ(optimized->children[0]->children[0]->inner_projections.size(),
            1u);

  // Same answers as the unrewritten plan.
  StrategicOptions off;
  off.enable_invisible_join = false;
  auto control = ExecutePlan(plan, off).MoveValue();
  auto rewritten = ExecutePlanNode(optimized, StrategicOptions{}).MoveValue();
  ASSERT_EQ(control.num_rows(), rewritten.num_rows());
  std::map<std::string, std::pair<Lane, Lane>> c, x;
  for (uint64_t r = 0; r < control.num_rows(); ++r) {
    c[control.ValueString(r, 0)] = {control.Value(r, 1), control.Value(r, 2)};
    x[rewritten.ValueString(r, 0)] = {rewritten.Value(r, 1),
                                      rewritten.Value(r, 2)};
  }
  EXPECT_EQ(c, x);
}

TEST(StrategicComputePushdown, SkippedForLargeDomains) {
  // Near-unique strings: computing per distinct value buys nothing.
  auto src = VectorSource::Ints({{"id", {}}});
  std::vector<Lane> ids;
  std::vector<std::string> urls;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(i);
    urls.push_back("/file" + std::to_string(i) + ".html");
  }
  src = VectorSource::Ints({{"id", ids}});
  src->AddStringColumn("url", urls);
  auto t = FlowTable::Build(std::move(src)).MoveValue();
  auto plan = Plan::Scan(t).Project(
      {{StrF(StrFunc::kExtension, Col("url")), "ext"}});
  auto optimized = StrategicOptimize(plan.root()).MoveValue();
  ASSERT_EQ(optimized->kind, PlanNodeKind::kProject);
  EXPECT_EQ(optimized->children[0]->kind, PlanNodeKind::kScan);
}

}  // namespace
}  // namespace tde
