// Coverage for the common substrate: Status/Result plumbing, bit utils,
// blocks, schemas, and API error paths.

#include <gtest/gtest.h>

#include "src/common/bitutil.h"
#include "src/core/engine.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using namespace tde::expr;  // NOLINT

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status s = Status::OutOfRange("needs 17 bits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.ToString(), "OutOfRange: needs 17 bits");
  EXPECT_EQ(Status::CapacityExceeded("x").ToString(), "CapacityExceeded: x");
  EXPECT_EQ(Status::ParseError("").ToString(), "ParseError");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return {Status::InvalidArgument("odd")};
  return x / 2;
}

Result<int> Quarter(int x) {
  TDE_ASSIGN_OR_RETURN(int h, Half(x));
  TDE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, MacrosPropagate) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(3).status().code(), StatusCode::kInvalidArgument);
}

TEST(Result, MoveValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  const std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

TEST(BitUtil, BitsFor) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
  EXPECT_EQ(BitsFor(~uint64_t{0}), 64);
}

TEST(BitUtil, LoadStoreRoundTrip) {
  uint8_t buf[8];
  for (const uint8_t w : {1, 2, 4, 8}) {
    const int64_t v = w == 8 ? -123456789012345LL : -7;
    StoreBytes(buf, static_cast<uint64_t>(v), w);
    EXPECT_EQ(LoadSigned(buf, w), v) << static_cast<int>(w);
  }
  StoreBytes(buf, 0xABCD, 2);
  EXPECT_EQ(LoadUnsigned(buf, 2), 0xABCDu);
}

TEST(BitUtil, Fits) {
  EXPECT_TRUE(FitsSigned(127, 1));
  EXPECT_FALSE(FitsSigned(128, 1));
  EXPECT_TRUE(FitsSigned(-128, 1));
  EXPECT_FALSE(FitsSigned(-129, 1));
  EXPECT_TRUE(FitsUnsigned(255, 1));
  EXPECT_FALSE(FitsUnsigned(256, 1));
  EXPECT_TRUE(FitsSigned(INT64_MIN, 8));
}

TEST(Block, CompactDropsRowsAcrossColumns) {
  Block b;
  b.columns.resize(2);
  b.columns[0].lanes = {1, 2, 3, 4};
  b.columns[1].lanes = {10, 20, 30, 40};
  b.Compact({0, 3});  // row ids to keep
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.columns[0].lanes, (std::vector<Lane>{1, 4}));
  EXPECT_EQ(b.columns[1].lanes, (std::vector<Lane>{10, 40}));
}

TEST(Block, EmptyBlockBasics) {
  Block b;
  EXPECT_EQ(b.rows(), 0u);
  b.columns.resize(1);
  b.columns[0].lanes = {1};
  b.Clear();
  EXPECT_EQ(b.rows(), 0u);
}

TEST(Schema, FieldLookupAndPrint) {
  Schema s({{"a", TypeId::kInteger}, {"b", TypeId::kString}});
  EXPECT_EQ(s.FieldIndex("b").value(), 1u);
  EXPECT_EQ(s.FieldIndex("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "(a: integer, b: string)");
}

TEST(Engine, OpenMissingDatabaseFails) {
  EXPECT_EQ(Engine::OpenDatabase("/nonexistent/path.tde").status().code(),
            StatusCode::kIOError);
}

TEST(Engine, ImportMissingFileFails) {
  Engine e;
  EXPECT_EQ(
      e.ImportTextFile("/nonexistent/file.csv", "t").status().code(),
      StatusCode::kIOError);
}

TEST(Engine, AttachMissingFileFails) {
  Engine e;
  EXPECT_EQ(e.AttachTextFile("/nonexistent.csv", "t").status().code(),
            StatusCode::kIOError);
}

TEST(Plan, UnknownColumnSurfacesCleanly) {
  Engine e;
  auto t = e.ImportTextBuffer("a\n1\n", "t").MoveValue();
  auto r = e.Execute(Plan::Scan(t).Filter(Gt(Col("nope"), Int(0))));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Plan, AggregateUnknownInputFails) {
  Engine e;
  auto t = e.ImportTextBuffer("a\n1\n", "t").MoveValue();
  auto r = e.Execute(
      Plan::Scan(t).Aggregate({"a"}, {{AggKind::kSum, "nope", "s"}}));
  EXPECT_FALSE(r.ok());
}

TEST(QueryResult, AccessorsAndTruncatedToString) {
  Engine e;
  std::string csv = "x\n";
  for (int i = 0; i < 30; ++i) csv += std::to_string(i) + "\n";
  auto t = e.ImportTextBuffer(csv, "t").MoveValue();
  auto r = e.Execute(Plan::Scan(t)).MoveValue();
  EXPECT_EQ(r.num_rows(), 30u);
  EXPECT_EQ(r.num_columns(), 1u);
  EXPECT_EQ(r.Value(29, 0), 29);
  EXPECT_EQ(r.Value(99, 0), kNullSentinel);  // out of range -> NULL
  const std::string s = r.ToString(5);
  EXPECT_NE(s.find("(25 more rows)"), std::string::npos);
}

TEST(PlanPrint, AllNodeKindsRender) {
  auto t = FlowTable::Build(testutil::VectorSource::Ints({{"x", {1, 2}}}))
               .MoveValue();
  auto plan = Plan::Scan(t)
                  .Filter(Gt(Col("x"), Int(0)))
                  .Project({{Col("x"), "y"}})
                  .Aggregate({"y"}, {{AggKind::kCountStar, "", "n"}})
                  .OrderBy({{"y", true}})
                  .ExchangeBy(2)
                  .Materialize();
  const std::string s = PlanToString(plan.root());
  for (const char* part : {"Materialize", "Exchange", "Sort", "Aggregate",
                           "Project", "Filter", "Scan"}) {
    EXPECT_NE(s.find(part), std::string::npos) << part;
  }
}

TEST(DrainOperator, CollectsAllBlocks) {
  std::vector<Lane> v(3 * kBlockSize);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Lane>(i);
  auto src = testutil::VectorSource::Ints({{"x", v}});
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(src.get(), &blocks).ok());
  EXPECT_EQ(blocks.size(), 3u);
  EXPECT_EQ(testutil::Flatten(blocks, 0), v);
}

}  // namespace
}  // namespace tde
