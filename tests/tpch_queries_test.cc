// Integration: real TPC-H queries over an imported lineitem table,
// validated against reference answers computed directly from the raw scan.

#include <bit>
#include <map>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/workload/tpch.h"
#include "src/workload/tpch_queries.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using namespace tde::expr;  // NOLINT

class TpchQueriesFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    ImportOptions opts;
    opts.text.field_separator = '|';
    auto t = engine_->ImportTextBuffer(
        GenerateTpchTable(TpchTable::kLineitem, 0.002), "lineitem", opts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    lineitem_ = t.MoveValue();
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    lineitem_ = nullptr;
  }

  static double AsReal(Lane v) {
    return std::bit_cast<double>(static_cast<uint64_t>(v));
  }

  static Engine* engine_;
  static std::shared_ptr<Table> lineitem_;
};

Engine* TpchQueriesFixture::engine_ = nullptr;
std::shared_ptr<Table> TpchQueriesFixture::lineitem_ = nullptr;

TEST_F(TpchQueriesFixture, Q1PricingSummary) {
  // SELECT l_returnflag, l_linestatus, SUM(qty), SUM(extprice),
  //        AVG(qty), COUNT(*)
  // FROM lineitem WHERE l_shipdate <= date '1998-09-02'
  // GROUP BY l_returnflag, l_linestatus ORDER BY ...
  const auto cutoff = Date(1998, 9, 2);
  auto r = engine_->Execute(
      Plan::Scan(lineitem_)
          .Filter(Le(Col("l_shipdate"), cutoff))
          .Aggregate({"l_returnflag", "l_linestatus"},
                     {{AggKind::kSum, "l_quantity", "sum_qty"},
                      {AggKind::kSum, "l_extendedprice", "sum_price"},
                      {AggKind::kAvg, "l_quantity", "avg_qty"},
                      {AggKind::kCountStar, "", "count_order"}})
          .OrderBy({{"l_returnflag", true}, {"l_linestatus", true}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  // 3 flags x 2 statuses.
  ASSERT_EQ(q.num_rows(), 6u);

  // Reference from a raw scan.
  auto raw = engine_->Execute(Plan::Scan(lineitem_)).MoveValue();
  std::map<std::pair<std::string, std::string>,
           std::tuple<int64_t, double, uint64_t>>
      ref;
  const int64_t cutoff_days = DaysFromCivil(1998, 9, 2);
  size_t flag_i = 8, status_i = 9, qty_i = 4, price_i = 5, ship_i = 10;
  for (uint64_t row = 0; row < raw.num_rows(); ++row) {
    if (raw.Value(row, ship_i) > cutoff_days) continue;
    auto& [qty, price, count] =
        ref[{raw.ValueString(row, flag_i), raw.ValueString(row, status_i)}];
    qty += raw.Value(row, qty_i);
    price += AsReal(raw.Value(row, price_i));
    ++count;
  }
  ASSERT_EQ(ref.size(), 6u);
  uint64_t total = 0;
  for (uint64_t row = 0; row < q.num_rows(); ++row) {
    const auto key = std::make_pair(q.ValueString(row, 0),
                                    q.ValueString(row, 1));
    ASSERT_TRUE(ref.count(key)) << key.first << key.second;
    const auto& [qty, price, count] = ref[key];
    EXPECT_EQ(q.Value(row, 2), qty);
    EXPECT_NEAR(AsReal(q.Value(row, 3)), price, 1e-6 * std::abs(price));
    EXPECT_NEAR(AsReal(q.Value(row, 4)),
                static_cast<double>(qty) / static_cast<double>(count), 1e-9);
    EXPECT_EQ(static_cast<uint64_t>(q.Value(row, 5)), count);
    total += count;
  }
  EXPECT_GT(total, 0u);
  // Output is sorted by the group keys.
  EXPECT_LE(q.ValueString(0, 0), q.ValueString(5, 0));
}

TEST_F(TpchQueriesFixture, Q6ForecastRevenue) {
  // SELECT SUM(l_extendedprice * l_discount) FROM lineitem
  // WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
  //   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
  auto r = engine_->Execute(
      Plan::Scan(lineitem_)
          .Filter(And(
              And(Ge(Col("l_shipdate"), Date(1994, 1, 1)),
                  Lt(Col("l_shipdate"), Date(1995, 1, 1))),
              And(And(Ge(Col("l_discount"), Real(0.05)),
                      Le(Col("l_discount"), Real(0.07))),
                  Lt(Col("l_quantity"), Int(24)))))
          .Project({{Mul(Col("l_extendedprice"), Col("l_discount")),
                     "revenue"}})
          .Aggregate({}, {{AggKind::kSum, "revenue", "revenue"},
                          {AggKind::kCountStar, "", "n"}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);

  // Reference.
  auto raw = engine_->Execute(Plan::Scan(lineitem_)).MoveValue();
  double ref = 0;
  uint64_t ref_n = 0;
  const int64_t lo = DaysFromCivil(1994, 1, 1), hi = DaysFromCivil(1995, 1, 1);
  for (uint64_t row = 0; row < raw.num_rows(); ++row) {
    const int64_t ship = raw.Value(row, 10);
    const double disc = AsReal(raw.Value(row, 6));
    const int64_t qty = raw.Value(row, 4);
    if (ship >= lo && ship < hi && disc >= 0.05 && disc <= 0.07 && qty < 24) {
      ref += AsReal(raw.Value(row, 5)) * disc;
      ++ref_n;
    }
  }
  EXPECT_GT(ref_n, 0u);
  EXPECT_EQ(static_cast<uint64_t>(r.value().Value(0, 1)), ref_n);
  EXPECT_NEAR(AsReal(r.value().Value(0, 0)), ref, 1e-6 * std::abs(ref));
}

TEST_F(TpchQueriesFixture, ShipmodeBreakdownThroughInvisibleJoin) {
  // Group by a dictionary-compressed string with a filter on another one:
  // exercises the invisible-join path inside a richer plan.
  auto r = engine_->Execute(
      Plan::Scan(lineitem_)
          .Filter(Eq(Col("l_returnflag"), Str("R")))
          .Aggregate({"l_shipmode"},
                     {{AggKind::kCountStar, "", "n"},
                      {AggKind::kSum, "l_quantity", "qty"}})
          .OrderBy({{"l_shipmode", true}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 7u);  // 7 ship modes
  // Cross-check total count against a direct filter count.
  auto direct = engine_->Execute(
      Plan::Scan(lineitem_)
          .Filter(Eq(Col("l_returnflag"), Str("R")))
          .Aggregate({}, {{AggKind::kCountStar, "", "n"}}),
      StrategicOptions{.enable_invisible_join = false});
  ASSERT_TRUE(direct.ok());
  uint64_t total = 0;
  for (uint64_t row = 0; row < r.value().num_rows(); ++row) {
    total += static_cast<uint64_t>(r.value().Value(row, 1));
  }
  EXPECT_EQ(total, static_cast<uint64_t>(direct.value().Value(0, 0)));
}

TEST_F(TpchQueriesFixture, MonthlyShipmentsViaDateFunctions) {
  auto r = engine_->Execute(
      Plan::Scan(lineitem_)
          .Project({{DateF(DateFunc::kYear, Col("l_shipdate")), "y"},
                    {Col("l_quantity"), "q"}})
          .Aggregate({"y"}, {{AggKind::kCountStar, "", "n"}})
          .OrderBy({{"y", true}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Shipments span 1992..1998.
  ASSERT_GE(r.value().num_rows(), 6u);
  EXPECT_EQ(r.value().Value(0, 0), 1992);
  uint64_t total = 0;
  for (uint64_t row = 0; row < r.value().num_rows(); ++row) {
    total += static_cast<uint64_t>(r.value().Value(row, 1));
  }
  EXPECT_EQ(total, lineitem_->rows());
}

}  // namespace
}  // namespace tde

// ------------------------------------------------------- SQL query module

#include "src/exec/scheduler.h"
#include "src/workload/tpch.h"
#include "src/workload/tpch_queries.h"

namespace tde {
namespace {

TEST(TpchSql, AllQueriesParseAndRun) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  for (const TpchQuery& q : TpchQueries()) {
    auto r = engine.ExecuteSql(q.sql);
    ASSERT_TRUE(r.ok()) << q.id << ": " << r.status().ToString();
    EXPECT_GT(r.value().num_rows(), 0u) << q.id;
    if (std::string(q.id) == "Q1") {
      EXPECT_EQ(r.value().num_rows(), 6u);
      EXPECT_EQ(r.value().num_columns(), 9u);
    }
    if (std::string(q.id) == "Q3") {
      EXPECT_LE(r.value().num_rows(), 10u);  // LIMIT 10
      // Revenue descending.
      for (uint64_t i = 1; i < r.value().num_rows(); ++i) {
        const double prev = std::bit_cast<double>(
            static_cast<uint64_t>(r.value().Value(i - 1, 1)));
        const double cur = std::bit_cast<double>(
            static_cast<uint64_t>(r.value().Value(i, 1)));
        EXPECT_GE(prev, cur);
      }
    }
    if (std::string(q.id) == "Q12") {
      EXPECT_EQ(r.value().num_rows(), 2u);  // MAIL and SHIP
    }
  }
}

TEST(TpchSql, Q6MatchesPlanApiAnswer) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  auto sql = engine.ExecuteSql(TpchQueries()[3].sql);  // Q6
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto table = engine.database()->GetTable("lineitem").value();
  using namespace tde::expr;  // NOLINT
  auto api = engine.Execute(
      Plan::Scan(table)
          .Filter(And(And(Ge(Col("l_shipdate"), Date(1994, 1, 1)),
                          Lt(Col("l_shipdate"), Date(1995, 1, 1))),
                      And(And(Ge(Col("l_discount"), Real(0.05)),
                              Le(Col("l_discount"), Real(0.07))),
                          Lt(Col("l_quantity"), Int(24)))))
          .Project({{Mul(Col("l_extendedprice"), Col("l_discount")), "r"}})
          .Aggregate({}, {{AggKind::kSum, "r", "revenue"}}));
  ASSERT_TRUE(api.ok());
  const double a = std::bit_cast<double>(
      static_cast<uint64_t>(sql.value().Value(0, 0)));
  const double b = std::bit_cast<double>(
      static_cast<uint64_t>(api.value().Value(0, 0)));
  EXPECT_NEAR(a, b, 1e-6 * std::abs(b));
}

/// Imports lineitem, orders and customer at `sf` in segments of
/// `segment_rows`.
void LoadSegmented(Engine* engine, double sf, uint64_t segment_rows) {
  ImportOptions opts;
  opts.text.field_separator = '|';
  opts.flow.segment_rows = segment_rows;
  for (TpchTable t : {TpchTable::kLineitem, TpchTable::kOrders,
                      TpchTable::kCustomer}) {
    ASSERT_TRUE(engine
                    ->ImportTextBuffer(GenerateTpchTable(t, sf),
                                       TpchTableName(t), opts)
                    .ok());
  }
}

TEST(TpchSql, SegmentMorselsMatchSingleSegmentAtEveryPoolSize) {
  // SF 0.01 in 4,096-row segments: every statement's aggregate runs as one
  // task per segment and merges the partials. The answers — order
  // included — must be the single-segment import's, whatever the pool.
  Engine single;
  LoadSegmented(&single, 0.01, uint64_t{1} << 30);
  Engine segmented;
  LoadSegmented(&segmented, 0.01, 4096);
  std::vector<QueryResult> want;
  for (const TpchQuery& q : TpchQueries()) {
    auto r = single.ExecuteSql(q.sql);
    ASSERT_TRUE(r.ok()) << q.id << ": " << r.status().ToString();
    want.push_back(r.MoveValue());
    auto explain = segmented.ExecuteSql("EXPLAIN " + q.sql);
    ASSERT_TRUE(explain.ok()) << q.id;
    EXPECT_NE(explain.value().ToCsv().find("segment morsels in parallel"),
              std::string::npos)
        << q.id;
  }
  for (int workers : {1, 2, 4}) {
    TaskScheduler pool(workers);
    TaskScheduler::ScopedOverride override_pool(&pool);
    for (size_t i = 0; i < TpchQueries().size(); ++i) {
      const TpchQuery& q = TpchQueries()[i];
      auto r = segmented.ExecuteSql(q.sql);
      ASSERT_TRUE(r.ok()) << q.id << ": " << r.status().ToString();
      const QueryResult& got = r.value();
      ASSERT_EQ(got.num_rows(), want[i].num_rows()) << q.id;
      ASSERT_EQ(got.num_columns(), want[i].num_columns()) << q.id;
      for (uint64_t row = 0; row < got.num_rows(); ++row) {
        for (size_t c = 0; c < got.num_columns(); ++c) {
          if (got.schema().field(c).type == TypeId::kReal &&
              got.Value(row, c) != kNullSentinel) {
            const double a = std::bit_cast<double>(
                static_cast<uint64_t>(got.Value(row, c)));
            const double b = std::bit_cast<double>(
                static_cast<uint64_t>(want[i].Value(row, c)));
            EXPECT_NEAR(a, b, 1e-9 * std::abs(b))
                << q.id << " row " << row << " col " << c << " pool "
                << workers;
          } else {
            EXPECT_EQ(got.ValueString(row, c), want[i].ValueString(row, c))
                << q.id << " row " << row << " col " << c << " pool "
                << workers;
          }
        }
      }
    }
  }
}

/// The first result row's values as text.
std::vector<std::string> Row0(const QueryResult& r) {
  std::vector<std::string> out;
  for (size_t c = 0; c < r.num_columns(); ++c) out.push_back(r.ValueString(0, c));
  return out;
}

TEST(TpchSql, StringAggregatesOfPerBlockStringsMatchTheStoredColumn) {
  // LOWER makes a new heap per block; TPC-H comments are lower case, so
  // every aggregate of LOWER(l_comment) must equal the stored column's.
  // One segment runs the serial operator, 4,096-row segments the morsels.
  for (const uint64_t segment_rows : {uint64_t{1} << 30, uint64_t{4096}}) {
    Engine engine;
    LoadSegmented(&engine, 0.01, segment_rows);
    const auto run = [&](const std::string& sql) {
      auto r = engine.ExecuteSql(sql);
      EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      return r.ok() ? r.MoveValue() : QueryResult();
    };
    for (const char* agg : {"MIN", "MAX", "COUNTD", "MEDIAN"}) {
      const std::string a = agg;
      const QueryResult whole =
          run("SELECT " + a + "(LOWER(l_comment)) AS x, " + a +
              "(l_comment) AS y FROM lineitem");
      ASSERT_EQ(whole.num_rows(), 1u) << a;
      EXPECT_EQ(whole.ValueString(0, 0), whole.ValueString(0, 1))
          << a << " segment_rows " << segment_rows;
      const QueryResult grouped =
          run("SELECT l_returnflag, " + a + "(LOWER(l_comment)) AS x, " + a +
              "(l_comment) AS y FROM lineitem GROUP BY l_returnflag");
      ASSERT_EQ(grouped.num_rows(), 3u) << a;
      for (uint64_t r = 0; r < grouped.num_rows(); ++r) {
        EXPECT_EQ(grouped.ValueString(r, 1), grouped.ValueString(r, 2))
            << a << " group " << grouped.ValueString(r, 0)
            << " segment_rows " << segment_rows;
      }
    }
    // The stored column's own answers, for the record.
    EXPECT_EQ(Row0(run("SELECT COUNTD(l_comment) AS n FROM lineitem"))[0],
              Row0(run("SELECT COUNTD(UPPER(l_comment)) AS n FROM "
                       "lineitem"))[0]);
  }
}

TEST(TpchSql, Q1GroupsOnCodesThroughItsFilterAndProject) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  const auto explain = [&](const std::string& sql,
                           const StrategicOptions& options) {
    auto r = engine.ExecuteSql("EXPLAIN ANALYZE " + sql, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().ToCsv() : std::string();
  };
  const std::string q1 = TpchQueries()[0].sql;
  const std::string q3 = TpchQueries()[1].sql;
  const std::string one_key =
      "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY "
      "l_returnflag";
  const std::string text = explain(q1, StrategicOptions{});
  EXPECT_NE(text.find("scan(l_returnflag): dictionary codes (group key)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("scan(l_linestatus): dictionary codes (group key)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("composite direct index"), std::string::npos) << text;
  EXPECT_EQ(text.find("collision hash"), std::string::npos) << text;
  // l_orderkey alone spans the whole order key range: Q3 keeps the hash.
  EXPECT_NE(explain(q3, StrategicOptions{}).find("collision hash"),
            std::string::npos);

  // EXPLAIN (ANALYZE) plans under the caller's options, so with dictionary
  // grouping off no key arrives as codes — through the look-through or on
  // a bare scan.
  StrategicOptions no_dict;
  no_dict.enable_dict_grouping = false;
  for (const StrategicOptions& options :
       {no_dict, testutil::AllRewritesOff()}) {
    for (const std::string& sql : {q1, one_key}) {
      EXPECT_EQ(explain(sql, options).find("dictionary codes"),
                std::string::npos)
          << sql;
      auto plain = engine.ExecuteSql("EXPLAIN " + sql, options);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(plain.value().ToCsv().find("dictionary codes"),
                std::string::npos)
          << sql;
    }
  }
  EXPECT_NE(explain(one_key, StrategicOptions{}).find("dictionary codes"),
            std::string::npos);
}

}  // namespace
}  // namespace tde
