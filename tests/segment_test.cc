// Segmented column storage: per-segment encodings and zone maps, zone-map
// pruning through the strategic planner and executor, segment-granular cold
// loading on the lazy v3 path, the segment-partitioned Exchange, incremental
// append, and the tde_segments observability surface.

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/exec/flow_table.h"
#include "src/observe/metrics.h"
#include "src/plan/strategic.h"
#include "src/storage/database_file.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/format.h"
#include "src/storage/segment/segmented_stream.h"

namespace tde {
namespace {

using expr::And;
using expr::Col;
using expr::Ge;
using expr::Gt;
using expr::Int;
using expr::Le;
using expr::Lt;

std::shared_ptr<Column> MakeSegmentedInt(const std::string& name,
                                         const std::vector<Lane>& v,
                                         uint64_t segment_rows) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kInteger;
  in.lanes = v;
  FlowTableOptions opt;
  opt.segment_rows = segment_rows;
  auto r = BuildColumn(std::move(in), opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

std::shared_ptr<Column> MakeMonolithicInt(const std::string& name,
                                          const std::vector<Lane>& v) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kInteger;
  in.lanes = v;
  auto r = BuildColumn(std::move(in), FlowTableOptions{});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

// A table whose `x` column is clustered by segment: segment k holds values
// [k*1000, k*1000+99], so a narrow range predicate selects exactly one
// segment's zone map. `y` is the row id (a distinct payload to aggregate).
std::shared_ptr<Table> ClusteredTable(uint64_t rows, uint64_t segment_rows) {
  std::vector<Lane> x(rows), y(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    x[i] = static_cast<Lane>((i / segment_rows) * 1000 + i % segment_rows);
    y[i] = static_cast<Lane>(i);
  }
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeSegmentedInt("x", x, segment_rows));
  t->AddColumn(MakeSegmentedInt("y", y, segment_rows));
  return t;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SegmentedBuild, ShapesZoneMapsAndValues) {
  const uint64_t kRows = 1000, kSeg = 100;
  std::vector<Lane> v(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    v[i] = static_cast<Lane>((i / kSeg) * 1000 + i % kSeg);
  }
  auto col = MakeSegmentedInt("x", v, kSeg);

  EXPECT_TRUE(col->segmented_storage());
  const std::vector<SegmentShape> shapes = col->SegmentShapes();
  ASSERT_EQ(shapes.size(), 10u);
  for (size_t s = 0; s < shapes.size(); ++s) {
    EXPECT_EQ(shapes[s].start_row, s * kSeg);
    EXPECT_EQ(shapes[s].rows, kSeg);
    EXPECT_FALSE(shapes[s].open_tail);
    ASSERT_TRUE(shapes[s].zone.meta.min_max_known);
    EXPECT_EQ(shapes[s].zone.meta.min_value,
              static_cast<int64_t>(s * 1000));
    EXPECT_EQ(shapes[s].zone.meta.max_value,
              static_cast<int64_t>(s * 1000 + kSeg - 1));
  }

  std::vector<Lane> got(kRows);
  ASSERT_TRUE(col->GetLanes(0, kRows, got.data()).ok());
  EXPECT_EQ(got, v);
  // Unaligned read crossing a segment boundary.
  std::vector<Lane> mid(150);
  ASSERT_TRUE(col->GetLanes(250, 150, mid.data()).ok());
  for (size_t i = 0; i < mid.size(); ++i) EXPECT_EQ(mid[i], v[250 + i]);
}

TEST(SegmentedBuild, ShortColumnStaysMonolithic) {
  std::vector<Lane> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto col = MakeSegmentedInt("x", v, 100);
  EXPECT_FALSE(col->segmented_storage());
  EXPECT_EQ(col->SegmentShapes().size(), 1u);  // the pseudo-segment
}

TEST(ZoneMapPruning, FoldsSegmentsAgainstZoneMaps) {
  auto t = ClusteredTable(1000, 100);
  // x in [3000, 3099]: only segment 3's zone map overlaps.
  auto pred = And(Ge(Col("x"), Int(3000)), Le(Col("x"), Int(3099)));
  const SegmentPruneResult prune = PruneScanSegments(*t, pred);
  EXPECT_EQ(prune.segments_pruned, 9u);
  EXPECT_EQ(prune.rows_pruned, 900u);
  ASSERT_EQ(prune.ranges.size(), 1u);
  EXPECT_EQ(prune.ranges[0].begin, 300u);
  EXPECT_EQ(prune.ranges[0].end, 400u);

  // A predicate no zone map refutes prunes nothing.
  const SegmentPruneResult none =
      PruneScanSegments(*t, Ge(Col("x"), Int(0)));
  EXPECT_EQ(none.segments_pruned, 0u);
  EXPECT_TRUE(none.ranges.empty());
}

TEST(ZoneMapPruning, FilteredQueryAnswersAndCounts) {
  const bool was = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  observe::MetricsRegistry& reg = observe::MetricsRegistry::Global();

  Engine engine;
  engine.database()->AddTable(ClusteredTable(1000, 100));

  const uint64_t before =
      reg.GetCounter("filter.segments_pruned")->value();
  auto r = engine.ExecuteSql(
      "SELECT SUM(y) AS s FROM t WHERE x >= 3000 AND x <= 3099");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  // sum(300..399)
  EXPECT_EQ(r.value().Value(0, 0), 34950);
  EXPECT_EQ(reg.GetCounter("filter.segments_pruned")->value(), before + 9);

  // EXPLAIN ANALYZE surfaces the pruning note and counter.
  auto analyzed = engine.ExecuteSql(
      "EXPLAIN ANALYZE SELECT SUM(y) AS s FROM t "
      "WHERE x >= 3000 AND x <= 3099");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const std::string text = analyzed.value().ToCsv();
  EXPECT_NE(text.find("segments_pruned"), std::string::npos) << text;

  observe::SetStatsEnabled(was);
}

TEST(ZoneMapPruning, FullyPrunedScanReturnsEmpty) {
  Engine engine;
  engine.database()->AddTable(ClusteredTable(1000, 100));
  auto r = engine.ExecuteSql("SELECT x, y FROM t WHERE x > 100000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 0u);
}

TEST(LazyV3, SelectiveQueryFaultsOnlyTouchedSegments) {
  const std::string path = TempPath("segment_lazy_v3.tde");
  {
    Database db;
    db.AddTable(ClusteredTable(1000, 100));
    ASSERT_TRUE(pager::WriteDatabaseV2(db, path).ok());
  }

  auto engine = Engine::OpenDatabase(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto r = engine.value().ExecuteSql(
      "SELECT SUM(y) AS s FROM t WHERE x >= 3000 AND x <= 3099");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 34950);

  // Only the surviving segment's blobs faulted in; the nine pruned
  // segments of both columns stayed on disk.
  const Engine& opened = engine.value();
  auto t = opened.database().GetTable("t").value();
  for (const char* name : {"x", "y"}) {
    auto col = t->ColumnByName(name).value();
    const std::vector<SegmentShape> shapes = col->SegmentShapes();
    ASSERT_EQ(shapes.size(), 10u);
    size_t resident = 0;
    for (const SegmentShape& s : shapes) resident += s.resident ? 1 : 0;
    EXPECT_EQ(resident, 1u) << name;
    EXPECT_TRUE(shapes[3].resident) << name;
  }
  std::remove(path.c_str());
}

TEST(SegmentedExchange, PartitionedFilterScanMatches) {
  auto t = ClusteredTable(1000, 100);
  // x in [2000, 4999] selects rows 200..499 (segments 2, 3, 4).
  auto plan = Plan::Scan(t)
                  .Filter(And(Ge(Col("x"), Int(2000)),
                              Lt(Col("x"), Int(5000))))
                  .ExchangeBy(4)
                  .Aggregate({}, {{AggKind::kSum, "y", "s"},
                                  {AggKind::kCount, "y", "n"}});
  auto r = ExecutePlan(plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  // sum(200..499) and 300 surviving rows.
  EXPECT_EQ(r.value().Value(0, 0), 104850);
  EXPECT_EQ(r.value().Value(0, 1), 300);

  // The partitioned route is visible in the analyzed plan.
  const bool was = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  QueryResult result;
  auto analyzed = ExplainAnalyzePlan(
      Plan::Scan(t)
          .Filter(And(Ge(Col("x"), Int(2000)), Lt(Col("x"), Int(5000))))
          .ExchangeBy(4),
      &result);
  observe::SetStatsEnabled(was);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed.value().find("partitioned"), std::string::npos)
      << analyzed.value();
  EXPECT_EQ(result.num_rows(), 300u);
}

TEST(SegmentedExchange, UnpartitionableFallsBackToSharedQueue) {
  // A monolithic table has one segment range: the partitioned route needs
  // at least two pieces, so the classic producer/worker Exchange runs.
  std::vector<Lane> v(500);
  std::iota(v.begin(), v.end(), 0);
  auto t = std::make_shared<Table>("m");
  t->AddColumn(MakeMonolithicInt("x", v));
  auto r = ExecutePlan(Plan::Scan(t)
                           .Filter(Gt(Col("x"), Int(249)))
                           .ExchangeBy(4)
                           .Aggregate({}, {{AggKind::kCount, "x", "n"}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 250);
}

TEST(AppendRows, WrapsSealsAndKeepsOpenTail) {
  const char* prev = getenv("TDE_SEGMENT_ROWS");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("TDE_SEGMENT_ROWS", "16", 1);

  Engine engine;
  auto t = std::make_shared<Table>("t");
  std::vector<Lane> init(10);
  std::iota(init.begin(), init.end(), 0);
  t->AddColumn(MakeMonolithicInt("x", init));
  engine.database()->AddTable(t);

  // Append 40 rows in two batches of 20.
  int64_t expected_sum = std::accumulate(init.begin(), init.end(), int64_t{0});
  for (int batch = 0; batch < 2; ++batch) {
    Block rows;
    ColumnVector cv;
    cv.type = TypeId::kInteger;
    for (int i = 0; i < 20; ++i) {
      const Lane v = 100 + batch * 20 + i;
      cv.lanes.push_back(v);
      expected_sum += v;
    }
    rows.columns.push_back(std::move(cv));
    auto n = engine.AppendRows("t", rows);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(n.value(), 10u + 20u * (batch + 1));
  }
  if (prev != nullptr) {
    setenv("TDE_SEGMENT_ROWS", saved.c_str(), 1);
  } else {
    unsetenv("TDE_SEGMENT_ROWS");
  }

  // Shapes: the adopted segment 0 (10 rows), two sealed 16-row segments,
  // and an 8-row open tail.
  auto col = t->ColumnByName("x").value();
  EXPECT_TRUE(col->segmented_storage());
  const std::vector<SegmentShape> shapes = col->SegmentShapes();
  ASSERT_EQ(shapes.size(), 4u);
  EXPECT_EQ(shapes[0].rows, 10u);
  EXPECT_EQ(shapes[1].rows, 16u);
  EXPECT_EQ(shapes[2].rows, 16u);
  EXPECT_EQ(shapes[3].rows, 8u);
  EXPECT_TRUE(shapes[3].open_tail);
  for (int s = 0; s < 3; ++s) EXPECT_FALSE(shapes[s].open_tail);

  auto r = engine.ExecuteSql("SELECT SUM(x) AS s, COUNT(x) AS n FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), expected_sum);
  EXPECT_EQ(r.value().Value(0, 1), 50);
}

TEST(AppendRows, StringColumnsReinternThroughTheColumnHeap) {
  Engine engine;
  auto t = std::make_shared<Table>("t");
  {
    ColumnBuildInput in;
    in.name = "s";
    in.type = TypeId::kString;
    in.heap = std::make_shared<StringHeap>();
    HeapAccelerator acc(in.heap.get());
    for (const char* s : {"b", "a", "b", "c"}) in.lanes.push_back(acc.Add(s));
    in.accel_active = true;
    in.accel_distinct = acc.distinct_count();
    in.accel_arrived_sorted = acc.arrived_sorted();
    auto r = BuildColumn(std::move(in), FlowTableOptions{});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    t->AddColumn(r.MoveValue());
  }
  engine.database()->AddTable(t);

  Block rows;
  ColumnVector cv;
  cv.type = TypeId::kString;
  auto heap = std::make_shared<StringHeap>();
  for (const char* s : {"b", "d", "b"}) {
    cv.lanes.push_back(heap->Add(s));
  }
  cv.heap = std::move(heap);
  rows.columns.push_back(std::move(cv));
  auto n = engine.AppendRows("t", rows);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 7u);

  auto r = engine.ExecuteSql("SELECT COUNT(s) AS n FROM t WHERE s = 'b'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 4);
  auto r2 = engine.ExecuteSql("SELECT COUNT(s) AS n FROM t WHERE s = 'd'");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().Value(0, 0), 1);
}

TEST(AppendRows, AppendsTheTablesOwnRows) {
  // A SELECT * of the table hands AppendRows tokens of the column's own
  // heap, which the append grows while it reads from it.
  Engine engine;
  std::string csv = "k,s\n";
  for (int i = 0; i < 200; ++i) {
    csv += std::to_string(i) + ",row-" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(engine.ImportTextBuffer(csv, "t").ok());
  for (int round = 0; round < 3; ++round) {
    auto all = engine.ExecuteSql("SELECT * FROM t");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    for (const Block& b : all.value().blocks()) {
      ASSERT_TRUE(engine.AppendRows("t", b).ok());
    }
  }
  auto r = engine.ExecuteSql("SELECT k, s FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1600u);  // 200 rows, doubled three times
  for (uint64_t row = 0; row < r.value().num_rows(); ++row) {
    EXPECT_EQ(r.value().ValueString(row, 1),
              "row-" + std::to_string(r.value().Value(row, 0) % 7));
  }
}

TEST(AppendRows, RejectsMalformedBlocks) {
  Engine engine;
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeMonolithicInt("x", {1, 2, 3}));
  engine.database()->AddTable(t);

  EXPECT_FALSE(engine.AppendRows("absent", Block{}).ok());

  Block two_cols;
  two_cols.columns.resize(2);
  two_cols.columns[0].type = TypeId::kInteger;
  two_cols.columns[0].lanes = {1};
  two_cols.columns[1].type = TypeId::kInteger;
  two_cols.columns[1].lanes = {1};
  EXPECT_FALSE(engine.AppendRows("t", two_cols).ok());

  Block wrong_type;
  wrong_type.columns.resize(1);
  wrong_type.columns[0].type = TypeId::kString;
  wrong_type.columns[0].heap = std::make_shared<StringHeap>();
  wrong_type.columns[0].lanes = {0};
  EXPECT_FALSE(engine.AppendRows("t", wrong_type).ok());
}

TEST(AppendRows, PersistsThroughV3) {
  Engine engine;
  auto t = std::make_shared<Table>("t");
  std::vector<Lane> init(10);
  std::iota(init.begin(), init.end(), 0);
  t->AddColumn(MakeMonolithicInt("x", init));
  engine.database()->AddTable(t);

  Block rows;
  ColumnVector cv;
  cv.type = TypeId::kInteger;
  for (int i = 0; i < 7; ++i) cv.lanes.push_back(1000 + i);
  rows.columns.push_back(std::move(cv));
  ASSERT_TRUE(engine.AppendRows("t", rows).ok());
  // 0..9 plus 1000..1006.
  const int64_t expected = 45 + 7 * 1000 + 21;

  // v2/v3 save round-trips the open tail.
  const std::string path = TempPath("segment_append_v3.tde");
  ASSERT_TRUE(engine.SaveDatabase(path).ok());
  auto back = Engine::OpenDatabase(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto r = back.value().ExecuteSql("SELECT SUM(x) AS s FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), expected);
  std::remove(path.c_str());
}

TEST(Observability, TdeSegmentsAndStorageReport) {
  Engine engine;
  engine.database()->AddTable(ClusteredTable(1000, 100));

  auto count = engine.ExecuteSql(
      "SELECT COUNT(segment) AS n FROM tde_segments "
      "WHERE table_name = 't' AND column_name = 'x'");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().Value(0, 0), 10);

  auto seg3 = engine.ExecuteSql(
      "SELECT start_row, rows, min_value, max_value FROM tde_segments "
      "WHERE table_name = 't' AND column_name = 'x' AND segment = 3");
  ASSERT_TRUE(seg3.ok()) << seg3.status().ToString();
  ASSERT_EQ(seg3.value().num_rows(), 1u);
  EXPECT_EQ(seg3.value().Value(0, 0), 300);
  EXPECT_EQ(seg3.value().Value(0, 1), 100);
  EXPECT_EQ(seg3.value().Value(0, 2), 3000);
  EXPECT_EQ(seg3.value().Value(0, 3), 3099);

  const std::string report = engine.StorageReportJson();
  EXPECT_NE(report.find("\"segments\":["), std::string::npos);
  EXPECT_NE(report.find("\"open_tail\":false"), std::string::npos);
}

TEST(Optimize, SegmentedColumnsCollapseBeforeDictionaryConversion) {
  Engine engine;
  auto t = std::make_shared<Table>("t");
  // Small-domain values: OptimizeTable dictionary-compresses, collapsing
  // the segmented stream to one monolithic stream first.
  std::vector<Lane> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Lane>(i % 3);
  t->AddColumn(MakeSegmentedInt("x", v, 100));
  engine.database()->AddTable(t);
  ASSERT_TRUE(t->column(0).segmented_storage());

  auto n = engine.OptimizeTable("t");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 1);
  EXPECT_EQ(t->column(0).compression(), CompressionKind::kArrayDict);
  EXPECT_FALSE(t->column(0).segmented_storage());

  auto r = engine.ExecuteSql("SELECT SUM(x) AS s FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), 999);

  // A dictionary-compressed column is frozen against appends.
  Block rows;
  rows.columns.resize(1);
  rows.columns[0].type = TypeId::kInteger;
  rows.columns[0].lanes = {1};
  EXPECT_FALSE(engine.AppendRows("t", rows).ok());
}

// --- Regressions from the differential harness (tests/differential_test) --

/// 40 rows, 8-row segments; `x` is NULL at rows 0, 13, 26 and 39, so some
/// segments carry nulls and some (rows 16..23) are null-free.
void ImportSegmentedNullable(Engine* e) {
  std::string csv = "x,y\n";
  for (int i = 0; i < 40; ++i) {
    if (i % 13 != 0) csv += std::to_string(i);
    csv += "," + std::to_string(i) + "\n";
  }
  ImportOptions opt;
  opt.flow.segment_rows = 8;
  auto r = e->ImportTextBuffer(csv, "n", opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value()->ColumnByName("x").value()->segmented_storage());
}

/// Zone maps summarize values; NULL rows must be accounted for separately
/// (null_count), or pruning drops exactly the rows IS NULL asks for. The
/// differential sweeps exercise this via the "no metadata" vs "default"
/// config pair on segmented layouts.
TEST(SegmentedNulls, IsNullFilterSurvivesZoneMapPruning) {
  Engine engine;
  ImportSegmentedNullable(&engine);

  auto r = engine.ExecuteSql("SELECT y FROM n WHERE x IS NULL ORDER BY y");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 4u);
  EXPECT_EQ(r.value().Value(0, 0), 0);
  EXPECT_EQ(r.value().Value(1, 0), 13);
  EXPECT_EQ(r.value().Value(2, 0), 26);
  EXPECT_EQ(r.value().Value(3, 0), 39);

  // Two-valued NULL contract: NOT(IS NULL) keeps exactly the complement.
  auto inv = engine.ExecuteSql(
      "SELECT COUNT(y) AS c FROM n WHERE NOT (x IS NULL)");
  ASSERT_TRUE(inv.ok()) << inv.status().ToString();
  EXPECT_EQ(inv.value().Value(0, 0), 36);

  // Comparisons are false on NULL, so min/max folds over a zone that
  // contains the sentinel must never prove a predicate always-true.
  auto cmp = engine.ExecuteSql("SELECT COUNT(y) AS c FROM n WHERE x < 100");
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp.value().Value(0, 0), 36);
}

/// Found by the differential harness: the sort comparator dispatched on
/// type before checking for NULL, so the sentinel masqueraded as INT64_MIN
/// (integers) or -0.0 (reals). Contract: NULL orders below every value —
/// first under ASC, last under DESC — across segment boundaries.
TEST(SegmentedNulls, OrderByPlacesNullsBelowEveryValue) {
  Engine engine;
  ImportSegmentedNullable(&engine);

  auto asc = engine.ExecuteSql("SELECT x FROM n ORDER BY x");
  ASSERT_TRUE(asc.ok()) << asc.status().ToString();
  ASSERT_EQ(asc.value().num_rows(), 40u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(asc.value().ValueString(i, 0), "NULL") << i;
  }
  for (uint64_t i = 5; i < 40; ++i) {
    EXPECT_LT(asc.value().Value(i - 1, 0), asc.value().Value(i, 0)) << i;
  }

  auto desc = engine.ExecuteSql("SELECT x FROM n ORDER BY x DESC");
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  ASSERT_EQ(desc.value().num_rows(), 40u);
  for (uint64_t i = 36; i < 40; ++i) {
    EXPECT_EQ(desc.value().ValueString(i, 0), "NULL") << i;
  }
  for (uint64_t i = 1; i < 36; ++i) {
    EXPECT_GT(desc.value().Value(i - 1, 0), desc.value().Value(i, 0)) << i;
  }
}

}  // namespace
}  // namespace tde
