#include "src/exec/flow_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/core/engine.h"
#include "src/exec/scheduler.h"
#include "src/observe/metrics.h"
#include "src/workload/tpch.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;

std::vector<Lane> ColumnLanes(const Table& t, const std::string& name) {
  auto col = t.ColumnByName(name).value();
  std::vector<Lane> out(col->rows());
  EXPECT_TRUE(col->GetLanes(0, out.size(), out.data()).ok());
  return out;
}

TEST(FlowTable, BuildsEncodedTableFromFlow) {
  std::vector<Lane> ids(5000), small(5000);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<Lane>(i);
    small[i] = static_cast<Lane>(i % 9);
  }
  auto table = FlowTable::Build(
                   VectorSource::Ints({{"id", ids}, {"cat", small}}))
                   .MoveValue();
  EXPECT_EQ(table->rows(), 5000u);
  EXPECT_EQ(ColumnLanes(*table, "id"), ids);
  EXPECT_EQ(ColumnLanes(*table, "cat"), small);
  // id is a ramp -> affine; cat is a small domain -> dictionary or FoR.
  EXPECT_EQ(table->ColumnByName("id").value()->data()->type(),
            EncodingType::kAffine);
  EXPECT_NE(table->ColumnByName("cat").value()->data()->type(),
            EncodingType::kUncompressed);
}

TEST(FlowTable, ExtractsMetadataDuringBuild) {
  std::vector<Lane> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<Lane>(i + 10);
  auto table =
      FlowTable::Build(VectorSource::Ints({{"id", ids}})).MoveValue();
  const ColumnMetadata& m = table->ColumnByName("id").value()->metadata();
  EXPECT_TRUE(m.sorted);
  EXPECT_TRUE(m.dense);
  EXPECT_TRUE(m.unique);
  EXPECT_EQ(m.min_value, 10);
  EXPECT_EQ(m.max_value, 1009);
}

TEST(FlowTable, EncodingOffExtractsAlmostNothing) {
  std::vector<Lane> ids(100);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<Lane>(i);
  FlowTableOptions opts;
  opts.enable_encodings = false;
  auto table =
      FlowTable::Build(VectorSource::Ints({{"id", ids}}), opts).MoveValue();
  const Column& c = *table->ColumnByName("id").value();
  EXPECT_EQ(c.data()->type(), EncodingType::kUncompressed);
  EXPECT_EQ(c.metadata().DetectedCount(), 0);
}

TEST(FlowTable, NarrowsIntegerWidths) {
  std::vector<Lane> v(3000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Lane>(i % 50);
  auto table = FlowTable::Build(VectorSource::Ints({{"x", v}})).MoveValue();
  EXPECT_EQ(table->ColumnByName("x").value()->TokenWidth(), 1);
}

TEST(FlowTable, RehomesStringsAndDeduplicates) {
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3}}});
  src->AddStringColumn("s", {"x", "y", "x", "x"});
  auto table = FlowTable::Build(std::move(src)).MoveValue();
  const Column& c = *table->ColumnByName("s").value();
  EXPECT_EQ(c.compression(), CompressionKind::kHeap);
  EXPECT_EQ(c.heap()->entry_count(), 2u);
  std::vector<Lane> lanes(4);
  ASSERT_TRUE(c.GetLanes(0, 4, lanes.data()).ok());
  EXPECT_EQ(c.GetString(lanes[0]), "x");
  EXPECT_EQ(c.GetString(lanes[1]), "y");
  EXPECT_EQ(lanes[0], lanes[2]);
}

TEST(FlowTable, SortsHeapOfDictEncodedStringColumn) {
  // Small unsorted domain repeated many times -> dictionary encoding ->
  // post-processing sorts the heap (Sect. 6.3) without touching rows.
  std::vector<std::string> domain = {"delta", "alpha", "charlie", "bravo"};
  std::vector<std::string> values;
  std::vector<Lane> ids;
  for (int i = 0; i < 4000; ++i) {
    values.push_back(domain[static_cast<size_t>(i * 2654435761u % 4)]);
    ids.push_back(i);
  }
  auto src = VectorSource::Ints({{"id", ids}});
  src->AddStringColumn("s", values);
  auto table = FlowTable::Build(std::move(src)).MoveValue();
  const Column& c = *table->ColumnByName("s").value();
  ASSERT_EQ(c.data()->type(), EncodingType::kDictionary);
  EXPECT_TRUE(c.heap()->sorted());
  // Heap order is collation order.
  const auto tokens = c.heap()->AllTokens();
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(c.heap()->Get(tokens[0]), "alpha");
  EXPECT_EQ(c.heap()->Get(tokens[3]), "delta");
  // Rows still resolve to the right strings.
  std::vector<Lane> lanes(values.size());
  ASSERT_TRUE(c.GetLanes(0, lanes.size(), lanes.data()).ok());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(c.GetString(lanes[i]), values[i]);
  }
}

TEST(FlowTable, FortuitousSortedArrivalDetectedWithoutEncodings) {
  FlowTableOptions opts;
  opts.enable_encodings = false;
  auto src = VectorSource::Ints({{"id", {0, 1, 2}}});
  src->AddStringColumn("s", {"a", "b", "c"});
  auto table = FlowTable::Build(std::move(src), opts).MoveValue();
  const Column& c = *table->ColumnByName("s").value();
  EXPECT_TRUE(c.heap()->sorted());
  EXPECT_TRUE(c.metadata().cardinality_known);  // accelerator statistic
  EXPECT_EQ(c.metadata().cardinality, 3u);
}

TEST(FlowTable, AccelerationOffKeepsDuplicates) {
  FlowTableOptions opts;
  opts.heap_acceleration = false;
  auto src = VectorSource::Ints({{"id", {0, 1}}});
  src->AddStringColumn("s", {"dup", "dup"});
  auto table = FlowTable::Build(std::move(src), opts).MoveValue();
  EXPECT_EQ(table->ColumnByName("s").value()->heap()->entry_count(), 2u);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// One import of `text` on a pool of `workers`: the saved database's bytes
/// plus the engine, for the table-level comparisons.
struct PoolImport {
  Engine engine;
  std::string saved;
};

PoolImport ImportOnPool(int workers, const std::string& text,
                        const ImportOptions& options) {
  TaskScheduler pool(workers);
  TaskScheduler::ScopedOverride use_pool(&pool);
  PoolImport out;
  auto table = out.engine.ImportTextBuffer(text, "t", options);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  const std::string path = ::testing::TempDir() + "/flow_pool_" +
                           std::to_string(workers) + ".tde";
  EXPECT_TRUE(out.engine.SaveDatabase(path).ok());
  out.saved = FileBytes(path);
  std::remove(path.c_str());
  EXPECT_FALSE(out.saved.empty());
  return out;
}

// FlowTable runs one task per column, and TextScan one per chunk: pools of
// one, two and four workers give the same lanes, heaps, NULLs, encodings,
// row and error counts, and saved bytes.
TEST(FlowTable, PoolSizesBuildTheSameTable) {
  const bool stats_were = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  const testutil::AwkwardCsv csv =
      testutil::MakeAwkwardCsv(7 * kBlockSize + 77);
  ImportOptions options;
  options.text.schema = csv.schema;
  options.text.has_header = true;
  const PoolImport one = ImportOnPool(1, csv.text, options);
  const Table& want = *one.engine.database().GetTable("t").value();
  ASSERT_EQ(want.rows(), csv.notes.size());
  const auto note = want.ColumnByName("note").value();
  const std::vector<Lane> note_tokens = ColumnLanes(want, "note");
  for (size_t r = 0; r < csv.notes.size(); ++r) {
    ASSERT_EQ(note->heap()->Get(note_tokens[r]), csv.notes[r]) << "row " << r;
  }
  EXPECT_EQ(ColumnLanes(want, "val"), csv.vals);
  ASSERT_EQ(one.engine.import_stats().size(), 1u);
  EXPECT_EQ(one.engine.import_stats()[0].parse_errors, csv.parse_errors);

  for (int workers : {2, 4}) {
    SCOPED_TRACE("pool of " + std::to_string(workers));
    const PoolImport other = ImportOnPool(workers, csv.text, options);
    const Table& got = *other.engine.database().GetTable("t").value();
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.num_columns(), want.num_columns());
    for (size_t i = 0; i < want.num_columns(); ++i) {
      const Column& a = want.column(i);
      const Column& b = got.column(i);
      SCOPED_TRACE(a.name());
      EXPECT_EQ(b.name(), a.name());
      EXPECT_EQ(b.data()->type(), a.data()->type());
      EXPECT_EQ(ColumnLanes(got, b.name()), ColumnLanes(want, a.name()));
      ASSERT_EQ(b.heap() == nullptr, a.heap() == nullptr);
      if (a.heap() != nullptr) {
        EXPECT_EQ(b.heap()->buffer(), a.heap()->buffer());
        EXPECT_EQ(b.heap()->sorted(), a.heap()->sorted());
      }
    }
    ASSERT_EQ(other.engine.import_stats().size(), 1u);
    EXPECT_EQ(other.engine.import_stats()[0].rows, csv.notes.size());
    EXPECT_EQ(other.engine.import_stats()[0].parse_errors, csv.parse_errors);
    EXPECT_TRUE(other.saved == one.saved) << "saved database bytes differ";
  }
  observe::SetStatsEnabled(stats_were);
}

// The benchmark's import: TPC-H SF 0.01 lineitem saves byte-identically
// whether one worker or four parse and encode it.
TEST(FlowTable, TpchLineitemSavesTheSameOnOneAndFourWorkers) {
  const std::string text = GenerateTpchTable(TpchTable::kLineitem, 0.01);
  ImportOptions options;
  options.text.field_separator = '|';
  const PoolImport one = ImportOnPool(1, text, options);
  const PoolImport four = ImportOnPool(4, text, options);
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(one.engine.database().GetTable("t").value()->rows(),
            static_cast<uint64_t>(lines - 1));  // less the header
  EXPECT_EQ(one.saved.size(), four.saved.size());
  EXPECT_TRUE(one.saved == four.saved) << "saved database bytes differ";
}

// Each column's task start and time (interning plus encoding) are
// recorded, and the encode phase's wall time covers every task.
TEST(FlowTable, ColumnTaskTimesFitInTheEncodePhase) {
  const bool stats_were = observe::StatsEnabled();
  observe::SetStatsEnabled(true);
  const testutil::AwkwardCsv csv = testutil::MakeAwkwardCsv(3 * kBlockSize);
  ImportOptions options;
  options.text.schema = csv.schema;
  options.text.has_header = true;
  const PoolImport four = ImportOnPool(4, csv.text, options);
  ASSERT_EQ(four.engine.import_stats().size(), 1u);
  const observe::ImportStats& stats = four.engine.import_stats()[0];
  ASSERT_EQ(stats.columns.size(), 4u);
  double longest = 0;
  for (const observe::ColumnImportStats& c : stats.columns) {
    EXPECT_GT(c.task_seconds, 0) << c.column;
    EXPECT_GE(c.start_seconds, 0) << c.column;
    // Each task starts and ends inside the encode phase.
    EXPECT_LE(c.start_seconds + c.task_seconds, stats.encode_seconds)
        << c.column;
    longest = std::max(longest, c.task_seconds);
  }
  EXPECT_LE(longest, stats.encode_seconds);
  EXPECT_NE(stats.ToJson().find("\"task_seconds\":"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"start_seconds\":"), std::string::npos);
  EXPECT_NE(stats.ToString().find("task_ms"), std::string::npos);
  EXPECT_NE(stats.ToString().find("start_ms"), std::string::npos);
  observe::SetStatsEnabled(stats_were);
}

TEST(FlowTable, NullStringsSurvive) {
  auto src = VectorSource::Ints({{"id", {0, 1, 2}}});
  Schema schema = src->output_schema();
  // Build a string column with a NULL lane by hand.
  auto heap = std::make_shared<StringHeap>();
  ColumnVector cv;
  cv.type = TypeId::kString;
  cv.lanes = {heap->Add("a"), kNullSentinel, heap->Add("b")};
  cv.heap = heap;
  schema.AddField({"s", TypeId::kString});
  std::vector<ColumnVector> cols;
  cols.push_back(ColumnVector{TypeId::kInteger, {0, 1, 2}, nullptr, nullptr});
  cols.push_back(cv);
  auto table = FlowTable::Build(std::make_unique<VectorSource>(
                                    schema, std::move(cols)))
                   .MoveValue();
  const Column& c = *table->ColumnByName("s").value();
  std::vector<Lane> lanes(3);
  ASSERT_TRUE(c.GetLanes(0, 3, lanes.data()).ok());
  EXPECT_EQ(lanes[1], kNullSentinel);
  EXPECT_EQ(c.GetString(lanes[2]), "b");
  EXPECT_TRUE(c.metadata().has_nulls);
}

TEST(FlowTable, OperatesAsRescannableOperator) {
  std::vector<Lane> v = {5, 6, 7};
  FlowTable ft(VectorSource::Ints({{"x", v}}));
  ASSERT_TRUE(ft.Open().ok());
  auto blocks = testutil::Drain(&ft);
  // Drain closed it; FlowTable Open again streams again from the table.
  ASSERT_TRUE(ft.Open().ok());
  auto blocks2 = testutil::Drain(&ft);
  EXPECT_EQ(testutil::Flatten(blocks, 0), v);
  EXPECT_EQ(testutil::Flatten(blocks2, 0), v);
}

}  // namespace
}  // namespace tde
