#include "src/storage/database_file.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "src/exec/flow_table.h"
#include "src/storage/heap_accelerator.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/format.h"

namespace tde {
namespace {

std::shared_ptr<Column> MakeIntColumn(const std::string& name,
                                      const std::vector<Lane>& v,
                                      uint64_t segment_rows = 0) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kInteger;
  in.lanes = v;
  FlowTableOptions opts;
  opts.segment_rows = segment_rows;
  auto r = BuildColumn(std::move(in), opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

std::shared_ptr<Column> MakeStringColumn(
    const std::string& name, const std::vector<std::string>& strings,
    uint64_t segment_rows = 0) {
  ColumnBuildInput in;
  in.name = name;
  in.type = TypeId::kString;
  in.heap = std::make_shared<StringHeap>();
  HeapAccelerator acc(in.heap.get());
  for (const auto& s : strings) in.lanes.push_back(acc.Add(s));
  in.accel_active = true;
  in.accel_distinct = acc.distinct_count();
  in.accel_arrived_sorted = acc.arrived_sorted();
  FlowTableOptions opts;
  opts.segment_rows = segment_rows;
  auto r = BuildColumn(std::move(in), opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(Column, WidthAndSizes) {
  auto col = MakeIntColumn("x", {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(col->rows(), 8u);
  EXPECT_LE(col->TokenWidth(), 8);
  EXPECT_GT(col->PhysicalSize(), 0u);
  EXPECT_EQ(col->LogicalSize(), 64u);
}

TEST(Column, GetLanesDecodes) {
  std::vector<Lane> v = {10, 20, 30, 40};
  auto col = MakeIntColumn("x", v);
  std::vector<Lane> got(4);
  ASSERT_TRUE(col->GetLanes(0, 4, got.data()).ok());
  EXPECT_EQ(got, v);
}

TEST(Table, ColumnLookup) {
  Table t("demo");
  t.AddColumn(MakeIntColumn("a", {1}));
  t.AddColumn(MakeIntColumn("b", {2}));
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_TRUE(t.ColumnIndex("b").ok());
  EXPECT_EQ(t.ColumnIndex("b").value(), 1u);
  EXPECT_EQ(t.ColumnIndex("zzz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t.GetSchema().ToString(), "(a: integer, b: integer)");
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Saves `db` as a single file and opens it back the one way the engine
/// opens files: lazily, every column cold until first touch.
Database SaveAndOpen(const Database& db, const std::string& path) {
  EXPECT_TRUE(pager::WriteDatabaseV2(db, path).ok());
  auto back = pager::OpenDatabaseV2(
      path, std::make_shared<pager::ColumnCache>(64ull << 20));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? back.MoveValue() : Database();
}

uint64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n < 0 ? 0 : static_cast<uint64_t>(n);
}

TEST(DatabaseFile, RoundTripsTablesColumnsAndMetadata) {
  // Two-row segments: every column is segmented, so this is a v3 file.
  Database db;
  auto t = std::make_shared<Table>("facts");
  t->AddColumn(MakeIntColumn("id", {1, 2, 3, 4, 5}, /*segment_rows=*/2));
  t->AddColumn(MakeIntColumn("v", {9, 9, 9, 9, 9}, /*segment_rows=*/2));
  t->AddColumn(
      MakeStringColumn("tag", {"b", "a", "b", "c", "a"}, /*segment_rows=*/2));
  db.AddTable(t);

  const std::string path = TempPath("storage_roundtrip.tde");
  Database back = SaveAndOpen(db, path);
  ASSERT_EQ(back.num_tables(), 1u);
  auto ft = back.GetTable("facts").value();
  EXPECT_EQ(ft->rows(), 5u);
  ASSERT_EQ(ft->num_columns(), 3u);

  // Metadata survives: id was dense/unique/sorted. It answers from the
  // directory, before any column is read.
  auto id = ft->ColumnByName("id").value();
  EXPECT_TRUE(id->cold());
  EXPECT_FALSE(id->resident());
  EXPECT_TRUE(id->segmented_storage());
  EXPECT_TRUE(id->metadata().dense);
  EXPECT_TRUE(id->metadata().unique);
  EXPECT_EQ(id->metadata().min_value, 1);
  EXPECT_EQ(id->metadata().max_value, 5);
  std::vector<Lane> lanes(5);
  ASSERT_TRUE(id->GetLanes(0, 5, lanes.data()).ok());
  EXPECT_EQ(lanes, (std::vector<Lane>{1, 2, 3, 4, 5}));

  // String column resolves through its restored heap.
  auto tag = ft->ColumnByName("tag").value();
  auto pin = tag->Pin();
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  ASSERT_TRUE(tag->GetLanes(0, 5, lanes.data()).ok());
  EXPECT_EQ(tag->GetString(lanes[0]), "b");
  EXPECT_EQ(tag->GetString(lanes[3]), "c");
  std::remove(path.c_str());
}

TEST(DatabaseFile, SingleFileOnDisk) {
  Database db;
  auto t = std::make_shared<Table>("t");
  t->AddColumn(MakeIntColumn("x", {1, 2, 3}));
  db.AddTable(t);
  const std::string path = TempPath("tde_test.tde");
  Database back = SaveAndOpen(db, path);
  EXPECT_EQ(back.GetTable("t").value()->rows(), 3u);
  std::remove(path.c_str());
}

TEST(DatabaseFile, CompressionShrinksTheSingleFileCopy) {
  // Sect. 2.3.3: the single-file copy is unavoidable; encodings shrink it.
  constexpr uint64_t kSegmentRows = 16384;
  std::vector<Lane> v(100000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<Lane>(i % 100);

  auto encoded = std::make_shared<Table>("e");
  encoded->AddColumn(MakeIntColumn("x", v, kSegmentRows));
  Database db_enc;
  db_enc.AddTable(encoded);

  ColumnBuildInput in;
  in.name = "x";
  in.type = TypeId::kInteger;
  in.lanes = v;
  FlowTableOptions off;
  off.enable_encodings = false;
  off.segment_rows = kSegmentRows;
  auto unencoded = std::make_shared<Table>("u");
  unencoded->AddColumn(BuildColumn(std::move(in), off).MoveValue());
  Database db_raw;
  db_raw.AddTable(unencoded);

  const std::string enc_path = TempPath("storage_encoded.tde");
  const std::string raw_path = TempPath("storage_raw.tde");
  Database enc_back = SaveAndOpen(db_enc, enc_path);
  Database raw_back = SaveAndOpen(db_raw, raw_path);
  EXPECT_LT(FileSize(enc_path) * 4, FileSize(raw_path));

  // Both copies are segmented (v3) and read back the same values.
  for (const Database* back : {&enc_back, &raw_back}) {
    const auto table = back->tables().at(0);
    EXPECT_TRUE(table->column(0).segmented_storage());
    std::vector<Lane> got(v.size());
    ASSERT_TRUE(table->column(0).GetLanes(0, got.size(), got.data()).ok());
    EXPECT_EQ(got, v);
  }
  std::remove(enc_path.c_str());
  std::remove(raw_path.c_str());
}

}  // namespace
}  // namespace tde
