#include "src/textscan/text_scan.h"

#include <gtest/gtest.h>

#include "src/exec/scheduler.h"
#include "tests/test_util.h"

namespace tde {
namespace {

std::vector<Block> DrainScan(TextScan* scan) {
  std::vector<Block> out;
  EXPECT_TRUE(DrainOperator(scan, &out).ok());
  return out;
}

TEST(TextScan, ParsesTypedColumns) {
  auto scan = TextScan::FromBuffer(
      "id,price,when,name\n"
      "1,1.5,2001-01-05,aa\n"
      "2,2.5,2001-01-06,bb\n");
  ASSERT_TRUE(scan->Open().ok());
  EXPECT_TRUE(scan->has_header());
  EXPECT_EQ(scan->field_separator(), ',');
  auto blocks = DrainScan(scan.get());
  ASSERT_EQ(blocks.size(), 1u);
  const Block& b = blocks[0];
  ASSERT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.columns[0].lanes[1], 2);
  EXPECT_EQ(b.columns[2].lanes[0], DaysFromCivil(2001, 1, 5));
  EXPECT_EQ(b.columns[3].GetString(1), "bb");
  EXPECT_EQ(scan->parse_errors(), 0u);
}

TEST(TextScan, ProvidedSchemaSkipsInference) {
  TextScanOptions opts;
  opts.schema = Schema({{"a", TypeId::kInteger}, {"b", TypeId::kString}});
  opts.has_header = false;
  opts.field_separator = '|';
  auto scan = TextScan::FromBuffer("1|x\n2|y\n", opts);
  ASSERT_TRUE(scan->Open().ok());
  auto blocks = DrainScan(scan.get());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].columns[0].lanes[0], 1);
  EXPECT_EQ(blocks[0].columns[1].GetString(1), "y");
}

TEST(TextScan, UnparseableFieldsBecomeNullAndCount) {
  TextScanOptions opts;
  opts.schema = Schema({{"a", TypeId::kInteger}});
  opts.has_header = false;
  auto scan = TextScan::FromBuffer("1\nbad\n3\n", opts);
  ASSERT_TRUE(scan->Open().ok());
  auto blocks = DrainScan(scan.get());
  ASSERT_EQ(blocks[0].rows(), 3u);
  EXPECT_EQ(blocks[0].columns[0].lanes[1], kNullSentinel);
  EXPECT_EQ(scan->parse_errors(), 1u);
}

TEST(TextScan, MissingTrailingFieldsAreNull) {
  TextScanOptions opts;
  opts.schema = Schema({{"a", TypeId::kInteger}, {"b", TypeId::kInteger}});
  opts.has_header = false;
  auto scan = TextScan::FromBuffer("1,2\n3\n", opts);
  ASSERT_TRUE(scan->Open().ok());
  auto blocks = DrainScan(scan.get());
  EXPECT_EQ(blocks[0].columns[1].lanes[1], kNullSentinel);
}

TEST(TextScan, ColumnProjection) {
  TextScanOptions opts;
  opts.columns = {"c", "a"};
  auto scan = TextScan::FromBuffer("a,b,c\n1,2,3\n4,5,6\n", opts);
  ASSERT_TRUE(scan->Open().ok());
  EXPECT_EQ(scan->output_schema().num_fields(), 2u);
  EXPECT_EQ(scan->output_schema().field(0).name, "c");
  auto blocks = DrainScan(scan.get());
  EXPECT_EQ(blocks[0].columns[0].lanes[0], 3);
  EXPECT_EQ(blocks[0].columns[1].lanes[0], 1);
}

TEST(TextScan, ManyRowsSpanBlocks) {
  std::string data = "v\n";
  const int n = 3000;
  for (int i = 0; i < n; ++i) data += std::to_string(i) + "\n";
  auto scan = TextScan::FromBuffer(data);
  ASSERT_TRUE(scan->Open().ok());
  auto blocks = DrainScan(scan.get());
  ASSERT_GE(blocks.size(), 2u);
  uint64_t rows = 0;
  Lane expect = 0;
  for (const Block& b : blocks) {
    for (Lane v : b.columns[0].lanes) {
      ASSERT_EQ(v, expect++);
    }
    rows += b.rows();
  }
  EXPECT_EQ(rows, static_cast<uint64_t>(n));
}

// Parsing runs one task per chunk (one block of rows) on the shared pool.
// Pools of one, two and four workers change which threads parse which
// chunk, never the blocks: the awkward records on both sides of every
// chunk boundary parse as a whole-buffer record reader sees them.
TEST(TextScan, PoolSizesParseTheSameBlocks) {
  const testutil::AwkwardCsv csv =
      testutil::MakeAwkwardCsv(7 * kBlockSize + 77);
  std::vector<size_t> first_shape;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("pool of " + std::to_string(workers));
    TaskScheduler pool(workers);
    TaskScheduler::ScopedOverride use_pool(&pool);
    TextScanOptions opts;
    opts.schema = csv.schema;
    opts.has_header = true;
    auto scan = TextScan::FromBuffer(csv.text, opts);
    ASSERT_TRUE(scan->Open().ok());
    auto blocks = DrainScan(scan.get());
    std::vector<size_t> shape;
    size_t row = 0;
    for (const Block& b : blocks) {
      shape.push_back(b.rows());
      for (size_t r = 0; r < b.rows(); ++r, ++row) {
        ASSERT_LT(row, csv.notes.size());
        ASSERT_EQ(b.columns[0].lanes[r], static_cast<Lane>(row));
        ASSERT_EQ(b.columns[1].GetString(r), csv.notes[row]) << "row " << row;
        ASSERT_EQ(b.columns[2].lanes[r], csv.vals[row]) << "row " << row;
        ASSERT_EQ(b.columns[3].GetString(r), csv.tags[row]) << "row " << row;
      }
    }
    EXPECT_EQ(row, csv.notes.size());
    EXPECT_EQ(scan->scan_stats().rows, csv.notes.size());
    EXPECT_EQ(scan->parse_errors(), csv.parse_errors);
    EXPECT_GT(csv.parse_errors, 0u);
    if (first_shape.empty()) first_shape = shape;
    EXPECT_EQ(shape, first_shape);
  }
  // Every block but the last is a full one, as a serial scan emits them.
  ASSERT_EQ(first_shape.size(), 8u);
  EXPECT_EQ(first_shape.back(), 77u);
}

TEST(TextScan, QuotedFieldsRoundTrip) {
  // RFC-4180: quoted separators, embedded newlines, and doubled quotes
  // all survive import as literal field content.
  auto scan = TextScan::FromBuffer(
      "id,note\n"
      "1,\"plain\"\n"
      "2,\"comma, inside\"\n"
      "3,\"line one\nline two\"\n"
      "4,\"she said \"\"ok\"\"\"\n"
      "5,unquoted\n");
  ASSERT_TRUE(scan->Open().ok());
  EXPECT_TRUE(scan->has_header());
  auto blocks = DrainScan(scan.get());
  ASSERT_EQ(blocks.size(), 1u);
  const Block& b = blocks[0];
  ASSERT_EQ(b.rows(), 5u);
  EXPECT_EQ(b.columns[0].lanes[2], 3);  // ids parse despite the newline row
  EXPECT_EQ(b.columns[1].GetString(0), "plain");
  EXPECT_EQ(b.columns[1].GetString(1), "comma, inside");
  EXPECT_EQ(b.columns[1].GetString(2), "line one\nline two");
  EXPECT_EQ(b.columns[1].GetString(3), "she said \"ok\"");
  EXPECT_EQ(b.columns[1].GetString(4), "unquoted");
  EXPECT_EQ(scan->parse_errors(), 0u);
}

TEST(TextScan, QuotedNumbersStillParse) {
  TextScanOptions opts;
  opts.schema = Schema({{"a", TypeId::kInteger}, {"b", TypeId::kReal}});
  opts.has_header = false;
  auto scan = TextScan::FromBuffer("\"1\",\"2.5\"\n\"-3\",\"1e2\"\n", opts);
  ASSERT_TRUE(scan->Open().ok());
  auto blocks = DrainScan(scan.get());
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].columns[0].lanes[0], 1);
  EXPECT_EQ(blocks[0].columns[0].lanes[1], -3);
  EXPECT_EQ(scan->parse_errors(), 0u);
}

TEST(TextScan, ReopenRestarts) {
  auto scan = TextScan::FromBuffer("a\n1\n2\n");
  ASSERT_TRUE(scan->Open().ok());
  auto first = DrainScan(scan.get());
  ASSERT_TRUE(scan->Open().ok());
  auto second = DrainScan(scan.get());
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first[0].columns[0].lanes, second[0].columns[0].lanes);
}

}  // namespace
}  // namespace tde
