// Failure injection: corrupt or truncated serialized streams and database
// files must fail with clean IOError statuses, never fault. Database files
// go through the one open path the engine has (pager::OpenDatabaseV2).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "src/encoding/stream.h"
#include "src/exec/flow_table.h"
#include "src/storage/pager/column_cache.h"
#include "src/storage/pager/crc32c.h"
#include "src/storage/pager/format.h"
#include "src/textscan/text_scan.h"
#include "src/storage/heap_accelerator.h"
#include "tests/test_util.h"

namespace tde {
namespace {

std::vector<uint8_t> GoodStream(EncodingType type) {
  EncodingStats stats;
  std::vector<Lane> v(3000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = type == EncodingType::kAffine ? static_cast<Lane>(i)
                                         : static_cast<Lane>(i % 40);
  }
  stats.Update(v.data(), v.size());
  auto s = EncodedStream::Create(type, 8, true, stats, 0).MoveValue();
  EXPECT_TRUE(s->Append(v.data(), v.size()).ok());
  EXPECT_TRUE(s->Finalize().ok());
  return s->buffer();
}

class CorruptStream : public ::testing::TestWithParam<EncodingType> {};

TEST_P(CorruptStream, GoodBufferOpens) {
  EXPECT_TRUE(EncodedStream::Open(GoodStream(GetParam())).ok());
}

TEST_P(CorruptStream, TruncatedHeaderRejected) {
  auto buf = GoodStream(GetParam());
  buf.resize(16);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, TruncatedDataRejected) {
  auto buf = GoodStream(GetParam());
  if (GetParam() == EncodingType::kAffine) GTEST_SKIP();  // no data section
  buf.resize(buf.size() - (buf.size() - 40) / 2);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, BadAlgorithmByteRejected) {
  auto buf = GoodStream(GetParam());
  buf[20] = 99;
  EXPECT_FALSE(EncodedStream::Open(buf).ok());
}

TEST_P(CorruptStream, BadWidthRejected) {
  auto buf = GoodStream(GetParam());
  buf[21] = 3;
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, HugeDataOffsetRejected) {
  auto buf = GoodStream(GetParam());
  HeaderView(&buf).set_data_offset(uint64_t{1} << 40);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, InflatedLogicalSizeRejected) {
  auto buf = GoodStream(GetParam());
  if (GetParam() == EncodingType::kAffine) GTEST_SKIP();
  HeaderView(&buf).set_logical_size(uint64_t{1} << 30);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST_P(CorruptStream, BadBlockSizeRejected) {
  auto buf = GoodStream(GetParam());
  HeaderView(&buf).set_block_size(7);  // not a multiple of 32
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, CorruptStream,
    ::testing::Values(EncodingType::kUncompressed,
                      EncodingType::kFrameOfReference, EncodingType::kDelta,
                      EncodingType::kDictionary, EncodingType::kAffine,
                      EncodingType::kRunLength),
    [](const auto& info) {
      std::string n = EncodingName(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(CorruptStream, DictBitsPastLimitRejected) {
  auto buf = GoodStream(EncodingType::kDictionary);
  HeaderView(&buf).set_bits(16);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST(CorruptStream, DictEntryCountPastCapacityRejected) {
  auto buf = GoodStream(EncodingType::kDictionary);
  HeaderView(&buf).SetU64(24, uint64_t{1} << 20);
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

TEST(CorruptStream, RleZeroFieldWidthRejected) {
  auto buf = GoodStream(EncodingType::kRunLength);
  buf[24] = 0;
  EXPECT_EQ(EncodedStream::Open(buf).status().code(), StatusCode::kIOError);
}

/// One database image on disk, written once. A probe overwrites a few
/// bytes in place (pwrite), opens the file the way every engine does — the
/// lazy, O(directory) open — reads every row of every column, and puts the
/// good bytes back, so a sweep of thousands of flips never rewrites the
/// whole file.
class ImageFile {
 public:
  ImageFile(const std::string& name, std::vector<uint8_t> good)
      : path_(::testing::TempDir() + "/" + name), good_(std::move(good)) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    EXPECT_GE(fd_, 0) << path_;
    Write(0, good_.data(), good_.size());
  }
  ~ImageFile() {
    ::close(fd_);
    std::remove(path_.c_str());
  }
  ImageFile(const ImageFile&) = delete;
  ImageFile& operator=(const ImageFile&) = delete;

  const std::string& path() const { return path_; }
  const std::vector<uint8_t>& good() const { return good_; }

  void Write(uint64_t pos, const uint8_t* bytes, size_t n) {
    ASSERT_EQ(::pwrite(fd_, bytes, n, static_cast<off_t>(pos)),
              static_cast<ssize_t>(n));
  }
  /// XORs `mask` into the byte at `pos`.
  void Flip(uint64_t pos, uint8_t mask) {
    const uint8_t b = good_[pos] ^ mask;
    Write(pos, &b, 1);
  }
  /// Puts the good bytes [pos, pos + n) back.
  void Restore(uint64_t pos, size_t n = 1) {
    Write(pos, good_.data() + pos, n);
  }
  /// Cuts the file to `size` bytes; Restore(size, good().size() - size)
  /// grows it back.
  void Truncate(uint64_t size) {
    ASSERT_EQ(::ftruncate(fd_, static_cast<off_t>(size)), 0);
  }

  /// Opens the current file lazily and reads every row of every column, a
  /// block at a time (a corrupt row count must not size an allocation).
  /// Returns the first failure (the open's or a read's); every failure must
  /// be a clean IOError, never a crash.
  Status OpenAndReadAll() const {
    auto cache = std::make_shared<pager::ColumnCache>(64ull << 20);
    TDE_ASSIGN_OR_RETURN(Database db, pager::OpenDatabaseV2(path_, cache));
    std::vector<Lane> lanes(1024);
    for (const auto& t : db.tables()) {
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const Column& col = t->column(c);
        for (uint64_t row = 0; row < col.rows(); row += lanes.size()) {
          const size_t n = static_cast<size_t>(
              std::min<uint64_t>(lanes.size(), col.rows() - row));
          TDE_RETURN_NOT_OK(col.GetLanes(row, n, lanes.data()));
        }
      }
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::vector<uint8_t> good_;
  int fd_ = -1;
};

/// Fails the test unless `st` is OK or an IOError.
void ExpectCleanFailure(const Status& st, const std::string& where) {
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kIOError) << where << ": "
                                               << st.ToString();
  }
}

/// Parametrized over the file format version: the sweeps must hold for the
/// paged, checksummed v2 layout and the segmented v3 directory extension
/// alike.
class CorruptDatabase : public ::testing::TestWithParam<int> {
 protected:
  std::vector<uint8_t> GoodDatabase() {
    Database db;
    auto t = std::make_shared<Table>("t");
    FlowTableOptions fopt;
    // v3: segment the columns (2000 rows / 400 = 5 segments each). v2 pins
    // a threshold above the row count so the fixture stays monolithic
    // whatever TDE_SEGMENT_ROWS the suite runs under.
    fopt.segment_rows = GetParam() == 3 ? 400 : 1 << 20;
    ColumnBuildInput in;
    in.name = "x";
    in.type = TypeId::kInteger;
    for (int i = 0; i < 2000; ++i) in.lanes.push_back(i % 10);
    t->AddColumn(BuildColumn(std::move(in), fopt).MoveValue());

    ColumnBuildInput sin;
    sin.name = "s";
    sin.type = TypeId::kString;
    sin.heap = std::make_shared<StringHeap>();
    HeapAccelerator acc(sin.heap.get());
    for (int i = 0; i < 2000; ++i) {
      sin.lanes.push_back(acc.Add("v" + std::to_string(i % 5)));
    }
    sin.accel_active = true;
    sin.accel_distinct = acc.distinct_count();
    sin.accel_arrived_sorted = acc.arrived_sorted();
    t->AddColumn(BuildColumn(std::move(sin), fopt).MoveValue());
    db.AddTable(t);
    // Small pages keep the sweep positions dense across real content.
    pager::WriteOptionsV2 opts;
    opts.page_size = 512;
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(pager::SerializeDatabaseV2(db, &bytes, opts).ok());
    return bytes;
  }

  std::string FileName(const char* sweep) const {
    return std::string("corrupt_") + sweep + "_v" +
           std::to_string(GetParam()) + ".tde";
  }
};

TEST_P(CorruptDatabase, TruncationAtManyOffsetsFailsCleanly) {
  ImageFile file(FileName("truncate"), GoodDatabase());
  const auto& good = file.good();
  ASSERT_TRUE(file.OpenAndReadAll().ok());
  for (size_t cut = 0; cut < good.size(); cut += good.size() / 37 + 1) {
    file.Truncate(cut);
    const Status st = file.OpenAndReadAll();
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
    ExpectCleanFailure(st, "cut at " + std::to_string(cut));
    file.Restore(cut, good.size() - cut);
  }
  EXPECT_TRUE(file.OpenAndReadAll().ok());
}

TEST_P(CorruptDatabase, BitFlipsInStreamHeadersFailCleanlyOrRoundTrip) {
  // Flip a byte at a sweep of positions; each must either fail cleanly or
  // produce a database whose every row still reads.
  ImageFile file(FileName("sparse"), GoodDatabase());
  const size_t size = file.good().size();
  for (size_t pos = 8; pos < size; pos += size / 53 + 1) {
    file.Flip(pos, 0x5A);
    ExpectCleanFailure(file.OpenAndReadAll(), "pos " + std::to_string(pos));
    file.Restore(pos);
  }
}

TEST_P(CorruptDatabase, DenseBitFlipsNearTheFrontFailCleanlyOrRoundTrip) {
  // The first kilobyte holds the format's most load-bearing bytes: the
  // entire file header and the first column's blob. Walk it exhaustively
  // with every single-bit flip.
  ImageFile file(FileName("dense"), GoodDatabase());
  const size_t limit = std::min<size_t>(file.good().size(), 1024);
  for (size_t pos = 0; pos < limit; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      file.Flip(pos, static_cast<uint8_t>(1u << bit));
      ExpectCleanFailure(file.OpenAndReadAll(),
                         "pos " + std::to_string(pos) + " bit " +
                             std::to_string(bit));
    }
    file.Restore(pos);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, CorruptDatabase, ::testing::Values(2, 3),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST(CorruptDatabaseV2, BlobCorruptionIsCaughtByChecksumOnFirstRead) {
  // v2 blob bytes are CRC-protected: any flip inside a column blob must be
  // rejected when the column materializes, naming the column it hit. The
  // open itself reads only the header and directory, so it succeeds.
  Database db;
  auto t = std::make_shared<Table>("t");
  ColumnBuildInput in;
  in.name = "x";
  in.type = TypeId::kInteger;
  for (int i = 0; i < 2000; ++i) in.lanes.push_back(i);
  FlowTableOptions fopt;
  fopt.segment_rows = 1 << 20;  // monolithic whatever TDE_SEGMENT_ROWS is
  t->AddColumn(BuildColumn(std::move(in), fopt).MoveValue());
  db.AddTable(t);
  pager::WriteOptionsV2 opts;
  opts.page_size = 512;
  std::vector<uint8_t> good;
  ASSERT_TRUE(pager::SerializeDatabaseV2(db, &good, opts).ok());

  // Flip a byte inside the actual stream blob of "t.x" (located through
  // the directory — page padding is not CRC-covered, blob bytes are).
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok());
  const pager::BlobRef& blob = dir.value().tables[0].columns[0].stream;
  ASSERT_GT(blob.length, 0u);
  ImageFile file("corrupt_blob_v2.tde", good);
  file.Flip(blob.offset + blob.length / 2, 0x01);
  const Status st = file.OpenAndReadAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("t.x"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------- v3 segment corruption

std::vector<uint8_t> GoodSegmentedV3() {
  Database db;
  auto t = std::make_shared<Table>("t");
  ColumnBuildInput in;
  in.name = "x";
  in.type = TypeId::kInteger;
  for (int i = 0; i < 2000; ++i) in.lanes.push_back(i);
  FlowTableOptions fopt;
  fopt.segment_rows = 400;
  auto col = BuildColumn(std::move(in), fopt);
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  t->AddColumn(col.MoveValue());
  db.AddTable(t);
  pager::WriteOptionsV2 opts;
  opts.page_size = 512;
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(pager::SerializeDatabaseV2(db, &bytes, opts).ok());
  return bytes;
}

TEST(CorruptDatabaseV3, SegmentBlobCorruptionCaughtByChecksum) {
  const auto good = GoodSegmentedV3();
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  EXPECT_EQ(dir.value().version, pager::kFormatVersion3);
  const auto& segs = dir.value().tables[0].columns[0].segments;
  ASSERT_EQ(segs.size(), 5u);
  ASSERT_GT(segs[2].blob.length, 0u);

  // Flip one byte in the middle of segment 2's blob: reading the column
  // must fail when segment 2 faults in, naming the column.
  ImageFile file("corrupt_segment_v3.tde", good);
  file.Flip(segs[2].blob.offset + segs[2].blob.length / 2, 0x01);
  const Status st = file.OpenAndReadAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("t.x"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(CorruptDatabaseV3, CorruptSegmentLeavesSiblingSegmentsReadable) {
  const auto good = GoodSegmentedV3();
  const auto dir = pager::ParseDirectoryV2(good);
  ASSERT_TRUE(dir.ok());
  const auto& segs = dir.value().tables[0].columns[0].segments;
  ASSERT_EQ(segs.size(), 5u);
  ImageFile file("corrupt_sibling_v3.tde", good);
  file.Flip(segs[2].blob.offset + segs[2].blob.length / 2, 0x01);

  // A segment faults in only when touched: rows in the corrupt segment
  // fail with a clean Status, rows in its siblings keep answering
  // correctly.
  auto cache = std::make_shared<pager::ColumnCache>(64ull << 20);
  auto db = pager::OpenDatabaseV2(file.path(), cache);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto col = db.value().GetTable("t").value()->ColumnByName("x").value();

  std::vector<Lane> lanes(64);
  ASSERT_TRUE(col->GetLanes(0, 64, lanes.data()).ok());      // segment 0
  EXPECT_EQ(lanes[63], 63);
  ASSERT_TRUE(col->GetLanes(1700, 64, lanes.data()).ok());   // segment 4
  EXPECT_EQ(lanes[0], 1700);
  const Status corrupt = col->GetLanes(900, 64, lanes.data());  // segment 2
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kIOError);
  // The siblings stay readable afterwards too.
  EXPECT_TRUE(col->GetLanes(400, 64, lanes.data()).ok());    // segment 1
}

TEST(CorruptDatabaseV3, DirectoryFlipsWithFixedCrcsFailCleanlyOrRoundTrip) {
  // Byte flips inside the segment directory with the directory and header
  // CRCs recomputed: this drives the structural validation itself —
  // truncated segment tables, segment row-count overflows, dangling blob
  // refs — rather than the checksum. Every flip must either be rejected
  // with a Status or produce a database whose every row reads.
  ImageFile file("corrupt_directory_v3.tde", GoodSegmentedV3());
  std::vector<uint8_t> bad = file.good();
  auto u64 = [](const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  };
  const uint64_t dir_offset = u64(bad.data() + 16);
  const uint64_t dir_length = u64(bad.data() + 24);
  ASSERT_EQ(dir_offset + dir_length, bad.size());

  for (uint64_t pos = dir_offset; pos < dir_offset + dir_length; ++pos) {
    bad[pos] ^= 0x5A;
    const uint32_t dir_crc =
        pager::Crc32c(bad.data() + dir_offset, dir_length);
    std::memcpy(bad.data() + 32, &dir_crc, 4);
    const uint32_t header_crc = pager::Crc32c(bad.data(), 56);
    std::memcpy(bad.data() + 56, &header_crc, 4);
    file.Write(pos, bad.data() + pos, 1);
    file.Write(32, bad.data() + 32, 4);
    file.Write(56, bad.data() + 56, 4);

    ExpectCleanFailure(file.OpenAndReadAll(), "pos " + std::to_string(pos));

    bad[pos] ^= 0x5A;
    file.Restore(pos);
    file.Restore(32, 4);
    file.Restore(56, 4);
  }
}

TEST(CorruptText, RandomGarbageImportsOrFailsCleanly) {
  // TextScan + inference over arbitrary bytes: any Status is acceptable,
  // crashing is not; a successful import must be walkable.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data;
    const size_t len = rng() % 400;
    for (size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<char>(rng() % 256));
    }
    auto scan = TextScan::FromBuffer(data);
    if (!scan->Open().ok()) continue;
    std::vector<Block> blocks;
    (void)DrainOperator(scan.get(), &blocks);
  }
}

TEST(CorruptText, MisalignedRowsSurvive) {
  auto scan = TextScan::FromBuffer(
      "a,b,c\n1,2,3\n4,5\n6,7,8,9,10\n,,\n");
  ASSERT_TRUE(scan->Open().ok());
  std::vector<Block> blocks;
  ASSERT_TRUE(DrainOperator(scan.get(), &blocks).ok());
  uint64_t rows = 0;
  for (const Block& b : blocks) rows += b.rows();
  EXPECT_EQ(rows, 4u);
}

}  // namespace
}  // namespace tde
