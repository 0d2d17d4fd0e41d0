#include "src/observe/journal.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/observe/json.h"
#include "src/observe/metrics.h"
#include "src/plan/executor.h"
#include "src/workload/tpch.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using observe::QueryCounter;
using observe::QueryJournal;
using observe::QueryJournalEntry;
using observe::StatsScope;

uint64_t GlobalCounterValue(QueryCounter c) {
  return observe::MetricsRegistry::Global()
      .GetCounter(observe::QueryCounterMetricName(c))
      ->value();
}

TEST(Journal, RingEvictsOldestPastCapacity) {
  QueryJournal j(/*capacity=*/3);
  for (uint64_t i = 1; i <= 5; ++i) {
    QueryJournalEntry e;
    e.id = j.NextId();
    e.rows_out = i;
    j.Record(std::move(e));
  }
  EXPECT_EQ(j.size(), 3u);
  const auto snap = j.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Oldest first, the two earliest entries evicted.
  EXPECT_EQ(snap[0].id, 3u);
  EXPECT_EQ(snap[2].id, 5u);
  j.Clear();
  EXPECT_EQ(j.size(), 0u);
  // Ids are never reused after a clear.
  EXPECT_GT(j.NextId(), 5u);
}

TEST(Journal, QueryCountFeedsScopeAndGlobal) {
  observe::SetStatsEnabled(true);
  const uint64_t before = GlobalCounterValue(QueryCounter::kRowsPruned);
  {
    StatsScope scope;
    observe::QueryCount(QueryCounter::kRowsPruned, 7);
    EXPECT_EQ(scope.value(QueryCounter::kRowsPruned), 7u);
    // Nested scope shadows the outer one.
    {
      StatsScope inner;
      observe::QueryCount(QueryCounter::kRowsPruned, 2);
      EXPECT_EQ(inner.value(QueryCounter::kRowsPruned), 2u);
    }
    EXPECT_EQ(scope.value(QueryCounter::kRowsPruned), 7u);
  }
  EXPECT_EQ(GlobalCounterValue(QueryCounter::kRowsPruned), before + 9);
  // Outside any scope the global still advances.
  observe::QueryCount(QueryCounter::kRowsPruned, 1);
  EXPECT_EQ(GlobalCounterValue(QueryCounter::kRowsPruned), before + 10);
}

TEST(Journal, QueryCountDisabledIsNoOp) {
  observe::SetStatsEnabled(false);
  const uint64_t before = GlobalCounterValue(QueryCounter::kCacheHits);
  StatsScope scope;
  observe::QueryCount(QueryCounter::kCacheHits, 5);
  observe::SetStatsEnabled(true);
  EXPECT_EQ(GlobalCounterValue(QueryCounter::kCacheHits), before);
  EXPECT_EQ(scope.value(QueryCounter::kCacheHits), 0u);
}

TEST(Journal, BindAdoptsScopeOnWorkerThreads) {
  observe::SetStatsEnabled(true);
  StatsScope scope;
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&scope]() {
      StatsScope::Bind bind(&scope);
      for (int i = 0; i < 1000; ++i) {
        observe::QueryCount(QueryCounter::kRunsFolded, 1);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(scope.value(QueryCounter::kRunsFolded), 4000u);
  // Null scope is a no-op bind (workers outside any query).
  std::thread([&]() {
    StatsScope::Bind bind(nullptr);
    observe::QueryCount(QueryCounter::kRunsFolded, 1);
  }).join();
  EXPECT_EQ(scope.value(QueryCounter::kRunsFolded), 4000u);
}

TEST(Journal, ExecuteSqlRecordsEntries) {
  observe::SetStatsEnabled(true);
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kLineitem, 0.002), "lineitem", {});
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  QueryJournal& journal = QueryJournal::Global();
  journal.Clear();
  const std::string q =
      "SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
      "WHERE l_quantity > 10 GROUP BY l_returnflag";
  auto r = engine.ExecuteSql(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  ASSERT_EQ(journal.size(), 1u);
  const QueryJournalEntry e = journal.Snapshot()[0];
  EXPECT_EQ(e.sql, q);
  EXPECT_TRUE(e.ok);
  EXPECT_EQ(e.rows_out, r.value().num_rows());
  EXPECT_GT(e.wall_ns, 0u);
  EXPECT_NE(e.plan_fingerprint, 0u);
  // The scan traversed stored bytes and decoded them.
  EXPECT_GT(e.counters[static_cast<size_t>(
                QueryCounter::kBytesScannedCompressed)],
            0u);
  EXPECT_GT(
      e.counters[static_cast<size_t>(QueryCounter::kBytesScannedDecoded)],
      0u);
  // Compressed-domain execution moves fewer bytes than it stands for.
  EXPECT_LT(e.counters[static_cast<size_t>(
                QueryCounter::kBytesScannedCompressed)],
            e.counters[static_cast<size_t>(
                QueryCounter::kBytesScannedDecoded)]);

  // Same statement, same plan shape -> same fingerprint; different
  // statement -> different fingerprint.
  ASSERT_TRUE(engine.ExecuteSql(q).ok());
  auto other = engine.ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  const auto snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].plan_fingerprint, snap[1].plan_fingerprint);
  EXPECT_NE(snap[0].plan_fingerprint, snap[2].plan_fingerprint);
  EXPECT_GT(snap[1].id, snap[0].id);
}

TEST(Journal, ExplainAnalyzePrintsJournalId) {
  observe::SetStatsEnabled(true);
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kNation, 1.0), "nation", {});
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  auto analyzed =
      engine.ExecuteSql("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM nation");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const uint64_t last = observe::LastJournalIdOnThread();
  ASSERT_GT(last, 0u);
  bool saw_id = false;
  for (uint64_t r = 0; r < analyzed.value().num_rows(); ++r) {
    if (analyzed.value().ValueString(r, 0).find(
            "journal query id: " + std::to_string(last)) !=
        std::string::npos) {
      saw_id = true;
    }
  }
  EXPECT_TRUE(saw_id);
  // The id resolves to the journal entry for the analyzed statement.
  bool found = false;
  for (const QueryJournalEntry& e : QueryJournal::Global().Snapshot()) {
    if (e.id == last) {
      found = true;
      EXPECT_NE(e.sql.find("FROM nation"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Journal, TdeQueriesVirtualTable) {
  observe::SetStatsEnabled(true);
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kNation, 1.0), "nation", {});
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  QueryJournal::Global().Clear();
  ASSERT_TRUE(engine.ExecuteSql("SELECT COUNT(*) AS n FROM nation").ok());
  auto rows = engine.ExecuteSql(
      "SELECT id, rows_out, ok FROM tde_queries WHERE ok = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().num_rows(), 1u);
  EXPECT_GT(rows.value().Value(0, 0), 0);
  EXPECT_EQ(rows.value().Value(0, 1), 1);  // COUNT(*) returns one row
  EXPECT_EQ(rows.value().Value(0, 2), 1);
}

/// The acceptance criterion of the journal design: per-query deltas sum
/// exactly to the global counter movement, including under concurrent
/// queries, because every increment lands in exactly one scope.
TEST(Journal, DeltasSumToGlobalsAcrossConcurrentQueries) {
  observe::SetStatsEnabled(true);
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kLineitem, 0.005), "lineitem", {});
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  QueryJournal& journal = QueryJournal::Global();
  journal.Clear();
  journal.set_capacity(QueryJournal::kDefaultCapacity);

  std::array<uint64_t, observe::kNumQueryCounters> before{};
  for (int i = 0; i < observe::kNumQueryCounters; ++i) {
    before[static_cast<size_t>(i)] =
        GlobalCounterValue(static_cast<QueryCounter>(i));
  }

  const std::vector<std::string> queries = {
      "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY "
      "l_returnflag",
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > 25",
      "SELECT l_linestatus, SUM(l_quantity) AS s FROM lineitem GROUP BY "
      "l_linestatus",
      "SELECT MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem",
  };
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  const Status st = testutil::RunConcurrently(kThreads, [&](int t) -> Status {
    for (int i = 0; i < kPerThread; ++i) {
      auto r = engine.ExecuteSql(
          queries[static_cast<size_t>(t + i) % queries.size()]);
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  const auto snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), static_cast<size_t>(kThreads * kPerThread));
  for (int i = 0; i < observe::kNumQueryCounters; ++i) {
    const auto c = static_cast<QueryCounter>(i);
    uint64_t summed = 0;
    for (const QueryJournalEntry& e : snap) {
      summed += e.counters[static_cast<size_t>(i)];
    }
    EXPECT_EQ(GlobalCounterValue(c) - before[static_cast<size_t>(i)], summed)
        << observe::QueryCounterMetricName(c);
  }
  // The workload actually exercised the compressed-domain counters.
  uint64_t scanned = 0;
  for (const QueryJournalEntry& e : snap) {
    scanned += e.counters[static_cast<size_t>(
        QueryCounter::kBytesScannedCompressed)];
  }
  EXPECT_GT(scanned, 0u);
}

/// Acceptance check for the compressed-domain sort counters: a Top-N over
/// a segmented table materializes far fewer rows than it scans and skips
/// the segments whose zone maps cannot beat the heap, dictionary keys
/// compare in the integer domain, and a single-key sort over a
/// run-length column orders runs instead of rows. All of it must surface
/// in the journal and in EXPLAIN ANALYZE.
TEST(Journal, SortCountersFlowToJournalAndExplain) {
  observe::SetStatsEnabled(true);
  Engine engine;
  ImportOptions opts;
  opts.flow.segment_rows = 512;
  // k ascending -> disjoint per-segment zones; s low-cardinality strings;
  // r in non-monotone runs of 256 rows.
  const char* words[] = {"walnut", "elm", "cedar", "ash"};
  std::string csv = "k,s,r\n";
  for (int i = 0; i < 4096; ++i) {
    csv += std::to_string(i) + "," + words[i % 4] + "," +
           std::to_string((i / 256) * 3 % 7) + "\n";
  }
  auto imported = engine.ImportTextBuffer(csv, "seq", opts);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  QueryJournal& journal = QueryJournal::Global();
  const auto counter = [](const QueryJournalEntry& e, QueryCounter c) {
    return e.counters[static_cast<size_t>(c)];
  };

  // Top-N over the segmented scan: the first segment already holds the
  // 100 smallest keys, so every other segment's minimum loses against the
  // full heap and is skipped unopened.
  journal.Clear();
  auto topn = engine.ExecuteSql("SELECT * FROM seq ORDER BY k LIMIT 100");
  ASSERT_TRUE(topn.ok()) << topn.status().ToString();
  ASSERT_EQ(topn.value().num_rows(), 100u);
  EXPECT_EQ(topn.value().Value(0, 0), 0);
  EXPECT_EQ(topn.value().Value(99, 0), 99);
  ASSERT_EQ(journal.size(), 1u);
  {
    const QueryJournalEntry e = journal.Snapshot()[0];
    const uint64_t kept = counter(e, QueryCounter::kRowsMaterialized);
    EXPECT_GE(kept, 100u);
    EXPECT_LT(kept, 4096u / 4);  // the bound: k rows + heap churn, not n
    EXPECT_EQ(counter(e, QueryCounter::kTopNSegmentsSkipped), 7u);
  }
  // The same numbers annotate the TopN node in EXPLAIN ANALYZE.
  auto analyzed = engine.ExecuteSql(
      "EXPLAIN ANALYZE SELECT * FROM seq ORDER BY k LIMIT 100");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string tree;
  for (uint64_t r = 0; r < analyzed.value().num_rows(); ++r) {
    tree += analyzed.value().ValueString(r, 0) + "\n";
  }
  EXPECT_NE(tree.find("rows_materialized"), std::string::npos) << tree;
  EXPECT_NE(tree.find("segments_skipped=7"), std::string::npos) << tree;
  // The scan shows under the TopN, with the rows of the one segment read.
  const size_t topn_at = tree.find("TopN(");
  const size_t scan_at = tree.find("  TableScan(seq)  rows=512 ");
  EXPECT_NE(topn_at, std::string::npos) << tree;
  EXPECT_NE(scan_at, std::string::npos) << tree;
  EXPECT_LT(topn_at, scan_at) << tree;

  // Dictionary-coded sort keys: a string first key compares as integers.
  journal.Clear();
  auto dict = engine.ExecuteSql("SELECT * FROM seq ORDER BY s, k LIMIT 3");
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  ASSERT_EQ(dict.value().num_rows(), 3u);
  EXPECT_EQ(dict.value().ValueString(0, 1), "ash");
  EXPECT_EQ(dict.value().Value(0, 0), 3);  // lowest k among the ash rows
  EXPECT_EQ(dict.value().Value(1, 0), 7);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_GE(counter(journal.Snapshot()[0], QueryCounter::kDictKeySorts), 1u);

  // Run-aware ordering: ORDER BY on a run-length column sorts the run
  // index, never the rows. 4096 rows in 16 runs -> 16 runs ordered.
  Engine mono;  // monolithic layout so the run directory spans the table
  auto imported2 = mono.ImportTextBuffer(csv, "seq", {});
  ASSERT_TRUE(imported2.ok()) << imported2.status().ToString();
  journal.Clear();
  auto runs = mono.ExecuteSql("SELECT * FROM seq ORDER BY r");
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  ASSERT_EQ(runs.value().num_rows(), 4096u);
  EXPECT_EQ(runs.value().Value(0, 2), 0);
  EXPECT_EQ(runs.value().Value(4095, 2), 6);
  ASSERT_EQ(journal.size(), 1u);
  {
    const QueryJournalEntry e = journal.Snapshot()[0];
    EXPECT_EQ(counter(e, QueryCounter::kRunsSorted), 16u);
    EXPECT_EQ(counter(e, QueryCounter::kRowsMaterialized), 0u);
  }
}

TEST(Journal, SlowQueryLineOnThreshold) {
  observe::SetStatsEnabled(true);
  const int64_t saved = QueryJournal::SlowQueryThresholdMs();
  QueryJournal::SetSlowQueryThresholdMs(0);  // everything is slow
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kNation, 1.0), "nation", {});
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  testing::internal::CaptureStderr();
  // The predicate defeats the metadata-answer shortcut, so the query
  // actually scans bytes and the line carries the scan counters (zero
  // counters are elided from the breakdown).
  ASSERT_TRUE(
      engine.ExecuteSql(
                "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey > 3")
          .ok());
  const std::string err = testing::internal::GetCapturedStderr();
  QueryJournal::SetSlowQueryThresholdMs(saved);
  EXPECT_NE(err.find("[tde] slow query id="), std::string::npos) << err;
  EXPECT_NE(err.find("sql=SELECT COUNT(*) AS n FROM nation"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("bytes_scanned_compressed="), std::string::npos) << err;
  // Threshold -1 disables the line.
  QueryJournal::SetSlowQueryThresholdMs(-1);
  testing::internal::CaptureStderr();
  ASSERT_TRUE(
      engine.ExecuteSql("SELECT COUNT(*) AS n FROM nation").ok());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  QueryJournal::SetSlowQueryThresholdMs(saved);
}

TEST(Journal, NdjsonEscapesSqlText) {
  QueryJournal j(4);
  QueryJournalEntry e;
  e.id = j.NextId();
  e.sql = "SELECT \"x\"\nFROM t\twhere c = '\x01'";
  e.plan_fingerprint = 0xabcdef;
  j.Record(std::move(e));
  const std::string ndjson = j.ToNdjson();
  EXPECT_NE(ndjson.find("\\\"x\\\""), std::string::npos) << ndjson;
  EXPECT_NE(ndjson.find("\\n"), std::string::npos);
  EXPECT_NE(ndjson.find("\\t"), std::string::npos);
  EXPECT_NE(ndjson.find("\\u0001"), std::string::npos);
  EXPECT_NE(ndjson.find("\"fingerprint\":\"0000000000abcdef\""),
            std::string::npos)
      << ndjson;
  // One line per entry, and no raw control characters survive.
  EXPECT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'), 1);
  for (char c : ndjson) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(Journal, StatsOffExecutesWithoutRecording) {
  observe::SetStatsEnabled(false);
  Engine engine;
  auto imported = engine.ImportTextBuffer(
      GenerateTpchTable(TpchTable::kNation, 1.0), "nation", {});
  if (!imported.ok()) {
    observe::SetStatsEnabled(true);
    FAIL() << imported.status().ToString();
  }
  QueryJournal::Global().Clear();
  auto r = engine.ExecuteSql("SELECT COUNT(*) AS n FROM nation");
  const size_t recorded = QueryJournal::Global().size();
  observe::SetStatsEnabled(true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(recorded, 0u);
}

}  // namespace
}  // namespace tde
