// Concurrent-query stress harness: many threads firing a mixed SQL
// workload (metadata counts, compressed filters, dict-grouped rollups,
// joins, exchange-wrapped plans) at ONE engine sharing ONE task-scheduler
// pool, with every answer checked against the single-threaded result.
// A second leg interleaves AppendRows with readers and asserts that no
// reader ever observes a torn batch.
//
// Tier-1 runs a bounded number of iterations; set TDE_STRESS_ITERS (and
// optionally TDE_STRESS_THREADS) for extended soak runs, e.g.
//   TDE_STRESS_ITERS=200 TDE_STRESS_THREADS=8 ./concurrency_test

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/encoding/stream.h"
#include "src/exec/scheduler.h"
#include "tests/test_util.h"

namespace tde {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

int StressIters() { return EnvInt("TDE_STRESS_ITERS", 3); }
int StressThreads() { return EnvInt("TDE_STRESS_THREADS", 4); }

/// fact: fk (joins into dim.dk), v (numeric payload), s (low-cardinality
/// string, dictionary-encodes) — the shape the SQL generator uses.
std::string FactCsv(int rows) {
  static const char* kColors[] = {"red", "green", "blue", "teal"};
  std::string csv = "fk,v,s\n";
  for (int i = 0; i < rows; ++i) {
    csv += std::to_string(i % 20) + "," + std::to_string(i % 97) + "," +
           kColors[i % 4] + "\n";
  }
  return csv;
}

std::string DimCsv() {
  std::string csv = "dk,name\n";
  for (int i = 0; i < 20; ++i) {
    csv += std::to_string(i) + ",node" + std::to_string(i % 7) + "\n";
  }
  return csv;
}

TEST(ConcurrentQueries, MixedWorkloadMatchesSingleThreadedAnswers) {
  Engine engine;
  ImportOptions import;
  import.text.parallel = true;  // imports also ride the shared pool
  ASSERT_TRUE(engine.ImportTextBuffer(FactCsv(3000), "fact", import).ok());
  ASSERT_TRUE(engine.ImportTextBuffer(DimCsv(), "dim", import).ok());

  // Every query is fully ordered (or single-row) so rendered CSV is a
  // deterministic fingerprint of the answer.
  const std::vector<std::string> queries = {
      "SELECT COUNT(*) AS n FROM fact",
      "SELECT fk, SUM(v) AS sv FROM fact GROUP BY fk ORDER BY fk",
      "SELECT s, COUNT(*) AS n FROM fact GROUP BY s ORDER BY s",
      "SELECT SUM(v) AS sv FROM fact WHERE s = 'blue'",
      "SELECT fk, v FROM fact WHERE v < 9 ORDER BY fk, v LIMIT 50",
      "SELECT name, SUM(v) AS total FROM fact JOIN dim ON dim.dk = fk "
      "GROUP BY name ORDER BY name",
  };

  // Single-threaded reference answers, computed before any concurrency.
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    auto r = engine.ExecuteSql(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    expected.push_back(r.value().ToCsv());
  }

  const int iters = StressIters();
  const Status st = testutil::RunConcurrently(
      StressThreads(), [&](int t) -> Status {
        for (int iter = 0; iter < iters; ++iter) {
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            // Rotate the starting query per thread/iteration so different
            // query shapes overlap instead of running in lockstep.
            const size_t q =
                (qi + static_cast<size_t>(t) + static_cast<size_t>(iter)) %
                queries.size();
            auto r = engine.ExecuteSql(queries[q]);
            if (!r.ok()) {
              return Status::Internal(queries[q] + ": " +
                                      r.status().ToString());
            }
            if (r.value().ToCsv() != expected[q]) {
              return Status::Internal(queries[q] +
                                      ": answer drifted under concurrency");
            }
          }
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(ConcurrentQueries, ExchangeWrappedPlansShareThePool) {
  Engine engine;
  auto fact = engine.ImportTextBuffer(FactCsv(3000), "fact");
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();
  std::shared_ptr<Table> table = fact.value();

  // Reference: total v over rows the compressed filter keeps.
  auto make_plan = [&]() {
    return Plan::Scan(table)
        .Filter(expr::Lt(expr::Col("v"), expr::Int(50)))
        .ExchangeBy(/*workers=*/0)  // auto: scheduler-suggested fan-out
        .Aggregate({}, {{AggKind::kSum, "v", "total"}});
  };
  auto ref = engine.Execute(make_plan());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string want = ref.value().ToCsv();

  const int iters = StressIters();
  const Status st = testutil::RunConcurrently(
      StressThreads(), [&](int) -> Status {
        for (int iter = 0; iter < iters * 2; ++iter) {
          auto r = engine.Execute(make_plan());
          if (!r.ok()) return r.status();
          if (r.value().ToCsv() != want) {
            return Status::Internal("exchange-wrapped sum drifted");
          }
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(ConcurrentQueries, AppendsNeverTearForConcurrentReaders) {
  Engine engine;
  const int kBatchRows = 256;

  // Batch 0 arrives via import: a=0 for every row.
  std::string csv = "a,b\n";
  for (int i = 0; i < kBatchRows; ++i) {
    csv += "0," + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(engine.ImportTextBuffer(std::move(csv), "grow").ok());

  const int appends = 4 * StressIters();
  std::atomic<bool> writer_done{false};

  // Thread 0 appends batch k (a=k throughout); readers must always see a
  // whole number of batches with the matching prefix checksum — the
  // engine's append/query exclusion makes half-applied appends invisible.
  const Status st = testutil::RunConcurrently(
      1 + StressThreads(), [&](int t) -> Status {
        if (t == 0) {
          for (int k = 1; k <= appends; ++k) {
            Block rows;
            for (int c = 0; c < 2; ++c) {
              ColumnVector cv;
              cv.type = TypeId::kInteger;
              for (int i = 0; i < kBatchRows; ++i) {
                cv.lanes.push_back(c == 0 ? Lane{k} : Lane{i});
              }
              rows.columns.push_back(std::move(cv));
            }
            auto n = engine.AppendRows("grow", rows);
            if (!n.ok()) {
              writer_done.store(true);
              return n.status();
            }
            // Give the readers a window between batches so intermediate
            // row counts are actually observed, not just the final one.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          writer_done.store(true);
          return Status::OK();
        }
        auto check_snapshot = [&]() -> Status {
          auto r = engine.ExecuteSql(
              "SELECT COUNT(*) AS c, SUM(a) AS sa FROM grow");
          if (!r.ok()) return r.status();
          const int64_t count = r.value().Value(0, 0);
          const int64_t sum = r.value().Value(0, 1);
          if (count % kBatchRows != 0) {
            return Status::Internal("torn append: count " +
                                    std::to_string(count));
          }
          const int64_t k = count / kBatchRows - 1;  // appended batches
          const int64_t want = kBatchRows * (k * (k + 1) / 2);
          if (sum != want) {
            return Status::Internal(
                "inconsistent snapshot at " + std::to_string(k) +
                " batches: SUM(a)=" + std::to_string(sum) + " want " +
                std::to_string(want));
          }
          return Status::OK();
        };
        while (!writer_done.load()) {
          TDE_RETURN_NOT_OK(check_snapshot());
          // Pace the readers: back-to-back shared locks from several
          // threads overlap continuously and starve the writer's
          // exclusive acquisition on reader-preferring rwlocks.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        // One read after the writer finished: everything must be visible.
        auto r = engine.ExecuteSql("SELECT COUNT(*) AS c FROM grow");
        if (!r.ok()) return r.status();
        const int64_t final_count = r.value().Value(0, 0);
        if (final_count != int64_t{kBatchRows} * (appends + 1)) {
          return Status::Internal("final count " +
                                  std::to_string(final_count));
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(ConcurrentReads, RunLengthColumnSharesNoCursor) {
  // One run-length stream read by several threads at once, each walking
  // forward and backward windows in turn: every read positions itself
  // from the stream's fixed checkpoints, so reads never disturb each
  // other and always match the single-threaded read.
  std::vector<Lane> v;
  for (int run = 0; run < 3000; ++run) {
    v.insert(v.end(), 1 + run % 17, static_cast<Lane>((run * 7919) % 101));
  }
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto created = EncodedStream::Create(EncodingType::kRunLength, 8,
                                       /*sign_extend=*/true, stats, 0);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<EncodedStream> s = created.MoveValue();
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  std::vector<Lane> expected(v.size());
  ASSERT_TRUE(s->Get(0, expected.size(), expected.data()).ok());
  ASSERT_EQ(expected, v);

  const uint64_t n = v.size();
  const Status st = testutil::RunConcurrently(
      StressThreads(), [&](int t) -> Status {
        std::vector<Lane> out(300);
        for (uint64_t step = 0; step < 400; ++step) {
          const uint64_t width = 1 + (step * 13 + t) % out.size();
          const uint64_t fwd = (step * 211 + t * 37) % (n - width);
          const uint64_t back = n - width - (step * 97 + t * 53) % (n - width);
          for (const uint64_t start : {fwd, back}) {
            TDE_RETURN_NOT_OK(s->Get(start, width, out.data()));
            for (uint64_t i = 0; i < width; ++i) {
              if (out[i] != expected[start + i]) {
                return Status::Internal("row " + std::to_string(start + i) +
                                        " read differently");
              }
            }
          }
        }
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace tde
