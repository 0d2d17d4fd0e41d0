// Query throughput on the imported TPC-H tables: the five queries the
// engine's analytic subset expresses (Q1, Q3, Q4-lite, Q6, Q12), run
// through the SQL frontend and the full strategic/tactical optimizer.
// Not a paper figure — a downstream-user sanity benchmark over the whole
// stack (import, encodings, joins, aggregation).
//
// Each query runs once to warm up and then kRuns times; the table shows
// the fastest and the median run. With --json (or TDE_BENCH_JSON=1),
// archives per-query timings, the median TableScan and Filter self time,
// and the per-operator runtime profile as BENCH_tpch.json, plus one gate
// row per query for ci/check_bench.sh: {"name":"tpch <id>", "ms": the total
// of the timed runs, "groups": the result's row count}.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/observe/query_stats.h"
#include "src/workload/tpch_queries.h"

namespace {

/// Adds the self time of every TableScan and Filter node under `node`.
void SelfNs(const tde::observe::OperatorStats& node, double* scan_ns,
            double* filter_ns) {
  if (node.name.rfind("TableScan", 0) == 0) *scan_ns += node.self_ns();
  if (node.name.rfind("Filter", 0) == 0) *filter_ns += node.self_ns();
  for (const auto& child : node.children) SelfNs(*child, scan_ns, filter_ns);
}

}  // namespace

int main(int argc, char** argv) {
  tde::bench::JsonReport report("tpch", argc, argv);
  tde::bench::PrintHeader("TPC-H query suite over the SQL frontend");
  const double sf = tde::bench::ScaleFactor();
  std::printf("TDE_SF=%g\n", sf);
  tde::Engine engine;
  double import_secs = 0;
  {
    tde::bench::Timer t;
    const tde::Status st = tde::LoadTpchTables(&engine, sf);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    import_secs = t.Seconds();
    std::printf("import (lineitem, orders, customer): %.2fs\n", import_secs);
  }
  if (report.enabled()) {
    // The import telemetry rides along with the query records.
    for (const tde::observe::ImportStats& s : engine.import_stats()) {
      report.Add(s.ToJson());
    }
    char rec[128];
    std::snprintf(rec, sizeof(rec),
                  "{\"phase\":\"import\",\"sf\":%g,\"seconds\":%.4f}", sf,
                  import_secs);
    report.Add(rec);
  }
  std::printf("%-8s %-42s %10s %10s %8s\n", "query", "title", "min",
              "median", "rows");
  constexpr int kRuns = 9;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (const tde::TpchQuery& q : tde::TpchQueries()) {
    std::vector<double> secs, scan_ms, filter_ms;
    uint64_t rows = 0;
    std::string operators = "null";
    for (int i = 0; i <= kRuns; ++i) {  // run 0 warms up
      tde::bench::Timer t;
      auto r = engine.ExecuteSql(q.sql);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", q.id,
                     r.status().ToString().c_str());
        return 1;
      }
      const double elapsed = t.Seconds();
      if (i == 0) continue;
      secs.push_back(elapsed);
      rows = r.value().num_rows();
      double scan_ns = 0, filter_ns = 0;
      if (const tde::observe::QueryStats* st = r.value().stats()) {
        operators = st->ToJson();
        if (st->root != nullptr) SelfNs(*st->root, &scan_ns, &filter_ns);
      }
      scan_ms.push_back(scan_ns / 1e6);
      filter_ms.push_back(filter_ns / 1e6);
    }
    const double min_s = *std::min_element(secs.begin(), secs.end());
    const double median_s = median(secs);
    std::printf("%-8s %-42s %9.4fs %9.4fs %8llu\n", q.id, q.title, min_s,
                median_s, static_cast<unsigned long long>(rows));
    if (report.enabled()) {
      char head[320];
      std::snprintf(head, sizeof(head),
                    "{\"query\":\"%s\",\"seconds\":%.6f,"
                    "\"min_seconds\":%.6f,\"runs\":%d,\"rows\":%llu,"
                    "\"scan_self_ms\":%.3f,\"filter_self_ms\":%.3f,"
                    "\"operators\":",
                    q.id, median_s, min_s, kRuns,
                    static_cast<unsigned long long>(rows), median(scan_ms),
                    median(filter_ms));
      report.Add(std::string(head) + operators + "}");
      double total_s = 0;
      for (const double x : secs) total_s += x;
      char gate[160];
      std::snprintf(gate, sizeof(gate),
                    "{\"name\":\"tpch %s\",\"ms\":%.4f,\"groups\":%llu}",
                    q.id, total_s * 1e3,
                    static_cast<unsigned long long>(rows));
      report.Add(gate);
    }
  }
  return 0;
}
