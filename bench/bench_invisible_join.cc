// Sect. 4.1 / 4.1.2 reproduction: the invisible join through the engine,
// with the rewrite on and off (StrategicOptions::enable_invisible_join).
// The rewrite evaluates a pushed predicate or computation once per
// dictionary entry (a code map) and each row looks its answer up by code.
// Four shapes:
//   string     string equality on a low-cardinality column of a segmented
//              Flights table (origin = 'ADH' GROUP BY dest);
//   string_in  the same statement over two airports whose codes are not
//              adjacent (origin IN ('ADH', 'BDH'), noted "not one
//              interval"): each row takes the bitmap test, on codes with
//              the rewrite on and on heap tokens with it off;
//   date       a range over a date column compressed into a sorted array
//              dictionary: the passing codes form one interval, the dense
//              key range the paper's fetch join exploits;
//   extension  EXTENSION(url) ... GROUP BY ext, the computation pushdown.
//
// Each statement runs once to warm up and then kRuns times. With --json
// (or TDE_BENCH_JSON=1) it writes one gate row per shape and setting to
// BENCH_invisible_join.json for ci/check_bench.sh: {"name":
// "invisible_join <shape> on|off", "ms": the total of the timed runs,
// "groups": the result's row count}. TDE_FLIGHTS_ROWS sizes the three
// tables (default 2M rows each).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/workload/flights.h"

namespace tde {
namespace {

constexpr int kRuns = 9;

uint64_t Rows() {
  const char* e = std::getenv("TDE_FLIGHTS_ROWS");
  return e != nullptr ? static_cast<uint64_t>(std::atoll(e)) : 2000000;
}

void Check(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
}

/// Two years of dates (rows / 730 per day) and a measure; the date column
/// becomes a sorted array dictionary.
void LoadDates(Engine* engine, uint64_t rows) {
  std::string csv = "d,v\n";
  csv.reserve(rows * 16);
  const int64_t start = DaysFromCivil(2012, 1, 1);
  const uint64_t per_day = std::max<uint64_t>(1, rows / 730);
  for (uint64_t i = 0; i < rows; ++i) {
    csv += FormatLane(TypeId::kDate,
                      start + static_cast<int64_t>(i / per_day % 730));
    csv += ",";
    csv += std::to_string(i % 1000);
    csv += "\n";
  }
  auto t = engine->ImportTextBuffer(csv, "dates");
  Check(t.status());
  Check(AlterColumnToDictionary(
      t.value()->ColumnByName("d").value().get()));
}

/// A web log: many rows, few distinct URLs.
void LoadWeblog(Engine* engine, uint64_t rows) {
  const char* urls[] = {
      "/index.html",      "/logo.png",      "/app.js",
      "/styles/site.css", "/api/data.json", "/docs/guide.pdf",
      "/img/banner.jpg",  "/favicon.ico",   "/search.html",
      "/video/intro.mp4",
  };
  std::string csv = "url,bytes\n";
  csv.reserve(rows * 20);
  for (uint64_t i = 0; i < rows; ++i) {
    csv += urls[static_cast<size_t>(i * 2654435761u % 10)];
    csv += ",";
    csv += std::to_string(i % 5000);
    csv += "\n";
  }
  Check(engine->ImportTextBuffer(csv, "weblog").status());
}

struct Shape {
  const char* name;
  const char* sql;
};

}  // namespace
}  // namespace tde

int main(int argc, char** argv) {
  using namespace tde;  // NOLINT
  bench::JsonReport report("invisible_join", argc, argv);
  bench::PrintHeader("Sect. 4.1 — the invisible join as a code map, on/off");
  Engine engine;
  const uint64_t rows = Rows();
  Check(engine.ImportTextBuffer(GenerateFlights(rows), "flights").status());
  LoadDates(&engine, rows);
  LoadWeblog(&engine, rows);
  std::printf("flights, dates and weblog: %llu rows each\n",
              static_cast<unsigned long long>(rows));

  const Shape shapes[] = {
      {"string",
       "SELECT dest, COUNT(*) AS flights FROM flights WHERE origin = 'ADH' "
       "GROUP BY dest ORDER BY flights DESC, dest LIMIT 10"},
      {"string_in",
       "SELECT dest, COUNT(*) AS flights FROM flights "
       "WHERE origin IN ('ADH', 'BDH') "
       "GROUP BY dest ORDER BY flights DESC, dest LIMIT 10"},
      {"date",
       "SELECT COUNT(*) AS n, SUM(v) AS s FROM dates "
       "WHERE d >= DATE '2012-06-01' AND d < DATE '2012-09-01'"},
      {"extension",
       "SELECT EXTENSION(url) AS ext, COUNT(*) AS requests, "
       "SUM(bytes) AS bytes FROM weblog GROUP BY ext ORDER BY ext"},
  };
  std::printf("%-10s %-4s %10s %10s %6s\n", "shape", "join", "total_ms",
              "median_ms", "rows");
  for (const Shape& shape : shapes) {
    // The rewrite's EXPLAIN note: code map size, passing codes, interval.
    auto explain = engine.ExecuteSql(std::string("EXPLAIN ") + shape.sql);
    Check(explain.status());
    const std::string text = explain.value().ToCsv();
    const size_t at = text.find("invisible join(");
    if (at != std::string::npos) {
      const size_t end = text.find_first_of("\"\n", at);
      std::printf("  %s\n", text.substr(at, end - at).c_str());
    }
    for (const bool on : {true, false}) {
      StrategicOptions options;
      options.enable_invisible_join = on;
      std::vector<double> ms;
      uint64_t rows = 0;
      for (int i = 0; i <= kRuns; ++i) {  // run 0 warms up
        bench::Timer timer;
        auto r = engine.ExecuteSql(shape.sql, options);
        Check(r.status());
        if (i > 0) ms.push_back(timer.Seconds() * 1e3);
        rows = r.value().num_rows();
      }
      double total = 0;
      for (const double m : ms) total += m;
      std::sort(ms.begin(), ms.end());
      std::printf("%-10s %-4s %10.2f %10.3f %6llu\n", shape.name,
                  on ? "on" : "off", total, ms[ms.size() / 2],
                  static_cast<unsigned long long>(rows));
      char rec[160];
      std::snprintf(rec, sizeof(rec),
                    "{\"name\":\"invisible_join %s %s\",\"ms\":%.3f,"
                    "\"groups\":%llu}",
                    shape.name, on ? "on" : "off", total,
                    static_cast<unsigned long long>(rows));
      report.Add(rec);
    }
  }
  std::printf(
      "\npaper shape: with the rewrite on, each pushed predicate or "
      "computation runs once per dictionary entry; a range over a sorted "
      "dictionary passes one code interval.\n");
  return 0;
}
