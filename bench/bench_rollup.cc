// Sect. 8 ablation: index roll-up + parallel ordered aggregation. Compares
// (a) rolling dates up per row and hash-aggregating, against (b) rolling up
// the *index* (one entry per distinct date, MIN(start)/SUM(count)) and
// running ordered aggregation over the ranges — serial and partitioned
// across workers.
//
// Also ablates the two compressed-domain aggregation rewrites against their
// decoded controls (kill switches off): dictionary-code grouping with late
// key materialization, and run-level aggregate folding over an RLE column.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/exec/flow_table.h"
#include "src/exec/parallel_rollup.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using namespace tde::expr;  // NOLINT

std::shared_ptr<Table> DailyTable(uint64_t rows) {
  std::vector<Lane> day(rows), value(rows);
  const int64_t start = DaysFromCivil(2000, 1, 1);
  const uint64_t per_day = rows / 3652 + 1;
  uint64_t x = 5;
  for (uint64_t i = 0; i < rows; ++i) {
    day[i] = start + static_cast<int64_t>(i / per_day);
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    value[i] = static_cast<Lane>(x % 1000);
  }
  return FlowTable::Build(testutil::VectorSource::Ints(
                              {{"day", day}, {"value", value}}))
      .MoveValue();
}

double RowLevelRollup(const std::shared_ptr<Table>& table, uint64_t* groups) {
  bench::Timer t;
  auto r = ExecutePlan(
      Plan::Scan(table)
          .Project({{DateF(DateFunc::kTruncMonth, Col("day")), "m"},
                    {Col("value"), "value"}})
          .Aggregate({"m"}, {{AggKind::kSum, "value", "total"}}));
  if (!r.ok()) std::exit(1);
  *groups = r.value().num_rows();
  return t.Seconds();
}

double IndexRollup(const std::shared_ptr<Table>& table, int workers,
                   uint64_t* groups) {
  bench::Timer t;
  auto col = table->ColumnByName("day").value();
  auto index = BuildIndexTable(*col).MoveValue();
  auto monthly = RollUpIndex(index, TruncateToMonth).MoveValue();
  ParallelRollupOptions opts;
  opts.value_name = "m";
  opts.value_type = TypeId::kDate;
  opts.payload = {"value"};
  opts.aggs = {{AggKind::kSum, "value", "total"}};
  opts.workers = workers;
  auto r = ParallelIndexedAggregate(table, monthly, opts);
  if (!r.ok()) std::exit(1);
  uint64_t n = 0;
  for (const Block& b : r.value().blocks) n += b.rows();
  *groups = n;
  return t.Seconds();
}

// 4M rows, 16 distinct strings: the shape where per-row heap lookups and
// collation dominate a GROUP BY and dictionary-code grouping should win.
std::shared_ptr<Table> FruitTable(uint64_t rows) {
  static const char* kNames[] = {
      "apple",  "banana", "cherry", "dragonfruit", "elderberry", "fig",
      "grape",  "honeydew", "kiwi", "lemon",       "mango",      "nectarine",
      "orange", "papaya", "quince", "raspberry"};
  std::vector<std::string> s(rows);
  std::vector<Lane> value(rows);
  uint64_t x = 11;
  for (uint64_t i = 0; i < rows; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    s[i] = kNames[x % 16];
    value[i] = static_cast<Lane>(x % 1000);
  }
  auto src = testutil::VectorSource::Ints({{"value", value}});
  src->AddStringColumn("s", s);
  return FlowTable::Build(std::move(src)).MoveValue();
}

// Sorted integer column with 1000-row runs: run-length encoded, so the
// aggregate can fold whole (value, count) runs instead of expanding rows.
std::shared_ptr<Table> RunTable(uint64_t rows) {
  std::vector<Lane> g(rows);
  for (uint64_t i = 0; i < rows; ++i) g[i] = static_cast<Lane>(i / 1000);
  return FlowTable::Build(testutil::VectorSource::Ints({{"g", g}}))
      .MoveValue();
}

double DictGroupBy(const std::shared_ptr<Table>& table, bool compressed,
                   uint64_t* groups) {
  StrategicOptions opts;
  opts.enable_dict_grouping = compressed;
  bench::Timer t;
  auto r = ExecutePlan(
      Plan::Scan(table).Aggregate({"s"}, {{AggKind::kSum, "value", "total"}}),
      opts);
  if (!r.ok()) std::exit(1);
  *groups = r.value().num_rows();
  return t.Seconds();
}

double RunSumCount(const std::shared_ptr<Table>& table, bool compressed,
                   uint64_t* groups) {
  StrategicOptions opts;
  opts.enable_run_aggregation = compressed;
  bench::Timer t;
  auto r = ExecutePlan(
      Plan::Scan(table).Aggregate({"g"}, {{AggKind::kSum, "g", "total"},
                                          {AggKind::kCountStar, "", "n"}}),
      opts);
  if (!r.ok()) std::exit(1);
  *groups = r.value().num_rows();
  return t.Seconds();
}

/// One gate-able record: a named measurement in milliseconds. The names are
/// the stable contract with ci/BENCH_baseline.json — renaming one means
/// re-baselining (ci/check_bench.sh --rebaseline).
void Report(bench::JsonReport* report, const char* name, double seconds,
            uint64_t groups) {
  if (!report->enabled()) return;
  char rec[160];
  std::snprintf(rec, sizeof(rec),
                "{\"name\":\"%s\",\"ms\":%.4f,\"groups\":%llu}", name,
                seconds * 1000, static_cast<unsigned long long>(groups));
  report->Add(rec);
}

}  // namespace
}  // namespace tde

int main(int argc, char** argv) {
  tde::bench::JsonReport report("rollup", argc, argv);
  tde::bench::PrintHeader(
      "Sect. 8 — index roll-up & parallel ordered aggregation");
  auto table = tde::DailyTable(tde::bench::RollupRows());
  std::printf("table: %llu rows, day column %s\n",
              static_cast<unsigned long long>(table->rows()),
              tde::EncodingName(
                  table->ColumnByName("day").value()->data()->type()));
  uint64_t g1 = 0, g2 = 0;
  double row_s = 0, idx1_s = 0, idx4_s = 0;
  for (int i = 0; i < 3; ++i) {
    row_s += tde::RowLevelRollup(table, &g1);
    idx1_s += tde::IndexRollup(table, 1, &g2);
    idx4_s += tde::IndexRollup(table, 4, &g2);
  }
  std::printf("%-44s %8.3fs (%llu groups)\n",
              "per-row TRUNC_MONTH + hash aggregation", row_s / 3,
              static_cast<unsigned long long>(g1));
  std::printf("%-44s %8.3fs (%llu groups)\n",
              "index roll-up + ordered aggregation (1 worker)", idx1_s / 3,
              static_cast<unsigned long long>(g2));
  std::printf("%-44s %8.3fs\n",
              "index roll-up + ordered aggregation (4 workers)", idx4_s / 3);
  tde::Report(&report, "rowlevel_rollup", row_s / 3, g1);
  tde::Report(&report, "index_rollup_1w", idx1_s / 3, g2);
  tde::Report(&report, "index_rollup_4w", idx4_s / 3, g2);
  std::printf(
      "\nshape: the roll-up computes TRUNC_MONTH once per distinct day "
      "(~3.7k) instead of once per row (4M), so plan (b) should win "
      "decisively; worker scaling is bounded by the single core here.\n");

  tde::bench::PrintHeader(
      "Compressed-domain aggregation vs decoded controls");
  auto fruit = tde::FruitTable(tde::bench::RollupRows());
  uint64_t gd = 0;
  double dict_on = 0, dict_off = 0;
  for (int i = 0; i < 3; ++i) {
    dict_on += tde::DictGroupBy(fruit, /*compressed=*/true, &gd);
    dict_off += tde::DictGroupBy(fruit, /*compressed=*/false, &gd);
  }
  std::printf("%-44s %8.3fs (%llu groups)\n",
              "string GROUP BY, dictionary-code keys", dict_on / 3,
              static_cast<unsigned long long>(gd));
  std::printf("%-44s %8.3fs  speedup %.2fx\n",
              "string GROUP BY, per-row heap keys", dict_off / 3,
              dict_off / dict_on);
  tde::Report(&report, "dict_groupby_compressed", dict_on / 3, gd);
  tde::Report(&report, "dict_groupby_decoded", dict_off / 3, gd);

  auto runs = tde::RunTable(tde::bench::RollupRows());
  std::printf("run table: %llu rows, g column %s\n",
              static_cast<unsigned long long>(runs->rows()),
              tde::EncodingName(
                  runs->ColumnByName("g").value()->data()->type()));
  uint64_t gr = 0;
  double fold_on = 0, fold_off = 0;
  for (int i = 0; i < 3; ++i) {
    fold_on += tde::RunSumCount(runs, /*compressed=*/true, &gr);
    fold_off += tde::RunSumCount(runs, /*compressed=*/false, &gr);
  }
  std::printf("%-44s %8.3fs (%llu groups)\n",
              "SUM+COUNT over RLE, run folding", fold_on / 3,
              static_cast<unsigned long long>(gr));
  std::printf("%-44s %8.3fs  speedup %.2fx\n",
              "SUM+COUNT over RLE, expanded rows", fold_off / 3,
              fold_off / fold_on);
  tde::Report(&report, "run_fold_compressed", fold_on / 3, gr);
  tde::Report(&report, "run_fold_decoded", fold_off / 3, gr);
  return 0;
}
