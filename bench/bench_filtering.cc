// Fig. 10 reproduction: filter + aggregate over the artificial run-length
// tables of Sect. 5.3.
//
//   SELECT Index, MAX(Other) FROM table
//   WHERE Index > (100 - selectivity) GROUP BY Index
//
// Three plans (Sect. 6.6):
//   1. Scan -> Filter -> Aggregate                    (control)
//   2. Index -> Filter -> IndexedScan -> Aggregate    (rank join, hash agg)
//   3. Index -> Filter -> Sort -> IndexedScan -> OrdAggr
//
// Paper shape: plan 2/3 beat plan 1 by ~2x on the primary key; plan 3 wins
// by ~3x on the large table's secondary key (runs >> block size) and loses
// on the small table's secondary key (runs ~100 < block size).

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/exec/flow_table.h"
#include "src/observe/query_stats.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/workload/rle_data.h"

namespace tde {
namespace {

using namespace tde::expr;  // NOLINT

/// Every rewrite off: the plan stays a plain decode-then-filter pipeline.
StrategicOptions DecodeThenFilterOptions() {
  StrategicOptions off;
  off.enable_rank_join = false;
  off.enable_invisible_join = false;
  off.enable_metadata_pruning = false;
  off.enable_run_filters = false;
  off.enable_dict_predicates = false;
  return off;
}

PlanNodePtr MakePlan(int plan, const std::shared_ptr<Table>& table,
                     const std::string& index_col,
                     const std::string& other_col, int selectivity) {
  const ExprPtr pred = Gt(Col(index_col), Int(100 - selectivity));
  if (plan == 1) {
    auto p = Plan::Scan(table, {index_col, other_col})
                 .Filter(pred)
                 .Aggregate({index_col}, {{AggKind::kMax, other_col, "m"}});
    return StrategicOptimize(p.root(), DecodeThenFilterOptions())
        .MoveValue();
  }
  auto iscan = std::make_shared<PlanNode>();
  iscan->kind = PlanNodeKind::kIndexedScan;
  iscan->table = table;
  iscan->index_column = index_col;
  iscan->index_predicate = pred;
  iscan->payload = {other_col};
  iscan->sort_index_by_value = plan == 3;
  auto agg = std::make_shared<PlanNode>();
  agg->kind = PlanNodeKind::kAggregate;
  agg->agg.group_by = {index_col};
  agg->agg.aggs = {{AggKind::kMax, other_col, "m"}};
  agg->force_hash_agg = plan == 2;
  agg->children = {iscan};
  return agg;
}

/// Runs `root`, lowered under the `options` it was optimized under.
double RunPlan(const PlanNodePtr& root, const StrategicOptions& options,
               uint64_t* rows, std::string* operators = nullptr) {
  // Average of 3 runs (paper: 12 with extremes discarded).
  double total = 0;
  for (int i = 0; i < 3; ++i) {
    bench::Timer t;
    auto r = ExecutePlanNode(root, options);
    if (!r.ok()) {
      std::fprintf(stderr, "plan failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    *rows = r.value().num_rows();
    total += t.Seconds();
    if (operators != nullptr && r.value().stats() != nullptr) {
      *operators = r.value().stats()->ToJson();
    }
  }
  return total / 3;
}

/// Storage accesses (blocks) the IndexedScan will issue for the filtered
/// index, optionally value-sorted: contiguous entries coalesce, so sorting
/// a small-run index multiplies the access count (the Sect. 6.6 penalty).
uint64_t CountAccesses(const std::shared_ptr<Table>& table,
                       const std::string& index_col, int selectivity,
                       bool sorted) {
  auto col = table->ColumnByName(index_col).value();
  auto index = BuildIndexTable(*col).MoveValue();
  std::erase_if(index, [&](const IndexEntry& e) {
    return e.value <= 100 - selectivity;
  });
  if (sorted) SortIndexByValue(&index);
  uint64_t blocks = 0;
  uint64_t expected_start = UINT64_MAX;
  uint64_t in_block = 0;
  for (const IndexEntry& e : index) {
    uint64_t off = 0;
    while (off < e.count) {
      if (e.start + off != expected_start || in_block >= kBlockSize) {
        ++blocks;
        in_block = 0;
      }
      const uint64_t take = std::min<uint64_t>(e.count - off,
                                               kBlockSize - in_block);
      in_block += take;
      off += take;
      expected_start = e.start + off;
    }
  }
  return blocks;
}

void RunTable(const char* label, uint64_t rows, bench::JsonReport* report) {
  std::printf("\nbuilding %s (%llu rows)...\n", label,
              static_cast<unsigned long long>(rows));
  auto table = MakeRleTable(rows).MoveValue();
  for (const char* index_col : {"primary", "secondary"}) {
    const std::string other =
        std::string(index_col) == "primary" ? "secondary" : "primary";
    std::printf("\n-- %s, filtering %s --\n", label, index_col);
    std::printf("%11s %10s %10s %10s %7s %7s %10s %10s\n", "selectivity",
                "plan1_ms", "plan2_ms", "plan3_ms", "p1/p2", "p1/p3",
                "p2_blocks", "p3_blocks");
    for (int sel : {5, 10, 25, 50, 75, 90, 100}) {
      double ms[4] = {0, 0, 0, 0};
      uint64_t out_rows = 0;
      for (int plan = 1; plan <= 3; ++plan) {
        auto root = MakePlan(plan, table, index_col, other, sel);
        // Plan 1 is optimized under DecodeThenFilterOptions; plans 2 and 3
        // are built by hand.
        const StrategicOptions options =
            plan == 1 ? DecodeThenFilterOptions() : StrategicOptions{};
        std::string operators = "null";
        ms[plan] = RunPlan(root, options, &out_rows, &operators) * 1000;
        if (report->enabled()) {
          char head[192];
          std::snprintf(head, sizeof(head),
                        "{\"table\":\"%s\",\"index\":\"%s\","
                        "\"selectivity\":%d,\"plan\":%d,\"ms\":%.4f,"
                        "\"rows\":%llu,\"operators\":",
                        label, index_col, sel, plan, ms[plan],
                        static_cast<unsigned long long>(out_rows));
          report->Add(std::string(head) + operators + "}");
        }
      }
      std::printf(
          "%10d%% %10.2f %10.2f %10.2f %7.2f %7.2f %10llu %10llu\n", sel,
          ms[1], ms[2], ms[3], ms[1] / ms[2], ms[1] / ms[3],
          static_cast<unsigned long long>(
              CountAccesses(table, index_col, sel, false)),
          static_cast<unsigned long long>(
              CountAccesses(table, index_col, sel, true)));
    }
  }
}

/// A low-cardinality string column plus an integer payload — the dictionary
/// compresses `s` to a handful of tokens over a sorted heap. The values
/// share a long prefix (typical of categorical paths and product codes), so
/// decode-then-filter pays a full collation walk per row while the
/// dictionary-code plan compares integers.
constexpr const char* kStringVocab[] = {
    "warehouse/produce/fruit/apple-granny-smith",
    "warehouse/produce/fruit/banana-cavendish",
    "warehouse/produce/fruit/cherry-rainier",
    "warehouse/produce/fruit/date-medjool",
    "warehouse/produce/fruit/elderberry-wild",
    "warehouse/produce/fruit/fig-mission",
    "warehouse/produce/fruit/grape-concord"};

std::shared_ptr<Table> MakeStringTable(uint64_t rows) {
  const auto& kVocab = kStringVocab;
  std::string csv = "s,v\n";
  csv.reserve(rows * 48);
  uint64_t x = 88172645463325252ull;  // xorshift: cheap, deterministic
  for (uint64_t i = 0; i < rows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    csv += kVocab[x % 7];
    csv += ',';
    csv += std::to_string(x % 1000);
    csv += '\n';
  }
  Engine engine;
  return engine.ImportTextBuffer(csv, "strings").MoveValue();
}

/// Compressed-domain predicate evaluation vs decode-then-filter: the same
/// filter, with and without the dictionary-code / run-level rewrites.
void RunCompressedPredicates(uint64_t rows, bench::JsonReport* report) {
  std::printf("\n-- compressed-domain predicates (%llu rows) --\n",
              static_cast<unsigned long long>(rows));
  std::printf("%28s %12s %12s %8s\n", "predicate", "decode_ms",
              "compressed_ms", "speedup");

  struct Case {
    const char* name;
    std::shared_ptr<Table> table;
    ExprPtr pred;
    StrategicOptions on;
  };
  StrategicOptions dict_on;  // isolate the dict-code lowering
  dict_on.enable_invisible_join = false;
  std::vector<Case> cases;
  auto strings = MakeStringTable(rows);
  cases.push_back({"string eq (dict codes)", strings,
                   Eq(Col("s"), Str(kStringVocab[2])), dict_on});
  cases.push_back({"string range (dict codes)", strings,
                   Le(Col("s"), Str(kStringVocab[2])), dict_on});
  auto rle = MakeRleTable(rows).MoveValue();
  cases.push_back({"int range (run filter)", rle,
                   Gt(Col("primary"), Int(90)), StrategicOptions{}});
  for (const Case& c : cases) {
    auto make = [&] { return Plan::Scan(c.table).Filter(c.pred); };
    auto control =
        StrategicOptimize(make().root(), DecodeThenFilterOptions())
            .MoveValue();
    auto compressed = StrategicOptimize(make().root(), c.on).MoveValue();
    uint64_t control_rows = 0, compressed_rows = 0;
    const double decode_ms =
        RunPlan(control, DecodeThenFilterOptions(), &control_rows) * 1000;
    const double comp_ms = RunPlan(compressed, c.on, &compressed_rows) * 1000;
    if (control_rows != compressed_rows) {
      std::fprintf(stderr, "row mismatch: %llu vs %llu\n",
                   static_cast<unsigned long long>(control_rows),
                   static_cast<unsigned long long>(compressed_rows));
      std::exit(1);
    }
    std::printf("%28s %12.2f %12.2f %7.2fx\n", c.name, decode_ms, comp_ms,
                decode_ms / comp_ms);
    if (report->enabled()) {
      char rec[256];
      std::snprintf(rec, sizeof(rec),
                    "{\"section\":\"compressed_predicates\","
                    "\"predicate\":\"%s\",\"rows\":%llu,"
                    "\"decode_ms\":%.4f,\"compressed_ms\":%.4f,"
                    "\"out_rows\":%llu}",
                    c.name, static_cast<unsigned long long>(rows), decode_ms,
                    comp_ms, static_cast<unsigned long long>(control_rows));
      report->Add(rec);
    }
  }
}

/// The same clustered data, stored monolithically vs segmented. The two
/// integer columns (a row-id ramp `x` and a payload `y`) are built with the
/// same encoder configuration; only the segmenting differs.
std::shared_ptr<Table> ClusteredTable(uint64_t rows, uint64_t segment_rows) {
  FlowTableOptions opt;
  opt.segment_rows = segment_rows;
  auto t = std::make_shared<Table>("clustered");
  ColumnBuildInput x, y;
  x.name = "x";
  x.type = TypeId::kInteger;
  y.name = "y";
  y.type = TypeId::kInteger;
  for (uint64_t i = 0; i < rows; ++i) {
    x.lanes.push_back(static_cast<Lane>(i));
    y.lanes.push_back(static_cast<Lane>(i % 997));
  }
  t->AddColumn(BuildColumn(std::move(x), opt).MoveValue());
  t->AddColumn(BuildColumn(std::move(y), opt).MoveValue());
  return t;
}

/// Zone-map segment pruning vs the same data stored monolithically: a
/// selective range filter over a clustered column. The segmented build
/// folds the predicate against each segment's zone map at lowering time
/// (EXPLAIN ANALYZE's `filter.segments_pruned`), so decode work — and, on
/// the lazy v3 path, I/O — stays proportional to the surviving segments.
/// The monolithic build has one zone map for the whole column and must
/// decode-then-filter everything.
void RunZoneMapPruning(uint64_t rows, bench::JsonReport* report) {
  constexpr uint64_t kSegmentRows = 64 * 1024;
  auto mono = ClusteredTable(rows, rows + 1);  // pinned monolithic
  auto seg = ClusteredTable(rows, kSegmentRows);
  const uint64_t num_segments = seg->column(0).SegmentShapes().size();
  std::printf(
      "\n-- zone-map segment pruning (%llu rows clustered, %llu segments of "
      "%llu) --\n",
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(num_segments),
      static_cast<unsigned long long>(kSegmentRows));
  std::printf("%11s %12s %14s %8s %8s %10s\n", "selectivity", "mono_ms",
              "segmented_ms", "speedup", "pruned", "surviving");

  for (const double sel : {0.01, 0.05, 0.25, 1.0}) {
    const Lane hi = static_cast<Lane>(static_cast<double>(rows) * sel) - 1;
    const ExprPtr pred = And(Ge(Col("x"), Int(0)), Le(Col("x"), Int(hi)));
    auto make = [&](const std::shared_ptr<Table>& t) {
      auto p = Plan::Scan(t).Filter(pred).Aggregate(
          {}, {{AggKind::kSum, "y", "s"}});
      return StrategicOptimize(p.root()).MoveValue();
    };
    uint64_t mono_rows = 0, seg_rows = 0;
    const double mono_ms =
        RunPlan(make(mono), StrategicOptions{}, &mono_rows) * 1000;
    const double seg_ms =
        RunPlan(make(seg), StrategicOptions{}, &seg_rows) * 1000;
    if (mono_rows != seg_rows) {
      std::fprintf(stderr, "row mismatch: %llu vs %llu\n",
                   static_cast<unsigned long long>(mono_rows),
                   static_cast<unsigned long long>(seg_rows));
      std::exit(1);
    }
    const SegmentPruneResult prune = PruneScanSegments(*seg, pred);
    std::printf("%10.0f%% %12.2f %14.2f %7.2fx %8llu %10llu\n", sel * 100,
                mono_ms, seg_ms, mono_ms / seg_ms,
                static_cast<unsigned long long>(prune.segments_pruned),
                static_cast<unsigned long long>(num_segments -
                                                prune.segments_pruned));
    if (report->enabled()) {
      char rec[320];
      std::snprintf(rec, sizeof(rec),
                    "{\"section\":\"zone_map_pruning\",\"rows\":%llu,"
                    "\"selectivity\":%g,\"mono_ms\":%.4f,"
                    "\"segmented_ms\":%.4f,\"segments\":%llu,"
                    "\"segments_pruned\":%llu,\"rows_pruned\":%llu}",
                    static_cast<unsigned long long>(rows), sel, mono_ms,
                    seg_ms, static_cast<unsigned long long>(num_segments),
                    static_cast<unsigned long long>(prune.segments_pruned),
                    static_cast<unsigned long long>(prune.rows_pruned));
      report->Add(rec);
    }
  }
}

}  // namespace
}  // namespace tde

int main(int argc, char** argv) {
  tde::bench::JsonReport report("filtering", argc, argv);
  tde::bench::PrintHeader(
      "Fig. 10 — indexed-scan filtering on run-length data (Sect. 6.6)");
  std::printf("paper: 1M and 1B rows; here: 1M and TDE_LARGE_ROWS (see "
              "DESIGN.md)\n");
  tde::RunTable("small (1M)", 1000000, &report);
  tde::RunTable("large", tde::bench::LargeRleRows(), &report);
  tde::RunCompressedPredicates(1000000, &report);
  tde::RunZoneMapPruning(2000000, &report);
  return 0;
}
