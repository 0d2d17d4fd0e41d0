// Compressed-domain aggregation: dictionary-code grouping, run-level
// folding, and metadata short-circuits must answer byte-for-byte
// identically to decode-then-aggregate across every encoding, aggregate
// kind, and NULL pattern — while EXPLAIN ANALYZE and the metrics registry
// surface the rows, runs, and heap lookups that were skipped.

#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "src/exec/parallel_rollup.h"
#include "src/observe/metrics.h"
#include "src/plan/executor.h"
#include "src/plan/strategic.h"
#include "src/storage/heap_accelerator.h"
#include "src/workload/rle_data.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;

constexpr Lane kInt64Max = std::numeric_limits<int64_t>::max();
constexpr Lane kInt64Min = std::numeric_limits<int64_t>::min();

/// Control options: every compressed-domain aggregation path off (plus the
/// join rewrites, so the control plan is literally decode-then-aggregate).
StrategicOptions DecodeThenAggregate() {
  StrategicOptions off;
  off.enable_invisible_join = false;
  off.enable_rank_join = false;
  off.enable_dict_predicates = false;
  off.enable_run_filters = false;
  off.enable_dict_grouping = false;
  off.enable_run_aggregation = false;
  off.enable_metadata_aggregates = false;
  return off;
}

/// Byte-identical comparison: same row count, same order, same rendering
/// of every cell (strings through their heaps, NULLs as NULL).
void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.schema().num_fields(), b.schema().num_fields()) << label;
  for (uint64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_fields(); ++c) {
      ASSERT_EQ(a.ValueString(r, c), b.ValueString(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

AggSpec Agg(AggKind kind, std::string input, std::string output) {
  return AggSpec{kind, std::move(input), std::move(output)};
}

struct Kind {
  const char* name;
  AggKind kind;
};

std::vector<Kind> AllKinds() {
  return {{"count_star", AggKind::kCountStar},
          {"count", AggKind::kCount},
          {"sum", AggKind::kSum},
          {"min", AggKind::kMin},
          {"max", AggKind::kMax},
          {"avg", AggKind::kAvg},
          {"countd", AggKind::kCountDistinct},
          {"median", AggKind::kMedian}};
}

/// NULL injection patterns for the value column.
enum class Nulls { kNone, kSome, kOneGroupAllNull, kAll };

const char* NullsName(Nulls n) {
  switch (n) {
    case Nulls::kNone: return "none";
    case Nulls::kSome: return "some";
    case Nulls::kOneGroupAllNull: return "group0_null";
    case Nulls::kAll: return "all";
  }
  return "?";
}

/// Value distributions chosen so the FlowTable dynamic encoder picks a
/// different physical encoding for each (the same families property_test
/// uses): wild stays uncompressed, narrow goes frame-of-reference,
/// monotonic goes delta, ramp goes affine, runs goes run-length, small
/// domain goes array-dictionary, constant goes constant.
struct Distribution {
  const char* name;
  std::function<Lane(size_t, std::mt19937_64&)> gen;
};

std::vector<Distribution> ValueDistributions() {
  return {
      {"wild",
       [](size_t, std::mt19937_64& rng) {
         // Wide and signed, but bounded so a 4000-row SUM cannot overflow.
         return static_cast<Lane>(rng() % (uint64_t{1} << 40)) -
                (Lane{1} << 39);
       }},
      {"narrow_range",
       [](size_t, std::mt19937_64& rng) {
         return static_cast<Lane>(1000000000 + rng() % 5000);
       }},
      {"monotonic",
       [](size_t i, std::mt19937_64& rng) {
         return static_cast<Lane>(i * 11 + rng() % 10);
       }},
      {"ramp", [](size_t i, std::mt19937_64&) {
         return static_cast<Lane>(40 + 8 * i);
       }},
      {"runs",
       [](size_t i, std::mt19937_64&) {
         return static_cast<Lane>((i / 97) % 13);
       }},
      {"small_domain",
       [](size_t, std::mt19937_64& rng) {
         return static_cast<Lane>((rng() % 16) * 1000003);
       }},
      {"constant", [](size_t, std::mt19937_64&) { return Lane{42}; }},
  };
}

/// A table with an integer group key `g` (10 groups, interleaved) and a
/// value column `v` drawn from `dist` with NULLs injected per `nulls`.
std::shared_ptr<Table> EncodedTable(const Distribution& dist, Nulls nulls,
                                    size_t rows, uint64_t seed) {
  std::vector<Lane> g(rows), v(rows);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    g[i] = static_cast<Lane>((i * 7 + 3) % 10);
    Lane val = dist.gen(i, rng);
    switch (nulls) {
      case Nulls::kNone:
        break;
      case Nulls::kSome:
        if (rng() % 7 == 0) val = kNullSentinel;
        break;
      case Nulls::kOneGroupAllNull:
        if (g[i] == 0) val = kNullSentinel;
        break;
      case Nulls::kAll:
        val = kNullSentinel;
        break;
    }
    v[i] = val;
  }
  return FlowTable::Build(VectorSource::Ints({{"g", g}, {"v", v}}))
      .MoveValue();
}

/// A table with a low-cardinality string column `s` (optionally nullable)
/// and an integer payload `v`. FlowTable post-processing sorts the heap,
/// so the grouping rewrite sees collation-ordered tokens; pass
/// `sorted_heap = false` to keep the heap in arrival order instead (the
/// unsorted-dictionary variant).
std::shared_ptr<Table> StringTable(size_t rows, bool with_nulls,
                                   uint64_t seed, bool sorted_heap = true) {
  static const std::vector<std::string> kVocab = {
      "apple", "banana", "cherry", "date", "elderberry", "fig", "grape"};
  Schema schema;
  schema.AddField({"v", TypeId::kInteger});
  schema.AddField({"s", TypeId::kString});
  std::vector<ColumnVector> cols(2);
  cols[0].type = TypeId::kInteger;
  cols[1].type = TypeId::kString;
  auto heap = std::make_shared<StringHeap>();
  HeapAccelerator acc(heap.get());
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    cols[0].lanes.push_back(static_cast<Lane>(rng() % 1000));
    if (with_nulls && rng() % 7 == 0) {
      cols[1].lanes.push_back(kNullSentinel);
    } else {
      cols[1].lanes.push_back(acc.Add(kVocab[rng() % kVocab.size()]));
    }
  }
  cols[1].heap = std::move(heap);
  auto src = std::make_unique<VectorSource>(std::move(schema),
                                            std::move(cols));
  FlowTableOptions opts;
  opts.post_process = sorted_heap;
  return FlowTable::Build(std::move(src), opts).MoveValue();
}

/// A table whose `r` column is sorted and low-cardinality (run-length
/// encodes) with an unsorted integer payload `p`.
std::shared_ptr<Table> RleTable(size_t rows, uint64_t seed) {
  std::vector<Lane> r(rows), p(rows);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    r[i] = static_cast<Lane>(i / ((rows / 10) + 1));
    p[i] = static_cast<Lane>(rng() % 100000);
  }
  return FlowTable::Build(VectorSource::Ints({{"r", r}, {"p", p}}))
      .MoveValue();
}

QueryResult RunPlan(const Plan& plan, const StrategicOptions& opts) {
  return ExecutePlanNode(StrategicOptimize(plan.root(), opts).MoveValue())
      .MoveValue();
}

// ---------------------------------------------------------------------------
// The differential matrix: encoding x aggregate kind x NULL pattern, both
// grouped and whole-table, compressed-domain rewrites on vs everything off.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, EncodingByKindByNullPattern) {
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  uint64_t seed = 20260806;
  for (const auto& dist : ValueDistributions()) {
    for (Nulls nulls : {Nulls::kNone, Nulls::kSome, Nulls::kOneGroupAllNull,
                        Nulls::kAll}) {
      auto t = EncodedTable(dist, nulls, 4000, seed++);
      for (const auto& k : AllKinds()) {
        const std::string label = std::string(dist.name) + "/" +
                                  NullsName(nulls) + "/" + k.name;
        auto grouped = [&] {
          return Plan::Scan(t).Aggregate(
              {"g"}, {Agg(k.kind, "v", "a"),
                      Agg(AggKind::kCountStar, "", "n")});
        };
        ExpectIdentical(RunPlan(grouped(), full), RunPlan(grouped(), control),
                        "grouped " + label);
        auto whole = [&] {
          return Plan::Scan(t).Aggregate(
              {}, {Agg(k.kind, "v", "a"),
                   Agg(AggKind::kCountStar, "", "n")});
        };
        ExpectIdentical(RunPlan(whole(), full), RunPlan(whole(), control),
                        "whole " + label);
      }
    }
  }
}

TEST(CompressedAgg, EmptyInput) {
  auto t = FlowTable::Build(VectorSource::Ints({{"g", {}}, {"v", {}}}))
               .MoveValue();
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  for (const auto& k : AllKinds()) {
    auto grouped = [&] {
      return Plan::Scan(t).Aggregate({"g"}, {Agg(k.kind, "v", "a")});
    };
    QueryResult g_full = RunPlan(grouped(), full);
    ExpectIdentical(g_full, RunPlan(grouped(), control),
                    std::string("empty grouped ") + k.name);
    EXPECT_EQ(g_full.num_rows(), 0u) << k.name;
    // Whole-table aggregation over zero rows still yields one row (COUNTs
    // are 0, everything else NULL) — and the metadata rewrite answers it
    // without opening the scan.
    auto whole = [&] {
      return Plan::Scan(t).Aggregate({}, {Agg(k.kind, "v", "a")});
    };
    QueryResult w_full = RunPlan(whole(), full);
    ExpectIdentical(w_full, RunPlan(whole(), control),
                    std::string("empty whole ") + k.name);
    EXPECT_EQ(w_full.num_rows(), 1u) << k.name;
  }
}

// ---------------------------------------------------------------------------
// Dictionary-code grouping.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, StringKeyGroupingMatchesDecoded) {
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  for (bool with_nulls : {false, true}) {
    for (bool sorted_heap : {true, false}) {
      auto t = StringTable(4000, with_nulls, 7 + with_nulls, sorted_heap);
      for (const auto& k : AllKinds()) {
        const std::string label =
            std::string(k.name) + (with_nulls ? " nullable" : "") +
            (sorted_heap ? " sorted" : " unsorted");
        auto make = [&] {
          return Plan::Scan(t).Aggregate(
              {"s"}, {Agg(k.kind, "v", "a"),
                      Agg(AggKind::kCountStar, "", "n")});
        };
        ExpectIdentical(RunPlan(make(), full), RunPlan(make(), control), label);
      }
      // Aggregates over the string column itself (MIN/MAX/COUNTD of s,
      // grouped by s) exercise string-typed aggregate outputs alongside
      // late-materialized keys.
      auto strs = [&] {
        return Plan::Scan(t).Aggregate(
            {"s"}, {Agg(AggKind::kMin, "s", "lo"),
                    Agg(AggKind::kMax, "s", "hi"),
                    Agg(AggKind::kCountDistinct, "s", "d")});
      };
      ExpectIdentical(RunPlan(strs(), full), RunPlan(strs(), control),
                      "string aggs over string key");
    }
  }
}

TEST(CompressedAgg, MultiKeyDictGroupingMatchesDecoded) {
  auto t = StringTable(6000, /*with_nulls=*/true, 11);
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  // Second key: a computed bucket of v, so the key list mixes a string
  // key (normalized to codes) with an integer key (passed through).
  auto make = [&] {
    return Plan::Scan(t)
        .Project({{expr::Col("s"), "s"},
                  {expr::Arith(ArithOp::kMod, expr::Col("v"), expr::Int(4)),
                   "b"},
                  {expr::Col("v"), "v"}})
        .Aggregate({"s", "b"}, {Agg(AggKind::kSum, "v", "sum"),
                                Agg(AggKind::kCountStar, "", "n")});
  };
  ExpectIdentical(RunPlan(make(), full), RunPlan(make(), control), "multi-key");
}

TEST(CompressedAgg, OrderedAggregateNormalizesStringKeys) {
  auto t = StringTable(4000, /*with_nulls=*/true, 13);
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  // Sorting on s marks the aggregation input grouped, so the lowering
  // picks OrderedAggregate — which also groups on codes now.
  auto make = [&] {
    return Plan::Scan(t)
        .OrderBy({{"s", /*ascending=*/true}})
        .Aggregate({"s"}, {Agg(AggKind::kSum, "v", "sum"),
                           Agg(AggKind::kCount, "v", "c")});
  };
  ExpectIdentical(RunPlan(make(), full), RunPlan(make(), control), "ordered");
}

TEST(CompressedAgg, DictGroupingKillSwitchFallsBack) {
  auto t = StringTable(2000, /*with_nulls=*/true, 17);
  StrategicOptions off;
  off.enable_dict_grouping = false;
  auto make = [&] {
    return Plan::Scan(t).Aggregate({"s"},
                                   {Agg(AggKind::kSum, "v", "sum")});
  };
  PlanNodePtr node = StrategicOptimize(make().root(), off).MoveValue();
  EXPECT_FALSE(node->agg.dict_code_keys);
  ExpectIdentical(RunPlan(make(), off), RunPlan(make(), DecodeThenAggregate()),
                  "kill switch");
}

// Mode A -> Mode B: the normalizer starts on the first heap it sees (zero
// decodes) and pivots to a canonical first-seen-order heap when a second
// heap appears; codes remain stable across the pivot.
TEST(CompressedAgg, NormalizerSurvivesHeapChange) {
  auto h1 = std::make_shared<StringHeap>();
  auto h2 = std::make_shared<StringHeap>();
  Lane a1 = h1->Add("alpha"), b1 = h1->Add("beta");
  Lane b2 = h2->Add("beta"), c2 = h2->Add("gamma");
  StringKeyNormalizer norm;
  uint32_t ca = norm.Code(h1, a1);
  uint32_t cb = norm.Code(h1, b1);
  uint32_t cn = norm.Code(h1, kNullSentinel);
  EXPECT_NE(ca, cb);
  // Mode A: emit heap is the input heap, tokens pass through untouched.
  EXPECT_EQ(norm.emit_heap().get(), h1.get());
  EXPECT_EQ(norm.Token(ca), a1);
  // Second heap: equal strings must map to the code assigned under the
  // first heap, new strings get fresh codes.
  EXPECT_EQ(norm.Code(h2, b2), cb);
  uint32_t cc = norm.Code(h2, c2);
  EXPECT_EQ(norm.distinct(), 4u);  // alpha, beta, NULL, gamma
  // Mode B: a canonical heap renders every code, including ones assigned
  // before the pivot, and NULL round-trips as the sentinel.
  auto emit = norm.emit_heap();
  EXPECT_NE(emit.get(), h1.get());
  EXPECT_EQ(emit->Get(norm.Token(ca)), "alpha");
  EXPECT_EQ(emit->Get(norm.Token(cb)), "beta");
  EXPECT_EQ(emit->Get(norm.Token(cc)), "gamma");
  EXPECT_EQ(norm.Token(cn), kNullSentinel);
  // Re-presenting heap 1 tokens after the pivot still resolves.
  EXPECT_EQ(norm.Code(h1, b1), cb);
}

// ---------------------------------------------------------------------------
// Run-level folding.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, RunFoldRewriteMatchesDecoded) {
  auto t = RleTable(50000, 23);
  const StrategicOptions control = DecodeThenAggregate();
  const StrategicOptions full;
  // Grouping the RLE column by itself with every foldable aggregate.
  auto make = [&] {
    return Plan::Scan(t).Aggregate(
        {"r"}, {Agg(AggKind::kSum, "r", "sum"),
                Agg(AggKind::kCountStar, "", "n"),
                Agg(AggKind::kCount, "r", "c"),
                Agg(AggKind::kMin, "r", "lo"),
                Agg(AggKind::kMax, "r", "hi"),
                Agg(AggKind::kAvg, "r", "avg"),
                Agg(AggKind::kCountDistinct, "r", "d")});
  };
  PlanNodePtr folded = StrategicOptimize(make().root(), full).MoveValue();
  std::string shape = PlanToString(folded);
  EXPECT_NE(shape.find("[fold-runs]"), std::string::npos) << shape;
  EXPECT_NE(shape.find("IndexedScan(r)"), std::string::npos) << shape;
  ExpectIdentical(ExecutePlanNode(folded).MoveValue(),
                  RunPlan(make(), control), "grouped fold");

  // Whole-table SUM over the RLE column folds too (group_by_value off).
  auto whole = [&] {
    return Plan::Scan(t).Aggregate({}, {Agg(AggKind::kSum, "r", "sum"),
                                        Agg(AggKind::kAvg, "r", "avg")});
  };
  PlanNodePtr wnode = StrategicOptimize(whole().root(), full).MoveValue();
  EXPECT_NE(PlanToString(wnode).find("[fold-runs]"), std::string::npos);
  ExpectIdentical(ExecutePlanNode(wnode).MoveValue(),
                  RunPlan(whole(), control), "whole fold");
}

TEST(CompressedAgg, RunFoldDeclinesWhenNotProfitable) {
  auto t = RleTable(20000, 29);
  const StrategicOptions full;
  // MEDIAN is not foldable: UpdateRun degenerates to O(count).
  auto median = Plan::Scan(t).Aggregate(
      {"r"}, {Agg(AggKind::kMedian, "r", "med")});
  std::string shape =
      PlanToString(StrategicOptimize(median.root(), full).MoveValue());
  EXPECT_EQ(shape.find("[fold-runs]"), std::string::npos) << shape;
  // Aggregating the unsorted payload cannot fold either.
  auto payload = Plan::Scan(t).Aggregate(
      {"r"}, {Agg(AggKind::kSum, "p", "sum")});
  shape = PlanToString(StrategicOptimize(payload.root(), full).MoveValue());
  EXPECT_EQ(shape.find("[fold-runs]"), std::string::npos) << shape;
  // Both still answer correctly.
  auto med = [&] {
    return Plan::Scan(t).Aggregate({"r"},
                                   {Agg(AggKind::kMedian, "r", "med")});
  };
  ExpectIdentical(RunPlan(med(), full), RunPlan(med(), DecodeThenAggregate()),
                  "median");
  auto pay = [&] {
    return Plan::Scan(t).Aggregate({"r"},
                                   {Agg(AggKind::kSum, "p", "sum")});
  };
  ExpectIdentical(RunPlan(pay(), full), RunPlan(pay(), DecodeThenAggregate()),
                  "payload");
}

TEST(CompressedAgg, RunFoldKillSwitch) {
  auto t = RleTable(20000, 31);
  StrategicOptions off;
  off.enable_run_aggregation = false;
  auto make = Plan::Scan(t).Aggregate(
      {"r"}, {Agg(AggKind::kSum, "r", "sum")});
  std::string shape =
      PlanToString(StrategicOptimize(make.root(), off).MoveValue());
  EXPECT_EQ(shape.find("[fold-runs]"), std::string::npos) << shape;
  EXPECT_EQ(shape.find("IndexedScan"), std::string::npos) << shape;
}

TEST(CompressedAgg, ParallelRollupFoldParity) {
  auto t = MakeRleTable(200000).MoveValue();
  auto col = t->ColumnByName("primary").MoveValue();
  auto index = BuildIndexTable(*col).MoveValue();
  SortIndexByValue(&index);
  ParallelRollupOptions on;
  on.value_name = "primary";
  on.aggs = {Agg(AggKind::kSum, "primary", "sum"),
             Agg(AggKind::kCountStar, "", "n"),
             Agg(AggKind::kMin, "primary", "lo")};
  on.workers = 4;
  ParallelRollupOptions off = on;
  off.fold_runs = false;
  auto fold = ParallelIndexedAggregate(t, index, on).MoveValue();
  auto row = ParallelIndexedAggregate(t, index, off).MoveValue();
  EXPECT_GT(fold.runs_folded, 0u);
  EXPECT_EQ(row.runs_folded, 0u);
  QueryResult a(fold.schema, std::move(fold.blocks));
  QueryResult b(row.schema, std::move(row.blocks));
  ExpectIdentical(a, b, "parallel rollup fold vs rows");
}

// ---------------------------------------------------------------------------
// Metadata short-circuits.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, MetadataAnswersWholeTableAggregates) {
  auto t = RleTable(30000, 37);
  const StrategicOptions full;
  auto make = [&] {
    return Plan::Scan(t).Aggregate(
        {}, {Agg(AggKind::kCountStar, "", "n"),
             Agg(AggKind::kCount, "r", "c"),
             Agg(AggKind::kMin, "r", "lo"),
             Agg(AggKind::kMax, "r", "hi"),
             Agg(AggKind::kCountDistinct, "r", "d")});
  };
  PlanNodePtr node = StrategicOptimize(make().root(), full).MoveValue();
  EXPECT_TRUE(node->metadata_answered) << PlanToString(node);
  EXPECT_NE(PlanToString(node).find("[metadata]"), std::string::npos);
  ExpectIdentical(ExecutePlanNode(node).MoveValue(),
                  RunPlan(make(), DecodeThenAggregate()), "metadata");
}

TEST(CompressedAgg, MetadataIsAllOrNothing) {
  auto t = RleTable(30000, 41);
  const StrategicOptions full;
  // SUM is never metadata-answerable, so the presence of one SUM keeps
  // the whole node on the execution path (no half-answered rows).
  auto mixed = Plan::Scan(t).Aggregate(
      {}, {Agg(AggKind::kCountStar, "", "n"),
           Agg(AggKind::kSum, "r", "sum")});
  PlanNodePtr node = StrategicOptimize(mixed.root(), full).MoveValue();
  EXPECT_FALSE(node->metadata_answered) << PlanToString(node);
}

TEST(CompressedAgg, MetadataDeclinesNullableMin) {
  // MIN over a nullable column is not metadata-answerable (the encoder's
  // min is the NULL sentinel), but MAX still is — the all-or-nothing rule
  // decides per aggregate list.
  auto t = EncodedTable(ValueDistributions()[4], Nulls::kSome, 4000, 43);
  const StrategicOptions full;
  auto minq = Plan::Scan(t).Aggregate({},
                                      {Agg(AggKind::kMin, "v", "lo")});
  EXPECT_FALSE(
      StrategicOptimize(minq.root(), full).MoveValue()->metadata_answered);
  auto maxq = [&] {
    return Plan::Scan(t).Aggregate({}, {Agg(AggKind::kMax, "v", "hi")});
  };
  PlanNodePtr mx = StrategicOptimize(maxq().root(), full).MoveValue();
  EXPECT_TRUE(mx->metadata_answered) << PlanToString(mx);
  ExpectIdentical(ExecutePlanNode(mx).MoveValue(),
                  RunPlan(maxq(), DecodeThenAggregate()), "nullable max");
}

TEST(CompressedAgg, MetadataKillSwitch) {
  auto t = RleTable(10000, 47);
  StrategicOptions off;
  off.enable_metadata_aggregates = false;
  auto make = Plan::Scan(t).Aggregate({},
                                      {Agg(AggKind::kCountStar, "", "n")});
  PlanNodePtr node = StrategicOptimize(make.root(), off).MoveValue();
  EXPECT_FALSE(node->metadata_answered);
}

// ---------------------------------------------------------------------------
// SUM overflow: detected, not wrapped — identically on the row path and
// the run-fold path.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, SumOverflowKernels) {
  using agg_internal::Update;
  using agg_internal::UpdateRun;
  // Folding never fails; the state's verdict is Finalize's.
  const auto sum = [](AggStates* s) { return agg_internal::Finalize(s, 0); };
  const auto state = [] {
    return AggStates(AggKind::kSum, TypeId::kInteger, 1);
  };
  // Row path: reaching INT64_MAX exactly is fine, one more overflows.
  AggStates s = state();
  Update(&s, 0, kInt64Max - 1);
  Update(&s, 0, 1);
  ASSERT_TRUE(sum(&s).ok());
  EXPECT_EQ(sum(&s).value(), kInt64Max);
  Update(&s, 0, 1);
  auto over = sum(&s);
  EXPECT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("overflow"), std::string::npos);
  // A later row that brings the total back does not undo the overflow.
  Update(&s, 0, -1);
  EXPECT_FALSE(sum(&s).ok());
  // Negative direction.
  AggStates sn = state();
  Update(&sn, 0, kInt64Min + 2);
  ASSERT_TRUE(sum(&sn).ok());
  Update(&sn, 0, -3);
  EXPECT_FALSE(sum(&sn).ok());
  // Run path: v * count that lands exactly on the boundary is accepted,
  // one past it is rejected — matching what count row-adds would do.
  AggStates r = state();
  UpdateRun(&r, 0, kInt64Max / 7, 7);
  ASSERT_TRUE(sum(&r).ok());
  UpdateRun(&r, 0, kInt64Max / 7, 7);
  EXPECT_FALSE(sum(&r).ok());
  AggStates r2 = state();
  UpdateRun(&r2, 0, kInt64Max / 2, 3);
  EXPECT_FALSE(sum(&r2).ok());
}

TEST(CompressedAgg, SumOverflowEndToEnd) {
  const Lane big = kInt64Max / 4;
  // Two long runs of huge values: the run-fold plan and the row plan must
  // both report the overflow as an error (not a wrapped number).
  std::vector<Lane> r(20000);
  for (size_t i = 0; i < r.size(); ++i) r[i] = i < 10000 ? big : big - 1;
  auto t = FlowTable::Build(VectorSource::Ints({{"r", r}})).MoveValue();
  auto make = [&] {
    return Plan::Scan(t).Aggregate({}, {Agg(AggKind::kSum, "r", "sum")});
  };
  auto folded = ExecutePlanNode(
      StrategicOptimize(make().root(), StrategicOptions{}).MoveValue());
  EXPECT_FALSE(folded.ok());
  EXPECT_NE(folded.status().message().find("overflow"), std::string::npos);
  auto rowwise = ExecutePlanNode(
      StrategicOptimize(make().root(), DecodeThenAggregate()).MoveValue());
  EXPECT_FALSE(rowwise.ok());
  // Near the boundary but not past it: both succeed and agree.
  std::vector<Lane> ok_vals(8, kInt64Max / 8);
  auto t2 = FlowTable::Build(VectorSource::Ints({{"r", ok_vals}}))
                .MoveValue();
  auto make2 = [&] {
    return Plan::Scan(t2).Aggregate({}, {Agg(AggKind::kSum, "r", "sum")});
  };
  ExpectIdentical(RunPlan(make2(), StrategicOptions{}),
                  RunPlan(make2(), DecodeThenAggregate()), "boundary sum");
}

// ---------------------------------------------------------------------------
// Observability: counters and EXPLAIN ANALYZE notes.
// ---------------------------------------------------------------------------

TEST(CompressedAgg, CountersAndExplain) {
  observe::SetStatsEnabled(true);
  auto& reg = observe::MetricsRegistry::Global();
  {
    auto t = RleTable(20000, 53);
    const uint64_t before = reg.GetCounter("agg.runs_folded")->value();
    QueryResult result;
    std::string text =
        ExplainAnalyzePlan(Plan::Scan(t).Aggregate(
                               {"r"}, {Agg(AggKind::kSum, "r", "sum")}),
                           &result)
            .MoveValue();
    EXPECT_GT(reg.GetCounter("agg.runs_folded")->value(), before);
    EXPECT_NE(text.find("folded"), std::string::npos) << text;
    EXPECT_NE(text.find("compressed domain"), std::string::npos) << text;
  }
  {
    auto t = StringTable(4000, /*with_nulls=*/true, 59);
    const uint64_t before =
        reg.GetCounter("agg.groups_late_materialized")->value();
    QueryResult result;
    std::string text =
        ExplainAnalyzePlan(Plan::Scan(t).Aggregate(
                               {"s"}, {Agg(AggKind::kSum, "v", "sum")}),
                           &result)
            .MoveValue();
    EXPECT_GT(reg.GetCounter("agg.groups_late_materialized")->value(),
              before);
    EXPECT_NE(text.find("dictionary codes"), std::string::npos) << text;
  }
  {
    auto t = RleTable(20000, 61);
    const uint64_t before = reg.GetCounter("agg.metadata_answers")->value();
    QueryResult result;
    std::string text =
        ExplainAnalyzePlan(
            Plan::Scan(t).Aggregate({}, {Agg(AggKind::kCountStar, "", "n"),
                                         Agg(AggKind::kMax, "r", "hi")}),
            &result)
            .MoveValue();
    EXPECT_GT(reg.GetCounter("agg.metadata_answers")->value(), before);
    EXPECT_NE(text.find("answered from metadata"), std::string::npos)
        << text;
    EXPECT_EQ(result.num_rows(), 1u);
  }
  observe::SetStatsEnabled(false);
}

}  // namespace
}  // namespace tde
