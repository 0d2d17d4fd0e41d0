// Property-based sweeps over the core invariants:
//   * whatever values go into a dynamic encoder come back out, for any
//     value distribution;
//   * the strategic rewrites never change query answers;
//   * a table written as text and imported again holds the same values;
//   * run-length random access agrees with a reference vector under
//     arbitrary access patterns.

#include <bit>
#include <limits>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/encoding/dynamic_encoder.h"
#include "src/exec/ordered_aggregate.h"
#include "src/workload/rle_data.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::VectorSource;
using namespace tde::expr;  // NOLINT

// ---------------------------------------------------------------- encoder

struct Distribution {
  const char* name;
  std::function<Lane(std::mt19937_64&, size_t)> gen;
};

std::vector<Distribution> Distributions() {
  return {
      {"constant", [](std::mt19937_64&, size_t) { return Lane{7}; }},
      {"ramp", [](std::mt19937_64&, size_t i) { return static_cast<Lane>(i); }},
      {"strided",
       [](std::mt19937_64&, size_t i) { return static_cast<Lane>(i) * 37; }},
      {"small_domain",
       [](std::mt19937_64& r, size_t) { return static_cast<Lane>(r() % 13); }},
      {"narrow_range",
       [](std::mt19937_64& r, size_t) {
         return 1000000 + static_cast<Lane>(r() % 5000);
       }},
      {"runs",
       [](std::mt19937_64& r, size_t i) {
         return static_cast<Lane>((i / (1 + r() % 3 * 0 + 700)) % 9);
       }},
      {"sorted_drift",
       [](std::mt19937_64& r, size_t i) {
         return static_cast<Lane>(i) * 11 + static_cast<Lane>(r() % 10);
       }},
      {"wild",
       [](std::mt19937_64& r, size_t) { return static_cast<Lane>(r()); }},
      {"negative",
       [](std::mt19937_64& r, size_t) {
         return -static_cast<Lane>(r() % 100000);
       }},
      {"nulls",
       [](std::mt19937_64& r, size_t) {
         return r() % 10 == 0 ? kNullSentinel
                              : static_cast<Lane>(r() % 50);
       }},
      {"mode_switch",
       [](std::mt19937_64& r, size_t i) {
         // Starts affine, turns random: forces mid-stream re-encodes.
         return i < 3000 ? static_cast<Lane>(i)
                         : static_cast<Lane>(r() % 1000000);
       }},
      {"extremes",
       [](std::mt19937_64& r, size_t) {
         switch (r() % 4) {
           case 0: return std::numeric_limits<Lane>::max();
           case 1: return std::numeric_limits<Lane>::min() + 1;
           case 2: return Lane{0};
           default: return Lane{-1};
         }
       }},
  };
}

class EncoderProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EncoderProperty, RoundTripsAnyDistribution) {
  const auto [dist_idx, seed] = GetParam();
  const Distribution dist = Distributions()[static_cast<size_t>(dist_idx)];
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919 + 13);
  const size_t n = 5000 + rng() % 3000;
  std::vector<Lane> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = dist.gen(rng, i);

  DynamicEncoder enc(DynamicEncoderOptions{});
  for (size_t i = 0; i < n; i += kBlockSize) {
    const size_t take = std::min<size_t>(kBlockSize, n - i);
    ASSERT_TRUE(enc.Append(values.data() + i, take).ok());
  }
  auto col = enc.Finalize();
  ASSERT_TRUE(col.ok()) << dist.name << ": " << col.status().ToString();
  ASSERT_EQ(col.value().stream->size(), n);
  std::vector<Lane> back(n);
  ASSERT_TRUE(col.value().stream->Get(0, n, back.data()).ok());
  EXPECT_EQ(back, values) << dist.name;

  // Serialize/reopen preserves everything too.
  auto reopened = EncodedStream::Open(col.value().stream->buffer());
  ASSERT_TRUE(reopened.ok()) << dist.name;
  std::vector<Lane> back2(n);
  ASSERT_TRUE(reopened.value()->Get(0, n, back2.data()).ok());
  EXPECT_EQ(back2, values) << dist.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EncoderProperty,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 3)),
    [](const auto& info) {
      return std::string(
                 Distributions()[static_cast<size_t>(
                                     std::get<0>(info.param))]
                     .name) +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------ plan equivalence

class RankJoinEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RankJoinEquivalence, RewrittenPlansAnswerIdentically) {
  const int selectivity = GetParam();
  static const auto table = MakeRleTable(200000).MoveValue();
  auto make = [&]() {
    return Plan::Scan(table)
        .Filter(Gt(Col("secondary"), Int(100 - selectivity)))
        .Aggregate({"secondary"}, {{AggKind::kMax, "primary", "mx"},
                                   {AggKind::kMin, "primary", "mn"},
                                   {AggKind::kCountStar, "", "n"}});
  };
  StrategicOptions off;
  off.enable_rank_join = false;
  off.enable_invisible_join = false;
  auto control = ExecutePlan(make(), off).MoveValue();
  auto indexed = ExecutePlan(make()).MoveValue();
  ASSERT_EQ(control.num_rows(), indexed.num_rows()) << selectivity;
  std::map<Lane, std::vector<Lane>> c, x;
  for (uint64_t r = 0; r < control.num_rows(); ++r) {
    c[control.Value(r, 0)] = {control.Value(r, 1), control.Value(r, 2),
                              control.Value(r, 3)};
    x[indexed.Value(r, 0)] = {indexed.Value(r, 1), indexed.Value(r, 2),
                              indexed.Value(r, 3)};
  }
  EXPECT_EQ(c, x) << selectivity;
}

INSTANTIATE_TEST_SUITE_P(Selectivities, RankJoinEquivalence,
                         ::testing::Values(0, 1, 5, 33, 50, 99, 100));

class InvisibleJoinEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(InvisibleJoinEquivalence, RewrittenPlansAnswerIdentically) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed));
  const char* colors[] = {"red", "green", "blue", "cyan", "violet"};
  std::string csv = "color,v\n";
  for (int i = 0; i < 5000; ++i) {
    csv += colors[rng() % 5];
    csv += ",";
    csv += std::to_string(rng() % 1000);
    csv += "\n";
  }
  Engine engine;
  auto t = engine.ImportTextBuffer(csv, "t").MoveValue();
  const char* target = colors[rng() % 5];
  auto make = [&]() {
    return Plan::Scan(t)
        .Filter(Eq(Col("color"), Str(target)))
        .Aggregate({}, {{AggKind::kSum, "v", "s"},
                        {AggKind::kCountStar, "", "n"}});
  };
  StrategicOptions off;
  off.enable_invisible_join = false;
  auto control = engine.Execute(make(), off).MoveValue();
  auto invisible = engine.Execute(make()).MoveValue();
  EXPECT_EQ(control.Value(0, 0), invisible.Value(0, 0)) << target;
  EXPECT_EQ(control.Value(0, 1), invisible.Value(0, 1)) << target;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvisibleJoinEquivalence,
                         ::testing::Range(0, 8));

// ----------------------------------------------------- text round trips

class TextRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TextRoundTrip, ImportedValuesMatchGenerated) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 101 + 7);
  const size_t rows = 500 + rng() % 2000;
  std::vector<int64_t> ints(rows);
  std::vector<double> reals(rows);
  std::vector<int64_t> dates(rows);
  std::vector<std::string> strs(rows);
  std::string csv = "i,r,d,s\n";
  for (size_t i = 0; i < rows; ++i) {
    ints[i] = static_cast<int64_t>(rng() % 2000000) - 1000000;
    reals[i] = static_cast<double>(rng() % 1000000) / 64.0;
    dates[i] = static_cast<int64_t>(rng() % 20000);
    strs[i] = "w" + std::to_string(rng() % 300);
    csv += std::to_string(ints[i]) + "," + std::to_string(reals[i]) + "," +
           FormatLane(TypeId::kDate, dates[i]) + "," + strs[i] + "\n";
  }
  Engine engine;
  auto t = engine.ImportTextBuffer(csv, "t").MoveValue();
  ASSERT_EQ(t->rows(), rows);
  auto result = engine.Execute(Plan::Scan(t)).MoveValue();
  for (size_t i = 0; i < rows; i += 97) {
    EXPECT_EQ(result.Value(i, 0), ints[i]);
    EXPECT_DOUBLE_EQ(
        std::bit_cast<double>(static_cast<uint64_t>(result.Value(i, 1))),
        reals[i]);
    EXPECT_EQ(result.Value(i, 2), dates[i]);
    EXPECT_EQ(result.ValueString(i, 3), strs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextRoundTrip, ::testing::Range(0, 5));

// --------------------------------------------------- RLE random access

TEST(RleAccessProperty, ArbitrarySeekPatternMatchesReference) {
  std::mt19937_64 rng(4242);
  std::vector<Lane> reference;
  for (int i = 0; i < 500; ++i) {
    reference.insert(reference.end(), 1 + rng() % 200,
                     static_cast<Lane>(rng() % 30));
  }
  EncodingStats stats;
  stats.Update(reference.data(), reference.size());
  auto s = EncodedStream::Create(EncodingType::kRunLength, 8, true, stats, 0)
               .MoveValue();
  ASSERT_TRUE(s->Append(reference.data(), reference.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  for (int i = 0; i < 500; ++i) {
    const uint64_t start = rng() % reference.size();
    const size_t len = 1 + rng() % (reference.size() - start);
    std::vector<Lane> got(len);
    ASSERT_TRUE(s->Get(start, len, got.data()).ok());
    for (size_t j = 0; j < len; ++j) {
      ASSERT_EQ(got[j], reference[start + j]) << start << "+" << j;
    }
  }
}

// --------------------------------------- segmented/monolithic equivalence

// A segmented column is an implementation detail: for every value
// distribution and segment size (including a 1-row final segment and the
// TDE_SEGMENT_ROWS env knob), scans, filters and aggregates must answer
// exactly as the monolithic build does.
class SegmentedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SegmentedEquivalence, QueriesAnswerIdentically) {
  const auto [dist_idx, segment_rows] = GetParam();
  const Distribution dist = Distributions()[static_cast<size_t>(dist_idx)];
  std::mt19937_64 rng(static_cast<uint64_t>(dist_idx) * 31 +
                      static_cast<uint64_t>(segment_rows));
  const size_t n = 701;  // 701 = 100*7 + 1: a 1-row tail at segment_rows=7
  std::vector<Lane> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = dist.gen(rng, i);
    y[i] = static_cast<Lane>(i);
  }

  auto build = [&](uint64_t seg) {
    auto make_col = [&](const char* name, const std::vector<Lane>& v) {
      ColumnBuildInput in;
      in.name = name;
      in.type = TypeId::kInteger;
      in.lanes = v;
      FlowTableOptions opt;
      opt.segment_rows = seg;
      return BuildColumn(std::move(in), opt).MoveValue();
    };
    auto t = std::make_shared<Table>(seg == 0 ? "mono" : "seg");
    t->AddColumn(make_col("x", x));
    t->AddColumn(make_col("y", y));
    return t;
  };

  auto mono = build(0);
  std::shared_ptr<Table> seg;
  if (segment_rows == 7) {
    // Exercise the TDE_SEGMENT_ROWS knob instead of the explicit option,
    // preserving whatever value the suite itself runs under.
    const char* prev = getenv("TDE_SEGMENT_ROWS");
    const std::string saved = prev != nullptr ? prev : "";
    setenv("TDE_SEGMENT_ROWS", "7", 1);
    FlowTableOptions defaulted;
    EXPECT_EQ(defaulted.segment_rows, 0u);
    seg = build(7);  // explicit and env agree; env read is per-build
    if (prev != nullptr) {
      setenv("TDE_SEGMENT_ROWS", saved.c_str(), 1);
    } else {
      unsetenv("TDE_SEGMENT_ROWS");
    }
  } else {
    seg = build(static_cast<uint64_t>(segment_rows));
  }
  ASSERT_GE(seg->column(0).SegmentShapes().size(), 2u) << dist.name;

  auto both = [&](Plan (*make)(std::shared_ptr<Table>, Lane, Lane), Lane a,
                  Lane b) {
    auto c = ExecutePlan(make(mono, a, b)).MoveValue();
    auto s = ExecutePlan(make(seg, a, b)).MoveValue();
    ASSERT_EQ(c.num_rows(), s.num_rows()) << dist.name;
    for (uint64_t r = 0; r < c.num_rows(); ++r) {
      for (size_t col = 0; col < c.num_columns(); ++col) {
        ASSERT_EQ(c.Value(r, col), s.Value(r, col))
            << dist.name << " row " << r << " col " << col;
      }
    }
  };

  // Full scan: every value, in row order.
  both(
      [](std::shared_ptr<Table> t, Lane, Lane) { return Plan::Scan(t); }, 0,
      0);

  // Range filters at random thresholds (some empty, some everything).
  // Saturate at the Lane extremes: a null-heavy distribution can pick the
  // INT64_MIN sentinel as pivot.
  for (int trial = 0; trial < 4; ++trial) {
    const Lane pivot = x[rng() % n];
    const Lane width = static_cast<Lane>(rng() % 1000);
    const Lane kMin = std::numeric_limits<Lane>::min();
    const Lane kMax = std::numeric_limits<Lane>::max();
    const Lane lo = pivot < kMin + width ? kMin : pivot - width;
    const Lane hi = pivot > kMax - width ? kMax : pivot + width;
    both(
        [](std::shared_ptr<Table> t, Lane a, Lane b) {
          return Plan::Scan(t).Filter(
              And(Ge(Col("x"), Int(a)), Le(Col("x"), Int(b))));
        },
        lo, hi);
  }

  // Aggregates over a filtered scan.
  both(
      [](std::shared_ptr<Table> t, Lane a, Lane) {
        return Plan::Scan(t)
            .Filter(Ge(Col("x"), Int(a)))
            .Aggregate({}, {{AggKind::kSum, "y", "s"},
                            {AggKind::kCount, "x", "cnt"},
                            {AggKind::kMin, "x", "mn"},
                            {AggKind::kMax, "x", "mx"}});
      },
      x[rng() % n], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SegmentedEquivalence,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(7, 64, 256)),
    [](const auto& info) {
      return std::string(
                 Distributions()[static_cast<size_t>(
                                     std::get<0>(info.param))]
                     .name) +
             "_seg" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------- aggregation equivalence

TEST(AggregationProperty, OrderedEqualsHashOnSortedInputs) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Lane> keys, vals;
    Lane k = 0;
    while (keys.size() < 20000) {
      k += 1 + rng() % 3;
      const size_t run = 1 + rng() % 50;
      for (size_t i = 0; i < run; ++i) {
        keys.push_back(k);
        vals.push_back(static_cast<Lane>(rng() % 100000));
      }
    }
    AggregateOptions opts;
    opts.group_by = {"k"};
    opts.aggs = {{AggKind::kSum, "v", "s"},
                 {AggKind::kMedian, "v", "med"},
                 {AggKind::kCountDistinct, "v", "cd"}};
    OrderedAggregate ordered(VectorSource::Ints({{"k", keys}, {"v", vals}}),
                             opts);
    HashAggregate hashed(VectorSource::Ints({{"k", keys}, {"v", vals}}),
                         opts);
    auto ob = testutil::Drain(&ordered);
    auto hb = testutil::Drain(&hashed);
    for (size_t c = 0; c < 4; ++c) {
      ASSERT_EQ(testutil::Flatten(ob, c), testutil::Flatten(hb, c))
          << "trial " << trial << " col " << c;
    }
  }
}

}  // namespace
}  // namespace tde
