#include "src/exec/hash_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>

#include "src/core/engine.h"
#include "src/exec/filter.h"
#include "src/exec/flow_table.h"
#include "src/exec/invisible_join.h"
#include "src/exec/scheduler.h"
#include "src/workload/tpch_queries.h"
#include "tests/test_util.h"

namespace tde {
namespace {

using testutil::Drain;
using testutil::Flatten;
using testutil::VectorSource;

std::shared_ptr<Table> InnerTable(const std::vector<Lane>& keys,
                                  const std::vector<Lane>& values) {
  return FlowTable::Build(VectorSource::Ints({{"k", keys}, {"v", values}}))
      .MoveValue();
}

TEST(HashJoin, TacticalFetchForDenseSortedUniqueKeys) {
  auto inner = InnerTable({10, 11, 12, 13}, {100, 110, 120, 130});
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"v"};
  HashJoin join(VectorSource::Ints({{"k", {12, 10, 99, 13}}}), inner, opts);
  auto blocks = Drain(&join);
  EXPECT_EQ(join.strategy(), JoinStrategy::kFetch);
  // 99 has no match and is dropped (many-to-one inner join).
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{12, 10, 13}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{120, 100, 130}));
}

TEST(HashJoin, FetchWithNonUnitAffineStride) {
  std::vector<Lane> keys(500), vals(500);
  for (int i = 0; i < 500; ++i) {
    keys[i] = i * 5;  // affine with stride 5
    vals[i] = i + 1;
  }
  auto inner = InnerTable(keys, vals);
  ASSERT_EQ(inner->ColumnByName("k").value()->data()->type(),
            EncodingType::kAffine);
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"v"};
  HashJoin join(VectorSource::Ints({{"k", {10, 3, 15}}}), inner, opts);
  auto blocks = Drain(&join);
  EXPECT_EQ(join.strategy(), JoinStrategy::kFetch);
  // 3 is not on the affine lattice -> dropped.
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{3, 4}));
}

TEST(HashJoin, NarrowKeysUseDirectHash) {
  auto inner = InnerTable({3, 1, 7}, {30, 10, 70});  // unsorted -> no fetch
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"v"};
  HashJoin join(VectorSource::Ints({{"k", {1, 7, 5}}}), inner, opts);
  auto blocks = Drain(&join);
  EXPECT_EQ(join.strategy(), JoinStrategy::kHashDirect);
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{10, 70}));
}

TEST(HashJoin, WideKeysFallBackToCollision) {
  // Wide scattered keys: no narrowing possible, range too large for a
  // perfect hash.
  std::vector<Lane> keys = {1LL << 40, 5, -(1LL << 50)};
  auto inner = InnerTable(keys, {1, 2, 3});
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"v"};
  HashJoin join(VectorSource::Ints({{"k", {5, 1LL << 40}}}), inner, opts);
  auto blocks = Drain(&join);
  EXPECT_EQ(join.strategy(), JoinStrategy::kHashCollision);
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{2, 1}));
}

TEST(HashJoin, ForcedStrategiesAgree) {
  std::vector<Lane> ik, iv, ok;
  for (int i = 0; i < 500; ++i) {
    ik.push_back(i * 3 % 500);  // permutation, unsorted
    iv.push_back(i);
  }
  for (int i = 0; i < 2000; ++i) ok.push_back(i % 600);  // some misses
  std::vector<std::vector<Lane>> results;
  for (JoinStrategy s :
       {JoinStrategy::kHashDirect, JoinStrategy::kHashPerfect,
        JoinStrategy::kHashCollision}) {
    auto inner = InnerTable(ik, iv);
    HashJoinOptions opts;
    opts.outer_key = "k";
    opts.inner_key = "k";
    opts.inner_payload = {"v"};
    opts.force_strategy = s;
    HashJoin join(VectorSource::Ints({{"k", ok}}), inner, opts);
    results.push_back(Flatten(Drain(&join), 1));
    EXPECT_EQ(join.strategy(), s);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(HashJoin, ForcedFetchFailsOnNonAffineInner) {
  auto inner = InnerTable({3, 1, 7}, {1, 2, 3});
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  auto join = MakeFetchJoin(VectorSource::Ints({{"k", {1}}}), inner, opts);
  EXPECT_EQ(join->Open().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoin, RejectsDuplicateInnerKeys) {
  auto inner = InnerTable({1, 2, 2}, {1, 2, 3});
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  HashJoin join(VectorSource::Ints({{"k", {1}}}), inner, opts);
  EXPECT_EQ(join.Open().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoin, StringPayloadResolvesThroughHeap) {
  auto src = VectorSource::Ints({{"k", {0, 1, 2}}});
  src->AddStringColumn("name", {"zero", "one", "two"});
  auto inner = FlowTable::Build(std::move(src)).MoveValue();
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"name"};
  HashJoin join(VectorSource::Ints({{"k", {2, 0}}}), inner, opts);
  auto blocks = Drain(&join);
  ASSERT_EQ(blocks.size(), 1u);
  const ColumnVector& names = blocks[0].columns[1];
  EXPECT_EQ(names.GetString(0), "two");
  EXPECT_EQ(names.GetString(1), "zero");
}

// --- The invisible join's code map (Sect. 4.1.1) ------------------------

TEST(CodeMap, StringColumnEntriesAreItsHeapTokens) {
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3}}});
  src->AddStringColumn("s", {"b", "a", "b", "a"});
  auto table = FlowTable::Build(std::move(src)).MoveValue();
  auto col = table->ColumnByName("s").value();
  auto map = BuildCodeMap(col, nullptr, {}).MoveValue();
  ASSERT_EQ(map->codes(), 2u);  // distinct strings
  std::vector<std::string> values;
  for (const Lane token : map->entries->values) {
    values.emplace_back(col->heap()->Get(token));
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b"}));
  // No predicate: every code passes.
  EXPECT_EQ(map->pass.count, 2u);
  EXPECT_TRUE(map->pass.interval);
}

TEST(CodeMap, InvisibleJoinFiltersMainTable) {
  // The Fig. 2 shape: the predicate runs once per dictionary entry, and
  // the scan's rows keep or drop by their code.
  auto src = VectorSource::Ints({{"id", {0, 1, 2, 3, 4, 5}}});
  src->AddStringColumn("color", {"red", "blue", "red", "green", "blue",
                                 "red"});
  auto main = FlowTable::Build(std::move(src)).MoveValue();
  const ExprPtr pred = expr::Eq(expr::Col("color"), expr::Str("red"));
  auto map =
      BuildCodeMap(main->ColumnByName("color").value(), pred, {}).MoveValue();
  EXPECT_EQ(map->codes(), 3u);
  EXPECT_EQ(map->pass.count, 1u);

  TableScanOptions scan_opts;
  scan_opts.columns = {"id", "color"};
  scan_opts.code_columns = {"color"};
  InvisibleJoin join(std::make_unique<TableScan>(main, scan_opts), "color",
                     /*emit_column=*/true, map, pred, {});
  auto blocks = Drain(&join);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{0, 2, 5}));
  for (const Block& b : blocks) {
    EXPECT_EQ(b.columns[1].dict, nullptr);  // decoded back to tokens
    for (size_t r = 0; r < b.rows(); ++r) {
      EXPECT_EQ(b.columns[1].GetString(r), "red");
    }
  }
}

TEST(CodeMap, SortedArrayDictionaryRangePassesOneCodeInterval) {
  auto col = std::make_shared<Column>("d", TypeId::kInteger);
  auto dict = std::make_shared<ArrayDictionary>();
  dict->values = {100, 200, 300, 400};
  dict->sorted = true;
  col->set_array_dict(dict);
  col->set_compression(CompressionKind::kArrayDict);
  const ExprPtr pred = expr::And(expr::Ge(expr::Col("d"), expr::Int(200)),
                                 expr::Lt(expr::Col("d"), expr::Int(400)));
  auto map = BuildCodeMap(col, pred,
                          {{expr::Add(expr::Col("d"), expr::Int(1)), "d1"}})
                 .MoveValue();
  ASSERT_EQ(map->codes(), 4u);
  // The range over a sorted dictionary is a dense code interval: what the
  // paper's fetch join stood for (Sect. 4.1.2).
  EXPECT_TRUE(map->pass.interval);
  EXPECT_EQ(map->pass.lo, 1);
  EXPECT_EQ(map->pass.hi, 2);
  ASSERT_EQ(map->computed.size(), 1u);
  EXPECT_EQ(map->computed[0].lanes, (std::vector<Lane>{101, 201, 301, 401}));
}

TEST(CodeMap, ColumnWithoutCodesEvaluatesPerRow) {
  // An uncompressed column has no dense code: the map is empty and every
  // block is filtered and computed row by row.
  auto main =
      FlowTable::Build(VectorSource::Ints({{"x", {5, 1, 7, 3, 9}}}))
          .MoveValue();
  auto col = main->ColumnByName("x").value();
  const ExprPtr pred = expr::Gt(expr::Col("x"), expr::Int(4));
  std::vector<ProjectedColumn> computed = {
      {expr::Mul(expr::Col("x"), expr::Int(10)), "x10"}};
  auto map = BuildCodeMap(col, pred, computed).MoveValue();
  EXPECT_EQ(map->entries, nullptr);
  TableScanOptions scan_opts;
  scan_opts.code_columns = {"x"};
  InvisibleJoin join(std::make_unique<TableScan>(main, scan_opts), "x",
                     /*emit_column=*/true, map, pred, computed);
  auto blocks = Drain(&join);
  EXPECT_EQ(Flatten(blocks, 0), (std::vector<Lane>{5, 7, 9}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{50, 70, 90}));
}

// --- The key index: range tasks, per-query pass flags, reuse -------------

/// Keys of an inner table whose tactical strategy is `s`, spanning more
/// than four build ranges (16,384 rows each).
std::vector<Lane> KeysFor(JoinStrategy s) {
  const int n = s == JoinStrategy::kHashDirect ? 60000 : 70000;
  std::vector<Lane> keys;
  for (int i = 0; i < n; ++i) {
    switch (s) {
      case JoinStrategy::kFetch:
        keys.push_back(1000 + i);  // dense, sorted, unique
        break;
      case JoinStrategy::kHashDirect:
        keys.push_back(i - 30000);  // 16-bit values
        break;
      case JoinStrategy::kHashPerfect:
        keys.push_back(100000 + 7 * i);  // sparse over a 3-byte range
        break;
      case JoinStrategy::kHashCollision:
        keys.push_back((Lane{i} << 34) + 5);  // wide
        break;
    }
  }
  if (s != JoinStrategy::kFetch) {
    std::shuffle(keys.begin(), keys.end(), std::mt19937(7));
  }
  return keys;
}

/// Inner table k, v, p: v = 3 * row + 1, and p the pass flag the tests'
/// inner predicate `p = 1` reads.
std::shared_ptr<Table> FlaggedInner(const std::vector<Lane>& keys,
                                    const std::vector<Lane>& pass) {
  std::vector<Lane> vals(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) vals[r] = 3 * Lane(r) + 1;
  return FlowTable::Build(
             VectorSource::Ints({{"k", keys}, {"v", vals}, {"p", pass}}))
      .MoveValue();
}

ExprPtr PassFlag() { return expr::Eq(expr::Col("p"), expr::Int(1)); }

HashJoinOptions KeyV() {
  HashJoinOptions opts;
  opts.outer_key = "k";
  opts.inner_key = "k";
  opts.inner_payload = {"v"};
  return opts;
}

TEST(JoinBuild, EveryStrategyMatchesAReferenceAtEveryPoolSize) {
  for (const JoinStrategy s :
       {JoinStrategy::kFetch, JoinStrategy::kHashDirect,
        JoinStrategy::kHashPerfect, JoinStrategy::kHashCollision}) {
    SCOPED_TRACE(JoinStrategyName(s));
    const std::vector<Lane> keys = KeysFor(s);
    std::vector<Lane> pass(keys.size());
    std::unordered_map<Lane, Lane> want;  // passing rows only
    for (size_t r = 0; r < keys.size(); ++r) {
      pass[r] = r % 5 != 0 ? 1 : 0;
      if (pass[r] == 1) want[keys[r]] = 3 * Lane(r) + 1;
    }
    std::vector<Lane> outer;
    for (size_t r = 0; r < keys.size(); r += 3) outer.push_back(keys[r]);
    outer.push_back(Lane{1} << 40);
    outer.push_back(keys[0] - 3);
    outer.push_back(kNullSentinel);
    std::vector<Lane> want_keys, want_vals;
    for (const Lane k : outer) {
      auto it = want.find(k);
      if (it == want.end()) continue;
      want_keys.push_back(k);
      want_vals.push_back(it->second);
    }
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE(workers);
      TaskScheduler pool(workers);
      TaskScheduler::ScopedOverride use(&pool);
      auto build =
          std::make_shared<JoinBuild>(FlaggedInner(keys, pass), KeyV(),
                                      PassFlag());
      HashJoin join(VectorSource::Ints({{"k", outer}}), build);
      auto blocks = Drain(&join);
      EXPECT_EQ(join.strategy(), s);
      EXPECT_EQ(join.inner_rows_passed(), want.size());
      EXPECT_EQ(Flatten(blocks, 0), want_keys);
      EXPECT_EQ(Flatten(blocks, 1), want_vals);
      EXPECT_TRUE(build->index_built());
      // One task per range for the pass flags and payload, and as many for
      // the index unless fetch arithmetic needs none.
      const uint64_t ranges = (keys.size() + 16383) / 16384;
      EXPECT_EQ(build->build_tasks(),
                s == JoinStrategy::kFetch ? ranges : 2 * ranges);
    }
  }
}

TEST(JoinBuild, RepeatedPassingKeysFailAcrossRangesAtEveryPoolSize) {
  for (const JoinStrategy s :
       {JoinStrategy::kHashDirect, JoinStrategy::kHashPerfect,
        JoinStrategy::kHashCollision}) {
    SCOPED_TRACE(JoinStrategyName(s));
    std::vector<Lane> keys = KeysFor(s);
    const size_t a = 3, b = keys.size() - 2;  // first and last range
    keys[b] = keys[a];
    const std::vector<Lane> all(keys.size(), 1);
    std::vector<Lane> but_b = all;
    but_b[b] = 0;
    for (const int workers : {1, 2, 4}) {
      SCOPED_TRACE(workers);
      TaskScheduler pool(workers);
      TaskScheduler::ScopedOverride use(&pool);
      HashJoin both(VectorSource::Ints({{"k", {keys[a]}}}),
                    FlaggedInner(keys, all), KeyV(), PassFlag());
      EXPECT_EQ(both.Open().code(), StatusCode::kInvalidArgument);
      // The repeat is harmless once its second row fails the predicate.
      HashJoin one(VectorSource::Ints({{"k", {keys[a]}}}),
                   FlaggedInner(keys, but_b), KeyV(), PassFlag());
      auto blocks = Drain(&one);
      EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{3 * Lane(a) + 1}));
    }
  }
}

TEST(JoinBuild, NullKeysMatchTheOnePassingNullRow) {
  const std::vector<Lane> keys = {5, kNullSentinel, 9, kNullSentinel};
  const std::vector<Lane> outer = {kNullSentinel, 9, 4, kNullSentinel};
  HashJoin one(VectorSource::Ints({{"k", outer}}),
               FlaggedInner(keys, {1, 1, 1, 0}), KeyV(), PassFlag());
  auto blocks = Drain(&one);
  EXPECT_EQ(Flatten(blocks, 0),
            (std::vector<Lane>{kNullSentinel, 9, kNullSentinel}));
  EXPECT_EQ(Flatten(blocks, 1), (std::vector<Lane>{4, 7, 4}));

  HashJoin two(VectorSource::Ints({{"k", outer}}),
               FlaggedInner(keys, {1, 1, 1, 1}), KeyV(), PassFlag());
  EXPECT_EQ(two.Open().code(), StatusCode::kInvalidArgument);
}

TEST(JoinBuild, EmptyInnerTableJoinsNothing) {
  HashJoin join(VectorSource::Ints({{"k", {1, kNullSentinel}}}),
                FlaggedInner({}, {}), KeyV(), PassFlag());
  EXPECT_TRUE(Drain(&join).empty());
  EXPECT_EQ(join.inner_rows(), 0u);
  EXPECT_EQ(join.inner_rows_passed(), 0u);
}

/// dim(dk, v): 1,001 unique keys from `lo`, shuffled, v = row % 7.
/// fact(fk): 20,000 rows, each joining one dim row, then `misses` rows of
/// key lo + 5000, which no dim row holds.
struct DimFact {
  std::vector<Lane> keys, vals, fact;
};

DimFact LoadDimFact(Engine* engine, int64_t lo, int misses = 0) {
  DimFact d;
  for (int64_t k = lo; k <= lo + 1000; ++k) d.keys.push_back(k);
  std::shuffle(d.keys.begin(), d.keys.end(), std::mt19937(1));
  std::string dim = "dk,v\n";
  for (size_t i = 0; i < d.keys.size(); ++i) {
    d.vals.push_back(Lane(i % 7));
    dim += std::to_string(d.keys[i]) + "," + std::to_string(i % 7) + "\n";
  }
  std::string fact = "fk\n";
  for (int i = 0; i < 20000 + misses; ++i) {
    d.fact.push_back(i < 20000 ? lo + (i * 7919) % 1001 : lo + 5000);
    fact += std::to_string(d.fact.back()) + "\n";
  }
  EXPECT_TRUE(engine->ImportTextBuffer(dim, "dim").ok());
  EXPECT_TRUE(engine->ImportTextBuffer(fact, "fact").ok());
  return d;
}

/// "n,s" of COUNT(*), SUM(v) over fact rows whose dim row passes `keep`.
template <typename Keep>
std::string Expected(const DimFact& d, Keep keep) {
  std::unordered_map<Lane, Lane> v;
  for (size_t i = 0; i < d.keys.size(); ++i) {
    if (keep(d.vals[i])) v[d.keys[i]] = d.vals[i];
  }
  int64_t n = 0, s = 0;
  for (const Lane k : d.fact) {
    auto it = v.find(k);
    if (it == v.end()) continue;
    ++n;
    s += it->second;
  }
  return std::to_string(n) + "," + std::to_string(s);
}

const char kDimJoin[] =
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM fact JOIN dim ON fact.fk = "
    "dim.dk";

std::string Answer(const Engine& engine, const std::string& sql) {
  auto r = engine.ExecuteSql(sql);
  if (!r.ok()) return r.status().ToString();
  return r.value().ValueString(0, 0) + "," + r.value().ValueString(0, 1);
}

/// The HashJoin line of `inner_key` in EXPLAIN ANALYZE of `sql`.
std::string JoinLine(const Engine& engine, const std::string& sql,
                     const std::string& inner_key) {
  auto r = engine.ExecuteSql("EXPLAIN ANALYZE " + sql);
  if (!r.ok()) return r.status().ToString();
  const std::string text = r.value().ToCsv();
  const size_t at = text.find("HashJoin(" + inner_key + ")");
  if (at == std::string::npos) return "no HashJoin(" + inner_key + ")";
  return text.substr(at, text.find('\n', at) - at);
}

TEST(JoinIndex, OptimizedDictionaryKeysJoinOnTheirValues) {
  // OptimizeTable turns the key column into an array dictionary: the build
  // must read key values, not dictionary tokens, under either strategy.
  for (const int64_t lo : {int64_t{100}, int64_t{100000}}) {
    SCOPED_TRACE(lo);
    Engine engine;
    const DimFact d = LoadDimFact(&engine, lo);
    const std::string want = Expected(d, [](Lane) { return true; });
    EXPECT_EQ(Answer(engine, kDimJoin), want);
    auto converted = engine.OptimizeTable("dim");
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    ASSERT_GE(converted.value(), 1);
    ASSERT_EQ(engine.database()
                  ->GetTable("dim")
                  .value()
                  ->ColumnByName("dk")
                  .value()
                  ->compression(),
              CompressionKind::kArrayDict);
    auto explain = engine.ExecuteSql(std::string("EXPLAIN ") + kDimJoin);
    ASSERT_TRUE(explain.ok());
    EXPECT_NE(explain.value().ToCsv().find(
                  lo == 100 ? "join(dk): hash-direct" : "join(dk): hash-perfect"),
              std::string::npos);
    EXPECT_EQ(Answer(engine, kDimJoin), want);
  }
}

TEST(JoinIndex, InnerPredicatesOverOneIndexGetTheirOwnAnswers) {
  Engine engine;
  const DimFact d = LoadDimFact(&engine, 100000);
  const std::string low = std::string(kDimJoin) + " WHERE v < 3";
  const std::string high = std::string(kDimJoin) + " WHERE v >= 3";
  EXPECT_EQ(Answer(engine, low), Expected(d, [](Lane v) { return v < 3; }));
  EXPECT_EQ(Answer(engine, high), Expected(d, [](Lane v) { return v >= 3; }));
  EXPECT_EQ(Answer(engine, kDimJoin), Expected(d, [](Lane) { return true; }));
  const std::string line = JoinLine(engine, low, "dk");
  EXPECT_NE(line.find("index=reused"), std::string::npos) << line;
  EXPECT_NE(line.find("inner_rows_passed="), std::string::npos) << line;
}

/// One dim row (dk, v) for AppendRows.
Block DimRow(Lane dk, Lane v) {
  Block row;
  for (const Lane x : {dk, v}) {
    ColumnVector cv;
    cv.type = TypeId::kInteger;
    cv.lanes = {x};
    row.columns.push_back(std::move(cv));
  }
  return row;
}

TEST(JoinIndex, QueriesSeeAppendedKeysAndFailOnAppendedRepeats) {
  Engine engine;
  DimFact d = LoadDimFact(&engine, 100, /*misses=*/40);
  EXPECT_EQ(Answer(engine, kDimJoin), Expected(d, [](Lane) { return true; }));
  // The misses' key arrives: the next query builds a new index and joins
  // it.
  ASSERT_TRUE(engine.AppendRows("dim", DimRow(5100, 6)).ok());
  d.keys.push_back(5100);
  d.vals.push_back(6);
  EXPECT_EQ(Answer(engine, kDimJoin), Expected(d, [](Lane) { return true; }));
  EXPECT_NE(JoinLine(engine, kDimJoin, "dk").find("index=reused"),
            std::string::npos);
  // A repeat of an indexed key makes the join many-to-many.
  ASSERT_TRUE(engine.AppendRows("dim", DimRow(d.keys[0], 1)).ok());
  auto r = engine.ExecuteSql(kDimJoin);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinIndex, QueriesSeeAReplacedTable) {
  Engine engine;
  const DimFact d = LoadDimFact(&engine, 100000);
  EXPECT_EQ(Answer(engine, kDimJoin), Expected(d, [](Lane) { return true; }));
  // The same keys with v doubled: the new table's index is its own.
  std::string csv = "dk,v\n";
  DimFact doubled = d;
  for (size_t i = 0; i < d.keys.size(); ++i) {
    doubled.vals[i] = 2 * d.vals[i];
    csv += std::to_string(d.keys[i]) + "," + std::to_string(doubled.vals[i]) +
           "\n";
  }
  Engine scratch;
  auto replacement = scratch.ImportTextBuffer(csv, "dim");
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(engine.database()->ReplaceTable(replacement.value()).ok());
  EXPECT_EQ(Answer(engine, kDimJoin),
            Expected(doubled, [](Lane) { return true; }));
}

TEST(JoinIndex, ExplainAnalyzeShowsTheBuildAndItsReuse) {
  Engine engine;
  ASSERT_TRUE(LoadTpchTables(&engine, 0.002).ok());
  const TpchQuery* q3 = nullptr;
  for (const TpchQuery& q : TpchQueries()) {
    if (std::string(q.id) == "Q3") q3 = &q;
  }
  ASSERT_NE(q3, nullptr);
  const std::string first = JoinLine(engine, q3->sql, "o_orderkey");
  EXPECT_NE(first.find("index=built"), std::string::npos) << first;
  EXPECT_NE(first.find("build_us="), std::string::npos) << first;
  EXPECT_NE(first.find("build_tasks="), std::string::npos) << first;
  const std::string second = JoinLine(engine, q3->sql, "o_orderkey");
  EXPECT_NE(second.find("index=reused"), std::string::npos) << second;

  // Append one order (the first one's columns under a new key, which
  // keeps the strategy, and so the index's name): the next Q3 builds the
  // index again.
  const auto strategy_note = [&] {
    auto explain = engine.ExecuteSql(std::string("EXPLAIN ") + q3->sql);
    if (!explain.ok()) return explain.status().ToString();
    const std::string text = explain.value().ToCsv();
    const size_t at = text.find("join(o_orderkey): hash-");
    return at == std::string::npos ? text
                                   : text.substr(at, text.find('\n', at) - at);
  };
  const std::string before = strategy_note();
  auto row = engine.ExecuteSql("SELECT * FROM orders LIMIT 1");
  ASSERT_TRUE(row.ok());
  Block order = row.value().blocks()[0];
  auto orders = engine.database()->GetTable("orders").value();
  const size_t key = orders->ColumnIndex("o_orderkey").value();
  order.columns[key].lanes[0] = 30000;  // past the SF 0.002 keys, 16 bits
  ASSERT_TRUE(engine.AppendRows("orders", order).ok());
  const std::string third = JoinLine(engine, q3->sql, "o_orderkey");
  EXPECT_NE(third.find("index=built"), std::string::npos) << third;
  EXPECT_EQ(strategy_note(), before);
}

}  // namespace
}  // namespace tde
