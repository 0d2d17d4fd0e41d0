// Sect. 2.3.4 / 6.5 ablation: the tactical hash-algorithm family. Width
// minimization matters because 1-2 byte keys admit a direct 64K table,
// 3-4 byte keys with a known range admit a perfect hash, and anything
// wider pays for collision detection.

#include <benchmark/benchmark.h>

#include "src/common/hash.h"
#include "src/exec/hash_aggregate.h"
#include "tests/test_util.h"

namespace tde {
namespace {

std::vector<Lane> MakeKeys(size_t n, int64_t domain) {
  std::vector<Lane> keys(n);
  uint64_t x = 88172645463325252ULL;
  for (auto& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<Lane>(x % static_cast<uint64_t>(domain));
  }
  return keys;
}

void BM_GroupMap(benchmark::State& state) {
  const auto algorithm = static_cast<HashAlgorithm>(state.range(0));
  const int64_t domain = state.range(1);
  const auto keys = MakeKeys(1 << 20, domain);
  for (auto _ : state) {
    GroupMap m(algorithm, 0, domain - 1);
    uint64_t sum = 0;
    for (Lane k : keys) sum += m.GetOrInsert(k);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
  state.SetLabel(HashAlgorithmName(algorithm));
}

BENCHMARK(BM_GroupMap)
    ->Args({static_cast<int>(HashAlgorithm::kDirect), 200})
    ->Args({static_cast<int>(HashAlgorithm::kPerfect), 200})
    ->Args({static_cast<int>(HashAlgorithm::kCollision), 200})
    ->Args({static_cast<int>(HashAlgorithm::kDirect), 50000})
    ->Args({static_cast<int>(HashAlgorithm::kPerfect), 50000})
    ->Args({static_cast<int>(HashAlgorithm::kCollision), 50000})
    ->Unit(benchmark::kMillisecond);

void BM_AggregationUnderAlgorithm(benchmark::State& state) {
  const auto algorithm = static_cast<HashAlgorithm>(state.range(0));
  const auto keys = MakeKeys(1 << 20, 1000);
  std::vector<Lane> vals(keys.size());
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<Lane>(i);
  for (auto _ : state) {
    AggregateOptions opts;
    opts.group_by = {"k"};
    opts.aggs = {{AggKind::kSum, "v", "s"}};
    opts.hash_algorithm = algorithm;
    opts.key_domains = {{0, 1000}};
    HashAggregate agg(
        testutil::VectorSource::Ints({{"k", keys}, {"v", vals}}), opts);
    std::vector<Block> out;
    if (!DrainOperator(&agg, &out).ok()) state.SkipWithError("agg failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(HashAlgorithmName(algorithm));
}

BENCHMARK(BM_AggregationUnderAlgorithm)
    ->Arg(static_cast<int>(HashAlgorithm::kDirect))
    ->Arg(static_cast<int>(HashAlgorithm::kPerfect))
    ->Arg(static_cast<int>(HashAlgorithm::kCollision))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tde

BENCHMARK_MAIN();
