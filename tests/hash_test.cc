#include "src/common/hash.h"

#include <random>
#include <unordered_map>

#include <gtest/gtest.h>

namespace tde {
namespace {

TEST(ChooseHash, NarrowKeysUseDirect) {
  EXPECT_EQ(ChooseHashAlgorithm(1, false, 0, 0), HashAlgorithm::kDirect);
  EXPECT_EQ(ChooseHashAlgorithm(2, false, 0, 0), HashAlgorithm::kDirect);
  EXPECT_EQ(ChooseHashAlgorithm(2, true, -100, 100), HashAlgorithm::kDirect);
}

TEST(ChooseHash, MidKeysWithRangeUsePerfect) {
  EXPECT_EQ(ChooseHashAlgorithm(4, true, 0, 1000000),
            HashAlgorithm::kPerfect);
  EXPECT_EQ(ChooseHashAlgorithm(3, true, -500, 500),
            HashAlgorithm::kPerfect);
}

TEST(ChooseHash, MidKeysWithoutRangeFallBack) {
  EXPECT_EQ(ChooseHashAlgorithm(4, false, 0, 0),
            HashAlgorithm::kCollision);
}

TEST(ChooseHash, HugeRangeFallsBack) {
  EXPECT_EQ(ChooseHashAlgorithm(4, true, 0, int64_t{1} << 40),
            HashAlgorithm::kCollision);
}

TEST(ChooseHash, WideKeysNeedCollisionDetection) {
  EXPECT_EQ(ChooseHashAlgorithm(8, true, 0, 10),
            HashAlgorithm::kCollision);
}

class GroupMapBehavior : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(GroupMapBehavior, AssignsDenseStableIds) {
  GroupMap m(GetParam(), -50, 5000);
  std::mt19937_64 rng(3);
  std::unordered_map<Lane, uint32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const Lane key = static_cast<Lane>(rng() % 5000) - 50;
    const uint32_t g = m.GetOrInsert(key);
    auto [it, inserted] = reference.emplace(key, g);
    if (!inserted) {
      ASSERT_EQ(it->second, g);
    }
  }
  EXPECT_EQ(m.group_count(), reference.size());
  // The key list indexes correctly.
  for (const auto& [key, g] : reference) EXPECT_EQ(m.keys()[g], key);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, GroupMapBehavior,
    ::testing::Values(HashAlgorithm::kDirect, HashAlgorithm::kPerfect,
                      HashAlgorithm::kCollision),
    [](const auto& info) { return HashAlgorithmName(info.param); });

TEST(GroupMap, DirectAndPerfectNeverCollide) {
  GroupMap direct(HashAlgorithm::kDirect, 0, 0);
  GroupMap perfect(HashAlgorithm::kPerfect, 0, 65535);
  for (Lane k = 0; k < 65536; k += 7) {
    direct.GetOrInsert(k);
    perfect.GetOrInsert(k);
  }
  EXPECT_EQ(direct.collisions(), 0u);
  EXPECT_EQ(perfect.collisions(), 0u);
}

TEST(GroupMap, CollisionTableGrowsCorrectly) {
  GroupMap m(HashAlgorithm::kCollision, 0, 0);
  for (Lane k = 0; k < 100000; ++k) {
    ASSERT_EQ(m.GetOrInsert(k * 1000003), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(m.group_count(), 100000u);
  EXPECT_EQ(m.GetOrInsert(5 * 1000003), 5u);
  EXPECT_EQ(m.group_count(), 100000u);
}

TEST(GroupMap, NegativeKeysWorkInCollisionMode) {
  GroupMap m(HashAlgorithm::kCollision, 0, 0);
  const uint32_t a = m.GetOrInsert(-42);
  const uint32_t b = m.GetOrInsert(42);
  EXPECT_NE(a, b);
  EXPECT_EQ(m.GetOrInsert(-42), a);
}

TEST(LazySlots, ZeroUntilWrittenAndPagesIndependent) {
  LazySlots s(10000);
  EXPECT_EQ(s.size(), 10000u);
  EXPECT_EQ(s.Get(0), 0u);
  EXPECT_EQ(s.Get(9999), 0u);
  s[1023] = 7;  // last slot of the first page
  s[1024] = 8;  // first slot of the second
  s[9999] = 9;
  EXPECT_EQ(s.Get(1023), 7u);
  EXPECT_EQ(s.Get(1024), 8u);
  EXPECT_EQ(s.Get(9999), 9u);
  EXPECT_EQ(s.Get(1022), 0u);  // same page as a written slot
  EXPECT_EQ(s.Get(5000), 0u);  // a page never written
  EXPECT_EQ(s[5000], 0u);      // allocates it, zeroed
}

// A perfect-hash map over the widest range the tactical choice allows,
// holding a few keys at its ends: ids behave as for a dense table.
TEST(GroupMap, PerfectMapOverAWideRangeWithFewKeys) {
  const int64_t lo = -5;
  const int64_t hi = lo + (int64_t{1} << 24) - 1;
  GroupMap m(HashAlgorithm::kPerfect, lo, hi);
  EXPECT_EQ(m.GetOrInsert(hi), 0u);
  EXPECT_EQ(m.GetOrInsert(lo), 1u);
  EXPECT_EQ(m.GetOrInsert(hi), 0u);
  EXPECT_EQ(m.GetOrInsert(lo), 1u);
  EXPECT_EQ(m.group_count(), 2u);
  EXPECT_EQ(m.keys(), (std::vector<Lane>{hi, lo}));
}

TEST(Mix64, IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Low bits differ for adjacent inputs (needed for masked tables).
  int diffs = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    if ((Mix64(i) & 0xFF) != (Mix64(i + 1) & 0xFF)) ++diffs;
  }
  EXPECT_GT(diffs, 48);
}

}  // namespace
}  // namespace tde
