// Width-parameterized stream coverage: every encoding must round-trip at
// every element width it can be narrowed to, and the dictionary's code map
// must survive adversarial loads and undo a failed append.

#include <limits>
#include <random>
#include <unordered_set>

#include <gtest/gtest.h>

#include "src/encoding/manipulate.h"
#include "src/encoding/streams_internal.h"

namespace tde {
namespace {

class WidthSweep
    : public ::testing::TestWithParam<std::tuple<EncodingType, int>> {};

TEST_P(WidthSweep, RoundTripsAtWidth) {
  const auto [type, width_i] = GetParam();
  const uint8_t width = static_cast<uint8_t>(width_i);
  // Values that fit the signed range of `width`.
  const int64_t hi = width >= 8 ? 100000 : (int64_t{1} << (8 * width - 1)) - 1;
  const int64_t lo = -hi - 1;
  std::mt19937_64 rng(width * 7 + static_cast<int>(type));
  std::vector<Lane> v(4000);
  for (size_t i = 0; i < v.size(); ++i) {
    switch (type) {
      case EncodingType::kAffine:
        v[i] = lo + static_cast<Lane>(i) % (hi - lo);
        break;
      case EncodingType::kDelta:
        v[i] = lo + static_cast<Lane>(i * 3) % (hi - lo);
        break;
      case EncodingType::kRunLength:
        v[i] = lo + static_cast<Lane>(i / 100) % 50;
        break;
      default:
        v[i] = lo + static_cast<Lane>(rng() % 64);
        break;
    }
  }
  if (type == EncodingType::kAffine) {
    // Affine needs an exact progression that stays inside the width: use
    // the widest constant-step ramp that fits, then hold at the top.
    const Lane step = 1;
    for (size_t i = 0; i < v.size(); ++i) {
      const Lane val = lo + static_cast<Lane>(i) * step;
      v[i] = val <= hi ? val : v[i - 1];
    }
    // A held tail breaks the affine progression; truncate to the ramp.
    const size_t ramp = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(v.size()), hi - lo + 1));
    v.resize(ramp);
  }
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto r = EncodedStream::Create(type, width, /*sign_extend=*/true, stats, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto s = r.MoveValue();
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  EXPECT_EQ(s->width(), width);
  std::vector<Lane> back(v.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
  // Reopen from bytes too.
  auto reopened = EncodedStream::Open(s->buffer()).MoveValue();
  ASSERT_TRUE(reopened->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, WidthSweep,
    ::testing::Combine(
        ::testing::Values(EncodingType::kUncompressed,
                          EncodingType::kFrameOfReference,
                          EncodingType::kDelta, EncodingType::kDictionary,
                          EncodingType::kAffine, EncodingType::kRunLength),
        ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      std::string n = EncodingName(std::get<0>(info.param));
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(DictCodeMap, SurvivesFullCapacityRandomKeys) {
  // Fill a maximal dictionary (2^15 entries) with adversarially wide keys;
  // every index must resolve back to its key.
  std::mt19937_64 rng(31337);
  std::vector<Lane> keys;
  keys.reserve(kMaxDictEntries);
  while (keys.size() < kMaxDictEntries) {
    keys.push_back(static_cast<Lane>(rng()));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  auto s = internal::DictStream::Make(8, /*sign_extend=*/true, /*bits=*/15);
  ASSERT_TRUE(s->Append(keys.data(), keys.size()).ok());
  ASSERT_TRUE(s->Finalize().ok());
  EXPECT_EQ(s->entry_count(), keys.size());
  std::vector<Lane> back(keys.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, keys);
}

TEST(DictCodeMap, ClusteredKeysStillResolve) {
  // Sequential keys sharing high bits stress the probe sequences.
  std::vector<Lane> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<Lane>(i) + (int64_t{1} << 40);
  }
  auto s = internal::DictStream::Make(8, true, 14);
  ASSERT_TRUE(s->Append(keys.data(), keys.size()).ok());
  std::vector<Lane> back(keys.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, keys);
}

TEST(DictCodeMap, FullDictionaryStaysSmallAndKeepsItsCodes) {
  // 2^15 random keys in insertion order. The map is sized for the stream's
  // capacity and never grows past 2^16 slots; codes are assigned in
  // insertion order whatever the map's layout.
  std::mt19937_64 rng(8);
  std::vector<Lane> keys;
  std::unordered_set<Lane> seen;
  while (keys.size() < kMaxDictEntries) {
    const Lane k = static_cast<Lane>(rng());
    if (seen.insert(k).second) keys.push_back(k);
  }
  auto s = internal::DictStream::Make(8, /*sign_extend=*/true, /*bits=*/15);
  ASSERT_TRUE(s->Append(keys.data(), keys.size()).ok());
  EXPECT_EQ(s->map_slots(), uint64_t{1} << 16);
  std::vector<Lane> codes(keys.size());
  ASSERT_TRUE(s->GetCodes(0, codes.size(), codes.data()));
  for (size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(codes[i], static_cast<Lane>(i)) << "row " << i;
  }
  ASSERT_TRUE(s->Finalize().ok());
  EXPECT_EQ(s->map_slots(), 0u);  // finalized: decode only
  auto reopened = EncodedStream::Open(s->buffer());
  ASSERT_TRUE(reopened.ok());
  const auto* r = static_cast<const internal::DictStream*>(
      reopened.value().get());
  EXPECT_EQ(r->map_slots(), 0u);  // opening builds no map
  std::vector<Lane> back(keys.size());
  ASSERT_TRUE(r->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, keys);
  ASSERT_TRUE(r->GetCodes(0, codes.size(), codes.data()));
  for (size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(codes[i], static_cast<Lane>(i)) << "row " << i;
  }
}

/// What a dictionary stream reads back: entries, the codes and values of
/// every row.
struct DictState {
  std::vector<Lane> entries;
  std::vector<Lane> codes;
  std::vector<Lane> values;
  bool operator==(const DictState&) const = default;
};

DictState ReadDict(const internal::DictStream& s) {
  DictState st;
  st.entries = s.Entries();
  st.codes.resize(s.size());
  st.values.resize(s.size());
  EXPECT_TRUE(s.GetCodes(0, st.codes.size(), st.codes.data()));
  EXPECT_TRUE(s.Get(0, st.values.size(), st.values.data()).ok());
  return st;
}

TEST(DictCodeMap, FailedAppendLeavesTheStreamAsItWas) {
  // A 3-bit, 1-byte dictionary holding 5 entries over 1,030 committed rows
  // (one packed block and a staged tail). Each failing append adds new
  // entries before it fails: once on its 4th new entry (capacity 8), once
  // on a value too wide for one byte. Either way the stream must read as
  // if the append never ran, and take the next append as before.
  for (const bool too_wide : {false, true}) {
    auto s = internal::DictStream::Make(1, /*sign_extend=*/false, /*bits=*/3);
    std::vector<Lane> committed;
    for (int i = 0; i < 1030; ++i) committed.push_back(10 * (i % 5));
    ASSERT_TRUE(s->Append(committed.data(), committed.size()).ok());
    const DictState before = ReadDict(*s);
    ASSERT_EQ(before.entries.size(), 5u);

    std::vector<Lane> failing = {20, 100, 0, 101, 102};
    failing.push_back(too_wide ? 300 : 103);
    failing.push_back(104);
    const Status st = s->Append(failing.data(), failing.size());
    EXPECT_EQ(st.code(), too_wide ? StatusCode::kOutOfRange
                                  : StatusCode::kCapacityExceeded)
        << st.ToString();
    EXPECT_EQ(s->entry_count(), 5u);
    EXPECT_TRUE(ReadDict(*s) == before);

    // The next append codes its new values from where the stream stood.
    const std::vector<Lane> next = {30, 101, 102, 40};
    ASSERT_TRUE(s->Append(next.data(), next.size()).ok());
    const DictState after = ReadDict(*s);
    EXPECT_EQ(after.entries,
              (std::vector<Lane>{0, 10, 20, 30, 40, 101, 102}));
    const std::vector<Lane> tail(after.codes.end() - 4, after.codes.end());
    EXPECT_EQ(tail, (std::vector<Lane>{3, 5, 6, 4}));
    ASSERT_TRUE(s->Finalize().ok());
    std::vector<Lane> values(s->size());
    ASSERT_TRUE(s->Get(0, values.size(), values.data()).ok());
    std::vector<Lane> want = committed;
    want.insert(want.end(), next.begin(), next.end());
    EXPECT_EQ(values, want);
  }
}

TEST(DictCodeMap, TooWideValueOutranksAFullDictionary) {
  // The batch overflows the capacity before it reaches a too-wide value:
  // the too-wide value decides the status, as a whole-batch check would.
  auto s = internal::DictStream::Make(1, /*sign_extend=*/false, /*bits=*/1);
  const std::vector<Lane> batch = {1, 2, 3, 400};
  EXPECT_EQ(s->Append(batch.data(), batch.size()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(s->entry_count(), 0u);
  EXPECT_EQ(s->size(), 0u);
}

class DictEntryWidths
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DictEntryWidths, GatherDecodesEveryEntry) {
  // The per-width gather sign- or zero-extends each entry exactly like
  // LoadLane, for the extremes of the width's range and (8-byte signed)
  // the NULL sentinel stored as an ordinary entry.
  const auto [width_i, sign_extend] = GetParam();
  const uint8_t width = static_cast<uint8_t>(width_i);
  const int bits = 8 * width;
  std::vector<Lane> domain;
  if (sign_extend) {
    const Lane lo = width == 8 ? std::numeric_limits<Lane>::min()
                               : -(Lane{1} << (bits - 1));
    const Lane hi = width == 8 ? std::numeric_limits<Lane>::max()
                               : (Lane{1} << (bits - 1)) - 1;
    domain = {lo, lo + 1, -1, 0, 1, hi - 1, hi};
    if (width == 8) domain.push_back(kNullSentinel + 7);
  } else {
    const Lane hi = width == 8 ? static_cast<Lane>(~uint64_t{0})
                               : static_cast<Lane>((uint64_t{1} << bits) - 1);
    domain = {0, 1, 2, hi - 1, hi};
  }
  if (sign_extend && width == 8) {
    EXPECT_EQ(domain[0], kNullSentinel);  // the sentinel is an entry
  }
  std::mt19937_64 rng(width * 2 + sign_extend);
  std::vector<Lane> v(3 * kBlockSize + 77);  // finalized blocks + a tail
  for (Lane& x : v) x = domain[rng() % domain.size()];
  auto s = internal::DictStream::Make(width, sign_extend, /*bits=*/4);
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  std::vector<Lane> back(v.size());
  ASSERT_TRUE(s->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
  ASSERT_TRUE(s->Finalize().ok());
  auto reopened = EncodedStream::Open(s->buffer());
  ASSERT_TRUE(reopened.ok());
  std::fill(back.begin(), back.end(), 0);
  ASSERT_TRUE(reopened.value()->Get(0, back.size(), back.data()).ok());
  EXPECT_EQ(back, v);
  // Unaligned windows go through the staging block.
  ASSERT_TRUE(reopened.value()->Get(1000, 100, back.data()).ok());
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(back[i], v[1000 + i]);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DictEntryWidths,
    ::testing::Combine(::testing::Values(1, 2, 4, 8), ::testing::Bool()),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_signed" : "_unsigned");
    });

TEST(NarrowedStreams, AppendAfterNarrowRespectsWidth) {
  // A narrowed dictionary stream must reject entries that no longer fit.
  std::vector<Lane> v = {1, 2, 3};
  EncodingStats stats;
  stats.Update(v.data(), v.size());
  auto s = EncodedStream::Create(EncodingType::kDictionary, 8, true, stats, 2)
               .MoveValue();
  ASSERT_TRUE(s->Append(v.data(), v.size()).ok());
  ASSERT_TRUE(NarrowStreamWidth(s->mutable_buffer(), true).ok());
  ASSERT_EQ(s->width(), 1);
  Lane wide = 300;
  EXPECT_EQ(s->Append(&wide, 1).code(), StatusCode::kOutOfRange);
  Lane fits = 4;
  EXPECT_TRUE(s->Append(&fits, 1).ok());
}

}  // namespace
}  // namespace tde
