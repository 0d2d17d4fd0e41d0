#include "src/encoding/bitpack.h"

#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace tde {
namespace {

TEST(BitPack, PackedBytesFormula) {
  EXPECT_EQ(PackedBytes(0, 7), 0u);
  EXPECT_EQ(PackedBytes(8, 1), 1u);
  EXPECT_EQ(PackedBytes(9, 1), 2u);
  EXPECT_EQ(PackedBytes(32, 5), 20u);
  EXPECT_EQ(PackedBytes(1024, 0), 0u);
  EXPECT_EQ(PackedBytes(3, 64), 24u);
}

TEST(BitPack, ZeroBitsDecodesToZeros) {
  std::vector<uint64_t> out(16, 123);
  UnpackBits(nullptr, 16, 0, out.data());
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
}

TEST(BitPack, SingleValueLowBits) {
  uint64_t v = 0b101;
  std::vector<uint8_t> buf(PackedBytes(1, 3));
  PackBits(&v, 1, 3, buf.data());
  EXPECT_EQ(buf[0], 0b101);
  uint64_t back = 0;
  UnpackBits(buf.data(), 1, 3, &back);
  EXPECT_EQ(back, v);
}

TEST(BitPack, ValuesCrossByteBoundaries) {
  // 3 values x 5 bits = 15 bits -> 2 bytes.
  std::vector<uint64_t> vals = {0b10101, 0b01010, 0b11111};
  std::vector<uint8_t> buf(PackedBytes(vals.size(), 5));
  ASSERT_EQ(buf.size(), 2u);
  PackBits(vals.data(), vals.size(), 5, buf.data());
  std::vector<uint64_t> back(vals.size());
  UnpackBits(buf.data(), back.size(), 5, back.data());
  EXPECT_EQ(back, vals);
}

TEST(BitPack, MasksHighBitsOnPack) {
  uint64_t v = 0xFF;  // only the low 4 bits should survive
  std::vector<uint8_t> buf(PackedBytes(1, 4));
  PackBits(&v, 1, 4, buf.data());
  uint64_t back = 0;
  UnpackBits(buf.data(), 1, 4, &back);
  EXPECT_EQ(back, 0xFu);
}

class BitPackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitPackRoundTrip, RandomValues) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  std::mt19937_64 rng(42 + bits);
  const size_t n = 1024;
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  std::vector<uint64_t> vals(n);
  for (auto& v : vals) v = rng() & mask;
  std::vector<uint8_t> buf(PackedBytes(n, bits));
  PackBits(vals.data(), n, bits, buf.data());
  std::vector<uint64_t> back(n);
  UnpackBits(buf.data(), n, bits, back.data());
  EXPECT_EQ(back, vals) << "bits=" << static_cast<int>(bits);
}

TEST_P(BitPackRoundTrip, ExtremeValues) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  if (bits == 0) GTEST_SKIP();
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  std::vector<uint64_t> vals = {0, mask, 0, mask, mask, 0, 1, mask - 1};
  std::vector<uint8_t> buf(PackedBytes(vals.size(), bits));
  PackBits(vals.data(), vals.size(), bits, buf.data());
  std::vector<uint64_t> back(vals.size());
  UnpackBits(buf.data(), back.size(), bits, back.data());
  EXPECT_EQ(back, vals);
}

TEST_P(BitPackRoundTrip, ExactlySizedBufferAtEveryLength) {
  // The word-at-a-time kernel loads 8 bytes per value; the input buffer
  // here ends exactly at PackedBytes(n, bits), so a load past the packed
  // data reads outside the allocation (the ASan stage reports it).
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t mask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  std::vector<size_t> lengths = {1023, 1024, 1025};
  for (size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  std::mt19937_64 rng(7 * bits + 1);
  for (const size_t n : lengths) {
    std::vector<uint64_t> vals(n);
    for (auto& v : vals) v = rng() & mask;
    if (bits > 0) vals[n - 1] = mask;  // all ones in the last field
    const size_t bytes = PackedBytes(n, bits);
    std::unique_ptr<uint8_t[]> buf(new uint8_t[bytes > 0 ? bytes : 1]);
    PackBits(vals.data(), n, bits, buf.get());
    std::vector<uint64_t> back(n, 0xdeadbeef);
    UnpackBits(buf.get(), n, bits, back.data());
    EXPECT_EQ(back, vals) << "bits=" << static_cast<int>(bits) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackRoundTrip,
                         ::testing::Range(0, 65));

}  // namespace
}  // namespace tde
