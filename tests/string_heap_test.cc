#include "src/storage/string_heap.h"

#include <gtest/gtest.h>

#include "src/storage/heap_accelerator.h"

namespace tde {
namespace {

TEST(StringHeap, AddAndGet) {
  StringHeap h;
  const Lane a = h.Add("hello");
  const Lane b = h.Add("world");
  EXPECT_EQ(h.Get(a), "hello");
  EXPECT_EQ(h.Get(b), "world");
  EXPECT_EQ(h.entry_count(), 2u);
  // Tokens are byte offsets: 4-byte header + 5 chars.
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 9);
}

TEST(StringHeap, EmptyStringIsStorable) {
  StringHeap h;
  const Lane t = h.Add("");
  EXPECT_EQ(h.Get(t), "");
}

TEST(StringHeap, AddsAViewIntoItself) {
  // Each Add copies the heap's own last string while the buffer grows, so
  // the view it reads from moves with every reallocation.
  StringHeap h;
  Lane t = h.Add("self-referencing entry");
  for (int i = 0; i < 64; ++i) t = h.Add(h.Get(t));
  EXPECT_EQ(h.Get(t), "self-referencing entry");
  EXPECT_EQ(h.entry_count(), 65u);
}

TEST(StringHeap, AllTokensWalksEntries) {
  StringHeap h;
  std::vector<Lane> expect;
  for (const char* s : {"a", "bb", "ccc"}) expect.push_back(h.Add(s));
  EXPECT_EQ(h.AllTokens(), expect);
}

TEST(StringHeap, SortedHeapComparesTokensDirectly) {
  StringHeap h;
  const Lane a = h.Add("apple");
  const Lane b = h.Add("banana");
  h.set_sorted(true);
  EXPECT_LT(h.CompareTokens(a, b), 0);
  EXPECT_GT(h.CompareTokens(b, a), 0);
  EXPECT_EQ(h.CompareTokens(a, a), 0);
}

TEST(StringHeap, UnsortedHeapCollates) {
  StringHeap h(Collation::kLocale);
  const Lane b = h.Add("banana");
  const Lane a = h.Add("APPLE");
  EXPECT_FALSE(h.sorted());
  EXPECT_LT(h.CompareTokens(a, b), 0);  // case-folded order, not token order
}

TEST(StringHeap, FromPartsRestoresState) {
  StringHeap h;
  h.Add("x");
  h.Add("y");
  StringHeap copy = StringHeap::FromParts(h.buffer(), h.entry_count(), true,
                                          Collation::kBinary);
  EXPECT_EQ(copy.Get(0), "x");
  EXPECT_TRUE(copy.sorted());
  EXPECT_EQ(copy.entry_count(), 2u);
}

TEST(Accelerator, DeduplicatesStrings) {
  StringHeap h;
  HeapAccelerator acc(&h);
  const Lane a1 = acc.Add("dup");
  const Lane b = acc.Add("other");
  const Lane a2 = acc.Add("dup");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(h.entry_count(), 2u);
  EXPECT_EQ(acc.distinct_count(), 2u);
}

TEST(Accelerator, ManyStringsStayDistinct) {
  StringHeap h;
  HeapAccelerator acc(&h);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      acc.Add("value_" + std::to_string(i));
    }
  }
  EXPECT_EQ(acc.distinct_count(), 5000u);
  EXPECT_EQ(h.entry_count(), 5000u);
}

TEST(Accelerator, GivesUpPastThreshold) {
  StringHeap h;
  HeapAccelerator acc(&h, /*give_up_threshold=*/10);
  for (int i = 0; i < 50; ++i) acc.Add("s" + std::to_string(i));
  EXPECT_FALSE(acc.active());
  // After giving up, duplicates are appended blindly.
  const Lane t1 = acc.Add("s1");
  EXPECT_NE(t1, acc.Add("s1"));
}

TEST(Accelerator, DetectsSortedArrival) {
  StringHeap h;
  HeapAccelerator acc(&h);
  for (const char* s : {"alpha", "beta", "beta", "gamma"}) acc.Add(s);
  EXPECT_TRUE(acc.arrived_sorted());
  acc.Add("aardvark");
  EXPECT_FALSE(acc.arrived_sorted());
}

TEST(Accelerator, HashQualityUnderCollisions) {
  // Strings engineered to share prefixes still resolve distinctly.
  StringHeap h;
  HeapAccelerator acc(&h);
  std::vector<Lane> tokens;
  for (int i = 0; i < 1000; ++i) {
    tokens.push_back(acc.Add(std::string(20, 'x') + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(acc.Add(std::string(20, 'x') + std::to_string(i)), tokens[i]);
  }
}

}  // namespace
}  // namespace tde
