//===- tests/cache_test.cpp - cache and directory unit tests ---------------===//

#include "cache/Cache.h"
#include "cache/Directory.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <map>

using namespace offchip;

TEST(Cache, MissThenHit) {
  Cache C(1024, 64, 2);
  unsigned Hits = 0, Misses = 0;
  for (int I = 0; I < 2; ++I) {
    if (C.access(7, false)) {
      ++Hits;
    } else {
      ++Misses;
      C.insert(7, false);
    }
  }
  EXPECT_EQ(Hits, 1u);
  EXPECT_EQ(Misses, 1u);
}

TEST(Cache, ContainsDoesNotPerturbStats) {
  // Fully-associative 2-line cache: contains() neither inserts a missing
  // line nor refreshes the LRU order of a resident one.
  Cache C(128, 64, 2);
  C.insert(1, false);
  C.insert(2, false);
  EXPECT_TRUE(C.contains(1));
  EXPECT_FALSE(C.contains(3));
  EXPECT_FALSE(C.access(3, false));
  Cache::Eviction Ev = C.insert(3, false);
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 1u); // still LRU despite the contains() probe
  EXPECT_TRUE(C.access(2, false));
  EXPECT_TRUE(C.access(3, false));
}

TEST(Cache, LruEvictionOrder) {
  // Fully-associative 2-line cache.
  Cache C(128, 64, 2);
  C.insert(10, false);
  C.insert(20, false);
  C.access(10, false); // 10 is now MRU
  Cache::Eviction Ev = C.insert(30, false);
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 20u);
  EXPECT_TRUE(C.contains(10));
  EXPECT_TRUE(C.contains(30));
}

TEST(Cache, DirtyTracking) {
  Cache C(128, 64, 2);
  C.insert(1, /*IsWrite=*/true);
  C.insert(2, false);
  C.access(2, /*IsWrite=*/true); // dirties line 2
  Cache::Eviction Ev = C.insert(3, false); // evicts LRU (line 1)
  ASSERT_TRUE(Ev.Valid);
  EXPECT_EQ(Ev.LineAddr, 1u);
  EXPECT_TRUE(Ev.Dirty);
}

TEST(Cache, MarkDirtyWithoutStats) {
  Cache C(128, 64, 2);
  C.insert(5, false);
  EXPECT_TRUE(C.markDirty(5));
  EXPECT_FALSE(C.markDirty(6));
  EXPECT_FALSE(C.access(6, false)); // markDirty never inserts
  Cache::Eviction Ev = C.insert(7, false);
  Cache::Eviction Ev2 = C.insert(8, false);
  // One of the two evictions carries line 5, dirty.
  bool Seen = (Ev.Valid && Ev.LineAddr == 5 && Ev.Dirty) ||
              (Ev2.Valid && Ev2.LineAddr == 5 && Ev2.Dirty);
  EXPECT_TRUE(Seen);
}

TEST(Cache, Invalidate) {
  Cache C(128, 64, 2);
  C.insert(9, true);
  EXPECT_TRUE(C.invalidate(9));
  EXPECT_FALSE(C.contains(9));
  EXPECT_FALSE(C.invalidate(9));
}

TEST(Cache, DoubleInsertRefreshesInsteadOfDuplicating) {
  Cache C(128, 64, 2);
  C.insert(4, false);
  Cache::Eviction Ev = C.insert(4, true);
  EXPECT_FALSE(Ev.Valid);
  // Still only one way occupied: inserting two more lines evicts only
  // one line and keeps 4 or evicts 4 exactly once.
  C.insert(5, false);
  Cache::Eviction Ev2 = C.insert(6, false);
  ASSERT_TRUE(Ev2.Valid);
}

TEST(Cache, HashingSpreadsResidueClasses) {
  // Lines congruent mod 4 (the MC-interleave pathology) must spread across
  // sets rather than pile into one: a 16-set cache with 4-way associativity
  // must retain far more than 4 of 32 such lines.
  Cache C(16 * 4 * 64, 64, 4);
  for (std::uint64_t I = 0; I < 32; ++I)
    C.insert(I * 4, false);
  unsigned Resident = 0;
  for (std::uint64_t I = 0; I < 32; ++I)
    if (C.contains(I * 4))
      ++Resident;
  EXPECT_GE(Resident, 24u);
}

// Property: the cache never holds more lines than its capacity and always
// agrees with a reference model on residency counts.
class CacheProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheProperty, NeverExceedsCapacity) {
  const unsigned Lines = 32;
  Cache C(Lines * 64, 64, 4);
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  std::map<std::uint64_t, bool> Inserted;
  for (int I = 0; I < 2000; ++I) {
    std::uint64_t Line = Rng.nextBelow(200);
    if (!C.access(Line, false))
      C.insert(Line, Rng.nextBelow(2) == 0);
    Inserted[Line] = true;
  }
  unsigned Resident = 0;
  for (const auto &KV : Inserted)
    if (C.contains(KV.first))
      ++Resident;
  EXPECT_LE(Resident, Lines);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheProperty, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Directory
//===----------------------------------------------------------------------===//

TEST(Directory, AddFindRemove) {
  Directory D(64);
  EXPECT_EQ(D.findSharer(100), -1);
  D.addSharer(100, 7);
  EXPECT_EQ(D.findSharer(100), 7);
  D.addSharer(100, 3);
  EXPECT_EQ(D.findSharer(100), 3); // lowest-numbered sharer
  D.removeSharer(100, 3);
  EXPECT_EQ(D.findSharer(100), 7);
  D.removeSharer(100, 7);
  EXPECT_EQ(D.findSharer(100), -1);
  EXPECT_EQ(D.trackedLines(), 0u);
}

TEST(Directory, RemoveUntrackedIsANoop) {
  Directory D(8);
  D.removeSharer(5, 2);
  EXPECT_EQ(D.findSharer(5), -1);
}

TEST(Directory, ManyLines) {
  Directory D(64);
  for (std::uint64_t L = 0; L < 1000; ++L)
    D.addSharer(L, static_cast<unsigned>(L % 64));
  EXPECT_EQ(D.trackedLines(), 1000u);
  for (std::uint64_t L = 0; L < 1000; ++L)
    EXPECT_EQ(D.findSharer(L), static_cast<int>(L % 64));
}
