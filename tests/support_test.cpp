//===- support_test.cpp - Support-library unit tests ----------------------===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//

#include "promises/support/Rng.h"
#include "promises/support/StrUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace promises;

namespace {

TEST(Rng, SameSeedSameStream) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.between(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I < 1000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(17);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.chance(0.0));
    EXPECT_TRUE(R.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng R(19);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    if (R.chance(0.3))
      ++Hits;
  EXPECT_GT(Hits, 2700);
  EXPECT_LT(Hits, 3300);
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng A(23);
  Rng B = A.split();
  // The child stream differs from the parent's continuation.
  bool AnyDiff = false;
  for (int I = 0; I < 16; ++I)
    if (A.next() != B.next())
      AnyDiff = true;
  EXPECT_TRUE(AnyDiff);
}

TEST(StrUtil, FormatDurationUnits) {
  EXPECT_EQ(formatDuration(5), "5ns");
  EXPECT_EQ(formatDuration(1500), "1.50us");
  EXPECT_EQ(formatDuration(2500000), "2.50ms");
  EXPECT_EQ(formatDuration(3200000000ull), "3.200s");
}

TEST(StrUtil, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(StrUtil, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtil, Strprintf) {
  EXPECT_EQ(strprintf("x=%d y=%s", 7, "ok"), "x=7 y=ok");
  EXPECT_EQ(strprintf("%s", ""), "");
  std::string Big(300, 'a');
  EXPECT_EQ(strprintf("%s", Big.c_str()), Big);
}

} // namespace
