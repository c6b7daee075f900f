// Unit tests for the common utilities: time types, byte buffers, Result,
// and the deterministic RNG.
#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/types.h"

namespace tango {
namespace {

TEST(SimDuration, ArithmeticAndConversions) {
  const SimDuration d = millis(1.5);
  EXPECT_EQ(d.ns(), 1500000);
  EXPECT_DOUBLE_EQ(d.ms(), 1.5);
  EXPECT_DOUBLE_EQ(d.us(), 1500.0);
  EXPECT_DOUBLE_EQ(d.sec(), 0.0015);

  EXPECT_EQ((micros(10) + micros(5)).ns(), 15000);
  EXPECT_EQ((micros(10) - micros(5)).ns(), 5000);
  EXPECT_EQ((micros(10) * 3).ns(), 30000);
  EXPECT_EQ((micros(10) / 2).ns(), 5000);
  EXPECT_LT(micros(10), micros(11));
}

TEST(SimTime, OffsetAndDifference) {
  SimTime t{1000};
  t += micros(1);
  EXPECT_EQ(t.ns(), 2000);
  const SimTime u = t + millis(1);
  EXPECT_EQ((u - t).ns(), 1000000);
  EXPECT_GT(u, t);
}

TEST(FormatDuration, PicksHumanUnits) {
  EXPECT_EQ(format_duration(nanos(12)), "12ns");
  EXPECT_EQ(format_duration(micros(1.5)), "1.50us");
  EXPECT_EQ(format_duration(millis(2.25)), "2.250ms");
  EXPECT_EQ(format_duration(seconds(3.5)), "3.500s");
}

TEST(BufWriter, BigEndianLayout) {
  std::vector<std::uint8_t> b;
  BufWriter w(b);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  ASSERT_EQ(b.size(), 15u);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x12);
  EXPECT_EQ(b[2], 0x34);
  EXPECT_EQ(b[3], 0xde);
  EXPECT_EQ(b[6], 0xef);
  EXPECT_EQ(b[7], 0x01);
  EXPECT_EQ(b[14], 0x08);
}

TEST(BufWriter, PatchU16) {
  std::vector<std::uint8_t> b;
  BufWriter w(b);
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, static_cast<std::uint16_t>(w.size()));
  BufReader r(b);
  EXPECT_EQ(r.u16(), 6);
}

TEST(BufReader, RoundTrip) {
  std::vector<std::uint8_t> b;
  BufWriter w(b);
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  w.u64(1ULL << 40);
  BufReader r(b);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.u64(), 1ULL << 40);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(BufReader, OutOfBoundsSetsFailedInsteadOfUB) {
  std::vector<std::uint8_t> b;
  BufWriter w(b);
  w.u16(5);
  BufReader r(b);
  EXPECT_EQ(r.u16(), 5);
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_TRUE(r.failed());
}

TEST(BufReader, SkipAndRaw) {
  std::vector<std::uint8_t> b;
  BufWriter w(b);
  w.zeros(4);
  w.u8(9);
  BufReader r(b);
  r.skip(4);
  EXPECT_EQ(r.u8(), 9);
  BufReader r2(b);
  auto s = r2.raw(5);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[4], 9);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 3;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 3);
  Result<int> err = Error{"nope"};
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "nope");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(99);
  const auto p = rng.permutation(257);
  std::vector<bool> seen(257, false);
  for (auto v : p) {
    ASSERT_LT(v, 257u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.index(4)];
  for (int c : counts) EXPECT_GT(c, 700);
}

}  // namespace
}  // namespace tango
