// Unit tests for the flow-table building blocks: the lexicographic cache
// policy model, the TCAM shift/capacity model, and the software tables.
#include <gtest/gtest.h>

#include "tables/cache_policy.h"
#include "tables/software_table.h"
#include "tables/tcam.h"

namespace tango::tables {
namespace {

FlowEntry entry(FlowId id, std::uint16_t priority, std::int64_t insert_ns = 0,
                std::int64_t use_ns = 0, std::uint64_t traffic = 0) {
  FlowEntry e;
  e.id = id;
  e.priority = priority;
  e.match.set_nw_src_prefix(0x0a000000u + static_cast<std::uint32_t>(id), 32);
  e.attrs.insert_time = SimTime{insert_ns};
  e.attrs.last_use_time = SimTime{use_ns};
  e.attrs.traffic_count = traffic;
  return e;
}

FlowEntry l2_entry(FlowId id, std::uint16_t priority = 10) {
  FlowEntry e;
  e.id = id;
  e.priority = priority;
  e.match.with_dl_dst({0, 0, 0, 0, 0, static_cast<std::uint8_t>(id)});
  return e;
}

FlowEntry wide_entry(FlowId id, std::uint16_t priority = 10) {
  FlowEntry e = l2_entry(id, priority);
  e.match.set_nw_src_prefix(0x0a000000u + static_cast<std::uint32_t>(id), 32);
  return e;
}

// ---------------------------------------------------------------------------
// Cache policies
// ---------------------------------------------------------------------------

TEST(CachePolicy, FifoEvictsOldestInsertion) {
  const auto p = LexCachePolicy::fifo();
  const auto a = entry(1, 10, /*insert=*/100);
  const auto b = entry(2, 10, /*insert=*/200);
  EXPECT_TRUE(p.prefers(b, a));
  EXPECT_FALSE(p.prefers(a, b));
  const FlowEntry* arr[] = {&a, &b};
  EXPECT_EQ(p.victim_index({arr, 2}), 0u);
}

TEST(CachePolicy, LruEvictsLeastRecentlyUsed) {
  const auto p = LexCachePolicy::lru();
  const auto a = entry(1, 10, 0, /*use=*/500);
  const auto b = entry(2, 10, 0, /*use=*/100);
  const FlowEntry* arr[] = {&a, &b};
  EXPECT_EQ(p.victim_index({arr, 2}), 1u);
}

TEST(CachePolicy, LfuEvictsColdestFlow) {
  const auto p = LexCachePolicy::lfu();
  const auto a = entry(1, 10, 0, 0, /*traffic=*/99);
  const auto b = entry(2, 10, 0, 0, /*traffic=*/3);
  const FlowEntry* arr[] = {&a, &b};
  EXPECT_EQ(p.victim_index({arr, 2}), 1u);
}

TEST(CachePolicy, PriorityEvictsLowestPriority) {
  const auto p = LexCachePolicy::priority_based();
  const auto a = entry(1, 1000);
  const auto b = entry(2, 50);
  const FlowEntry* arr[] = {&a, &b};
  EXPECT_EQ(p.victim_index({arr, 2}), 1u);
}

TEST(CachePolicy, LexCompositionTieBreaks) {
  // Traffic first (high stays), then priority (high stays).
  const auto p = LexCachePolicy::lex(
      {{Attribute::kTrafficCount, Direction::kPreferHigh},
       {Attribute::kPriority, Direction::kPreferHigh}});
  const auto a = entry(1, 100, 0, 0, 50);
  const auto b = entry(2, 900, 0, 0, 50);  // traffic tied, priority decides
  const auto c = entry(3, 999, 0, 0, 10);  // lowest traffic: always victim
  const FlowEntry* arr[] = {&a, &b, &c};
  EXPECT_EQ(p.victim_index({arr, 3}), 2u);
  EXPECT_TRUE(p.prefers(b, a));
}

TEST(CachePolicy, PreferLowDirectionInverts) {
  const auto p = LexCachePolicy::lex({{Attribute::kPriority, Direction::kPreferLow}});
  const auto a = entry(1, 10);
  const auto b = entry(2, 20);
  EXPECT_TRUE(p.prefers(a, b));
}

TEST(CachePolicy, FullTieFallsBackToOlderId) {
  const auto p = LexCachePolicy::fifo();
  const auto a = entry(1, 10, 100);
  const auto b = entry(2, 10, 100);
  EXPECT_TRUE(p.prefers(a, b));  // deterministic: incumbent (lower id) wins
}

TEST(CachePolicy, DescribeNamesKeys) {
  const auto p = LexCachePolicy::lex(
      {{Attribute::kTrafficCount, Direction::kPreferHigh},
       {Attribute::kUseTime, Direction::kPreferLow}});
  const auto d = p.describe();
  EXPECT_NE(d.find("traffic_count(high stays)"), std::string::npos);
  EXPECT_NE(d.find("use_time(low stays)"), std::string::npos);
}

TEST(CachePolicy, SerialAttributeClassification) {
  EXPECT_TRUE(is_serial_attribute(Attribute::kInsertionTime));
  EXPECT_TRUE(is_serial_attribute(Attribute::kUseTime));
  EXPECT_FALSE(is_serial_attribute(Attribute::kTrafficCount));
  EXPECT_FALSE(is_serial_attribute(Attribute::kPriority));
}

// ---------------------------------------------------------------------------
// TCAM
// ---------------------------------------------------------------------------

TEST(TcamTest, AscendingPriorityInsertsNeverShift) {
  Tcam t({100, TcamMode::kSingleWide});
  for (int i = 0; i < 50; ++i) {
    const auto out = t.insert(entry(i, static_cast<std::uint16_t>(100 + i)));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.shifts, 0u) << "insert " << i;
  }
}

TEST(TcamTest, DescendingPriorityShiftsEverything) {
  Tcam t({100, TcamMode::kSingleWide});
  for (int i = 0; i < 30; ++i) {
    const auto out = t.insert(entry(i, static_cast<std::uint16_t>(1000 - i)));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.shifts, static_cast<std::size_t>(i));
  }
}

TEST(TcamTest, EqualPriorityAppendsAfterEquals) {
  Tcam t({100, TcamMode::kSingleWide});
  for (int i = 0; i < 20; ++i) {
    const auto out = t.insert(entry(i, 500));
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.shifts, 0u);
  }
  // A higher-priority entry appends above the equals: 0 shifts.
  EXPECT_EQ(t.insert(entry(100, 600)).shifts, 0u);
  // A lower-priority entry must go below all 21: 21 shifts.
  EXPECT_EQ(t.insert(entry(101, 400)).shifts, 21u);
}

TEST(TcamTest, MiddleInsertShiftsSuffix) {
  Tcam t({100, TcamMode::kSingleWide});
  t.insert(entry(1, 100));
  t.insert(entry(2, 200));
  t.insert(entry(3, 300));
  const auto out = t.insert(entry(4, 250));
  EXPECT_EQ(out.shifts, 1u);  // only the 300 entry moves
}

TEST(TcamTest, RejectsWhenFull) {
  Tcam t({3, TcamMode::kSingleWide});
  EXPECT_TRUE(t.insert(entry(1, 1)).accepted);
  EXPECT_TRUE(t.insert(entry(2, 2)).accepted);
  EXPECT_TRUE(t.insert(entry(3, 3)).accepted);
  const auto out = t.insert(entry(4, 4));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reject_reason, "TCAM full");
  EXPECT_EQ(t.size(), 3u);
}

TEST(TcamTest, DoubleWideHalvesCapacity) {
  Tcam t({4, TcamMode::kDoubleWide});
  EXPECT_TRUE(t.insert(l2_entry(1)).accepted);
  EXPECT_TRUE(t.insert(entry(2, 10)).accepted);  // L3-only also costs 2
  EXPECT_FALSE(t.insert(l2_entry(3)).accepted);
  EXPECT_EQ(t.slots_used(), 4u);
}

TEST(TcamTest, SingleWideRejectsWideEntries) {
  Tcam t({10, TcamMode::kSingleWide});
  const auto out = t.insert(wide_entry(1));
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(out.reject_reason.find("unsupported"), std::string::npos);
}

TEST(TcamTest, AdaptiveModeChargesByShape) {
  Tcam t({5, TcamMode::kAdaptive});
  EXPECT_TRUE(t.insert(l2_entry(1)).accepted);      // 1 slot
  EXPECT_TRUE(t.insert(wide_entry(2)).accepted);    // 2 slots
  EXPECT_TRUE(t.insert(entry(3, 10)).accepted);     // 1 slot
  EXPECT_EQ(t.slots_used(), 4u);
  EXPECT_FALSE(t.insert(wide_entry(4)).accepted);   // needs 2, has 1
  EXPECT_TRUE(t.insert(l2_entry(5)).accepted);
}

TEST(TcamTest, LookupPicksHighestPriority) {
  Tcam t({10, TcamMode::kSingleWide});
  FlowEntry narrow = entry(1, 100);
  FlowEntry broad;
  broad.id = 2;
  broad.priority = 50;
  broad.match.set_nw_src_prefix(0x0a000000, 8);  // covers the narrow match
  t.insert(broad);
  t.insert(narrow);
  of::PacketHeader pkt;
  pkt.nw_src = 0x0a000001;
  auto* hit = t.lookup(pkt);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  pkt.nw_src = 0x0a999999;  // only the broad rule matches
  hit = t.lookup(pkt);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);
}

TEST(TcamTest, EraseCountsCompactionShifts) {
  Tcam t({10, TcamMode::kSingleWide});
  for (int i = 0; i < 5; ++i) t.insert(entry(i, static_cast<std::uint16_t>(i)));
  std::size_t shifts = 0;
  const auto out = t.take(0, &shifts);  // bottom entry: 4 entries compact down
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, 0u);
  EXPECT_EQ(shifts, 4u);
  EXPECT_FALSE(t.take(99, &shifts).has_value());
  EXPECT_EQ(shifts, 4u);  // an absent id adds no shifts
  EXPECT_EQ(t.slots_used(), 4u);
}

TEST(TcamTest, EraseMatchingUsesSubsumption) {
  Tcam t({10, TcamMode::kSingleWide});
  for (int i = 0; i < 4; ++i) t.insert(entry(i, static_cast<std::uint16_t>(i)));
  of::Match filter;
  filter.set_nw_src_prefix(0x0a000000, 24);  // covers flows 0..3
  const auto removed = t.erase_matching(filter);
  EXPECT_EQ(removed.size(), 4u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slots_used(), 0u);
}

TEST(TcamTest, ModifyMatchingUpdatesActionsWithoutShifts) {
  Tcam t({10, TcamMode::kSingleWide});
  t.insert(entry(1, 5));
  t.insert(entry(2, 6));
  const auto n = t.for_each_matching(
      of::Match::any(), [](FlowEntry& e) { e.actions = of::output_to(9); });
  EXPECT_EQ(n, 2u);
  for (const auto& e : t.entries()) {
    EXPECT_EQ(of::output_port(e.actions), 9);
  }
}

TEST(TcamTest, FindStrictMatchesPriorityToo) {
  Tcam t({10, TcamMode::kSingleWide});
  t.insert(entry(1, 5));
  const auto probe = entry(1, 5);
  EXPECT_NE(t.find_strict(probe.match, 5), nullptr);
  EXPECT_EQ(t.find_strict(probe.match, 6), nullptr);
}

// ---------------------------------------------------------------------------
// Software tables
// ---------------------------------------------------------------------------

TEST(SoftwareTableTest, Unbounded) {
  SoftwareTable t;
  for (int i = 0; i < 1000; ++i) t.insert(entry(i, 10));
  EXPECT_EQ(t.size(), 1000u);
}

TEST(SoftwareTableTest, OldestIsFifoOrder) {
  SoftwareTable t;
  t.insert(entry(1, 1, /*insert=*/300));
  t.insert(entry(2, 1, /*insert=*/100));
  t.insert(entry(3, 1, /*insert=*/200));
  for (const FlowId want : {2u, 3u, 1u}) {
    const FlowEntry* oldest = t.oldest();
    ASSERT_NE(oldest, nullptr);
    EXPECT_EQ(oldest->id, want);
    EXPECT_EQ(t.oldest(), oldest);  // a peek leaves the entry in place
    t.take(want);
  }
  EXPECT_EQ(t.oldest(), nullptr);
}

TEST(SoftwareTableTest, LookupHonorsPriority) {
  SoftwareTable t;
  FlowEntry broad;
  broad.id = 1;
  broad.priority = 10;
  broad.match.set_nw_src_prefix(0x0a000000, 8);
  FlowEntry narrow = entry(2, 90);
  t.insert(broad);
  t.insert(narrow);
  of::PacketHeader pkt;
  pkt.nw_src = 0x0a000002;
  auto* hit = t.lookup(pkt);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);
}

TEST(SoftwareTableTest, TakeById) {
  SoftwareTable t;
  t.insert(entry(1, 1));
  auto removed = t.take(1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 1u);
  EXPECT_FALSE(t.take(1).has_value());
}

// ---------------------------------------------------------------------------
// Microflow cache
// ---------------------------------------------------------------------------

TEST(MicroflowCacheTest, ExactMatchHit) {
  MicroflowCache c(100);
  of::PacketHeader key;
  key.nw_src = 5;
  c.insert(key, /*rule=*/7, of::output_to(2), SimTime{0});
  auto hit = c.lookup(key, SimTime{1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->source_rule, 7u);
  of::PacketHeader other = key;
  other.nw_src = 6;
  EXPECT_FALSE(c.lookup(other, SimTime{1}).has_value());
}

TEST(MicroflowCacheTest, FifoEvictionAtCapacity) {
  MicroflowCache c(2);
  of::PacketHeader k1, k2, k3;
  k1.nw_src = 1;
  k2.nw_src = 2;
  k3.nw_src = 3;
  c.insert(k1, 1, {}, SimTime{0});
  c.insert(k2, 2, {}, SimTime{0});
  c.insert(k3, 3, {}, SimTime{0});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.lookup(k1, SimTime{1}).has_value());
  EXPECT_TRUE(c.lookup(k3, SimTime{1}).has_value());
}

TEST(MicroflowCacheTest, InvalidateRuleDropsDerivedFlows) {
  MicroflowCache c(10);
  of::PacketHeader k1, k2;
  k1.nw_src = 1;
  k2.nw_src = 2;
  c.insert(k1, /*rule=*/5, {}, SimTime{0});
  c.insert(k2, /*rule=*/6, {}, SimTime{0});
  c.invalidate_rule(5);
  EXPECT_FALSE(c.lookup(k1, SimTime{1}).has_value());
  EXPECT_TRUE(c.lookup(k2, SimTime{1}).has_value());
}

}  // namespace
}  // namespace tango::tables
