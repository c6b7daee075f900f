// Differential property suite for the indexed flow-table core.
//
// The production tables (tables::Tcam, tables::SoftwareTable,
// tables::MicroflowCache) carry exact-match hash indexes, tuple-space
// candidate pruning, and lazy heaps; the reference tables
// (tests/reference_table.h) are the pre-index linear scans kept verbatim.
// These tests drive both through long seeded random operation sequences and
// assert every observable output is identical at every step: lookup
// winners, strict finds, removal sets and their order, shift counts,
// occupancy, physical entry order, eviction victims, and FIFO casualties.
// Any tie-break the indexes get wrong surfaces here as a one-line diff of
// the first divergent step.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "reference_table.h"
#include "tables/cache_policy.h"
#include "tables/software_table.h"
#include "tables/tcam.h"

namespace tango::tables {
namespace {

using testing::ReferenceMicroflowCache;
using testing::ReferenceSoftwareTable;
using testing::ReferenceTcam;

// ---------------------------------------------------------------------------
// Random workload generation: small field domains force overlapping matches,
// wildcard subsumption, and priority ties — the cases where index tie-breaks
// could silently diverge from the scans.
// ---------------------------------------------------------------------------

of::Match random_match(Rng& rng) {
  of::Match m;
  if (rng.chance(0.1)) return m;  // fully wildcarded (subsumes everything)
  if (rng.chance(0.15)) {
    // L2-only shape (one slot in adaptive mode, unsupported when mixed with
    // L3 in single-wide mode — the reject path is part of the diff).
    m.with_dl_src({1, 2, 3, 4, 5, static_cast<std::uint8_t>(rng.index(4))});
    if (rng.chance(0.5)) m.with_dl_vlan(static_cast<std::uint16_t>(rng.index(3)));
    return m;
  }
  m.with_dl_type(0x0800);
  if (rng.chance(0.7)) {
    const auto addr = 0x0a000000u + (static_cast<std::uint32_t>(rng.index(4)) << 8);
    const int len = static_cast<int>(rng.index(5)) * 8;  // 0..32
    m.set_nw_src_prefix(addr, len);
  }
  if (rng.chance(0.4)) {
    const auto addr = 0xc0a80000u + (static_cast<std::uint32_t>(rng.index(3)) << 8);
    m.set_nw_dst_prefix(addr, static_cast<int>(rng.index(3)) * 16);  // 0/16/32
  }
  if (rng.chance(0.3)) m.with_nw_proto(rng.chance(0.5) ? 6 : 17);
  if (rng.chance(0.3)) m.with_tp_dst(static_cast<std::uint16_t>(80 + rng.index(3)));
  if (rng.chance(0.2)) m.with_in_port(static_cast<std::uint16_t>(1 + rng.index(3)));
  return m;
}

of::PacketHeader random_packet(Rng& rng) {
  of::PacketHeader p;
  p.in_port = static_cast<std::uint16_t>(1 + rng.index(3));
  p.dl_src = {1, 2, 3, 4, 5, static_cast<std::uint8_t>(rng.index(4))};
  p.dl_type = 0x0800;
  p.nw_proto = rng.chance(0.5) ? 6 : 17;
  p.nw_src = 0x0a000000u + (static_cast<std::uint32_t>(rng.index(4)) << 8) +
             static_cast<std::uint32_t>(rng.index(4));
  p.nw_dst = 0xc0a80000u + (static_cast<std::uint32_t>(rng.index(3)) << 8);
  p.tp_dst = static_cast<std::uint16_t>(80 + rng.index(3));
  return p;
}

FlowEntry random_entry(Rng& rng, FlowId id, std::int64_t now_ns) {
  FlowEntry e;
  e.id = id;
  e.match = random_match(rng);
  // Tiny priority domain: most inserts tie with a resident entry, so the
  // equal-priority position/ordering rules are exercised constantly.
  e.priority = static_cast<std::uint16_t>(0x2000 + rng.index(3));
  if (rng.chance(0.3)) e.idle_timeout = static_cast<std::uint16_t>(1 + rng.index(2));
  if (rng.chance(0.3)) e.hard_timeout = static_cast<std::uint16_t>(1 + rng.index(3));
  e.attrs.insert_time = SimTime(now_ns);
  e.attrs.last_use_time = SimTime(now_ns);
  e.cookie = id * 17;
  return e;
}

/// Ids in order, from a returned vector or a table's entries() view.
template <typename Entries>
std::vector<FlowId> ids_of(const Entries& entries) {
  std::vector<FlowId> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  return ids;
}

#define ASSERT_SAME_ENTRIES(idx_entries, ref_entries, step)              \
  do {                                                                   \
    ASSERT_EQ(ids_of(idx_entries), ids_of(ref_entries)) << "step " << (step); \
  } while (0)

/// Every entry's id and actions, in table order.
#define ASSERT_SAME_ACTIONS(idx_entries, ref_entries, step)                 \
  do {                                                                      \
    ASSERT_SAME_ENTRIES(idx_entries, ref_entries, step);                    \
    for (std::size_t i = 0; i < (ref_entries).size(); ++i) {                \
      ASSERT_TRUE((idx_entries)[i].actions == (ref_entries)[i].actions)     \
          << "step " << (step) << " position " << i;                        \
    }                                                                       \
  } while (0)

// ---------------------------------------------------------------------------
// TCAM differential
// ---------------------------------------------------------------------------

void run_tcam_diff(TcamMode mode, std::uint64_t seed, std::size_t steps) {
  SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  Tcam idx({64, mode});
  ReferenceTcam ref({64, mode});
  FlowId next_id = 1;
  std::int64_t now_ns = 0;
  std::size_t accepted = 0;  // guards against a vacuously-empty-table pass
  std::vector<of::Match> installed_matches;  // pool for strict/filter ops

  for (std::size_t step = 0; step < steps; ++step) {
    now_ns += rng.uniform_int(0, 300'000'000);  // 0..0.3 s
    const SimTime now(now_ns);
    const int op = static_cast<int>(rng.index(100));

    if (op < 35) {  // insert
      const auto e = random_entry(rng, next_id++, now_ns);
      if (installed_matches.size() < 256) installed_matches.push_back(e.match);
      const auto a = idx.insert(e);
      const auto b = ref.insert(e);
      ASSERT_EQ(a.accepted, b.accepted) << "step " << step;
      ASSERT_EQ(a.shifts, b.shifts) << "step " << step;
      if (a.accepted) ++accepted;
    } else if (op < 45) {  // take (possibly absent id) vs the reference's erase
      const FlowId id = static_cast<FlowId>(rng.index(next_id + 4));
      std::size_t shifts = 0;
      const auto a = idx.take(id, &shifts);
      const auto b = ref.erase(id);
      ASSERT_EQ(a.has_value() ? 1u : 0u, b.removed) << "step " << step;
      ASSERT_EQ(shifts, b.shifts) << "step " << step;
    } else if (op < 50) {  // take
      const FlowId id = static_cast<FlowId>(rng.index(next_id + 4));
      std::size_t sa = 0, sb = 0;
      const auto a = idx.take(id, &sa);
      const auto b = ref.take(id, &sb);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) { ASSERT_EQ(a->id, b->id) << "step " << step; }
      ASSERT_EQ(sa, sb) << "step " << step;
    } else if (op < 58) {  // erase_matching — removed order must be identical
      const auto filter = rng.chance(0.3) ? of::Match::any() : random_match(rng);
      std::size_t sa = 0, sb = 0;
      const auto a = idx.erase_matching(filter, &sa);
      const auto b = ref.erase_matching(filter, &sb);
      ASSERT_SAME_ENTRIES(a, b, step);
      ASSERT_EQ(sa, sb) << "step " << step;
    } else if (op < 65) {  // take_expired — expiry order must be identical
      const auto a = idx.take_expired(now);
      const auto b = ref.take_expired(now);
      ASSERT_SAME_ENTRIES(a, b, step);
    } else if (op < 85) {  // lookup
      const auto pkt = random_packet(rng);
      const auto* a = idx.lookup(pkt);
      auto* b = ref.lookup(pkt);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    } else if (op < 90) {  // find_strict over a previously-seen match
      if (installed_matches.empty()) continue;
      const auto& m = installed_matches[rng.index(installed_matches.size())];
      const auto prio = static_cast<std::uint16_t>(0x2000 + rng.index(3));
      const auto* a = idx.find_strict(m, prio);
      auto* b = ref.find_strict(m, prio);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    } else if (op < 95) {  // MODIFY: for_each_matching vs modify_matching
      const auto filter = random_match(rng);
      const auto actions = of::output_to(static_cast<std::uint16_t>(1 + rng.index(4)));
      ASSERT_EQ(idx.for_each_matching(filter, [&](FlowEntry& e) { e.actions = actions; }),
                ref.modify_matching(filter, actions))
          << "step " << step;
      ASSERT_SAME_ACTIONS(idx.entries(), ref.entries(), step);
    } else if (op < 99) {  // replace (same id/match/priority, new payload)
      if (idx.size() == 0) continue;
      const FlowId id = idx.entries()[rng.index(idx.size())].id;
      const auto* live = idx.find_by_id(id);
      ASSERT_NE(live, nullptr);
      FlowEntry repl = *live;
      repl.cookie += 1000;
      repl.actions = of::output_to(9);
      repl.idle_timeout = static_cast<std::uint16_t>(rng.index(3));
      ASSERT_EQ(idx.replace(id, repl), ref.replace(id, repl)) << "step " << step;
    } else {  // clear
      idx.clear();
      ref.clear();
      installed_matches.clear();
    }

    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    ASSERT_EQ(idx.slots_used(), ref.slots_used()) << "step " << step;
    if (step % 64 == 0) ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), step);
  }
  ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), steps);
  EXPECT_GT(accepted, steps / 10);  // the sequence actually filled tables
}

TEST(TcamDiff, RandomOpSequencesSingleWide) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    run_tcam_diff(TcamMode::kSingleWide, seed, 2000);
  }
}

TEST(TcamDiff, RandomOpSequencesAdaptive) {
  for (const std::uint64_t seed : {44u, 55u}) {
    run_tcam_diff(TcamMode::kAdaptive, seed, 2000);
  }
}

TEST(TcamDiff, RandomOpSequencesDoubleWide) {
  run_tcam_diff(TcamMode::kDoubleWide, 66, 2000);
}

// ---------------------------------------------------------------------------
// Software table differential
// ---------------------------------------------------------------------------

void run_software_diff(std::uint64_t seed, std::size_t steps) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  SoftwareTable idx;
  ReferenceSoftwareTable ref;
  FlowId next_id = 1;
  std::int64_t now_ns = 0;
  std::size_t accepted = 0;
  std::vector<of::Match> installed_matches;

  for (std::size_t step = 0; step < steps; ++step) {
    now_ns += rng.uniform_int(0, 300'000'000);
    const SimTime now(now_ns);
    const int op = static_cast<int>(rng.index(100));

    if (op < 35) {  // insert
      const auto e = random_entry(rng, next_id++, now_ns);
      if (installed_matches.size() < 256) installed_matches.push_back(e.match);
      idx.insert(e);
      ref.insert(e);
      ++accepted;
    } else if (op < 45) {  // take vs the reference's erase
      const FlowId id = static_cast<FlowId>(rng.index(next_id + 4));
      const auto a = idx.take(id);
      const auto b = ref.erase(id);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    } else if (op < 53) {  // erase_matching
      const auto filter = rng.chance(0.3) ? of::Match::any() : random_match(rng);
      ASSERT_SAME_ENTRIES(idx.erase_matching(filter), ref.erase_matching(filter),
                          step);
    } else if (op < 60) {  // take_expired
      ASSERT_SAME_ENTRIES(idx.take_expired(now), ref.take_expired(now), step);
    } else if (op < 68) {  // oldest — tie on insert_time keeps earliest pos
      const FlowEntry* a = idx.oldest();
      const auto b = ref.pop_oldest();
      ASSERT_EQ(a != nullptr, b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->id, b->id) << "step " << step;
        ASSERT_TRUE(idx.take(b->id).has_value()) << "step " << step;
      }
    } else if (op < 85) {  // lookup: max priority, earliest position on tie
      const auto pkt = random_packet(rng);
      const auto* a = idx.lookup(pkt);
      auto* b = ref.lookup(pkt);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    } else if (op < 90) {  // find_strict
      if (installed_matches.empty()) continue;
      const auto& m = installed_matches[rng.index(installed_matches.size())];
      const auto prio = static_cast<std::uint16_t>(0x2000 + rng.index(3));
      const auto* a = idx.find_strict(m, prio);
      auto* b = ref.find_strict(m, prio);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    } else if (op < 95) {  // MODIFY: for_each_matching vs modify_matching
      const auto filter = random_match(rng);
      const auto actions = of::output_to(static_cast<std::uint16_t>(1 + rng.index(4)));
      ASSERT_EQ(idx.for_each_matching(filter, [&](FlowEntry& e) { e.actions = actions; }),
                ref.modify_matching(filter, actions))
          << "step " << step;
      ASSERT_SAME_ACTIONS(idx.entries(), ref.entries(), step);
    } else if (op < 99) {  // replace
      if (idx.size() == 0) continue;
      const FlowId id = idx.entries()[rng.index(idx.size())].id;
      FlowEntry repl = *idx.find_by_id(id);
      repl.cookie += 1000;
      repl.hard_timeout = static_cast<std::uint16_t>(rng.index(4));
      ASSERT_EQ(idx.replace(id, repl), ref.replace(id, repl)) << "step " << step;
    } else {
      idx.clear();
      ref.clear();
      installed_matches.clear();
    }

    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    if (step % 64 == 0) ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), step);
  }
  ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), steps);
  EXPECT_GT(accepted, steps / 10);
}

TEST(SoftwareTableDiff, RandomOpSequencesUnbounded) {
  for (const std::uint64_t seed : {101u, 102u, 103u}) run_software_diff(seed, 2000);
}

// ---------------------------------------------------------------------------
// Full-size fill and churn: the learns fill 4,096-entry tables, then insert
// and remove in the middle of them. Each run inserts until the table is
// full, then churns at random positions (re-inserts land in freed storage)
// with priorities from three values, so removals and re-inserts move the
// middle of a long physical order.
// ---------------------------------------------------------------------------

constexpr std::size_t kFullSize = 4096;

// Narrow L3 rules over 512 sources, so a full table holds about eight rules
// per source: erase_matching on one source removes a handful of entries
// spread through the table, and a lookup chooses among several overlapping
// rules, ties included.
FlowEntry dense_entry(Rng& rng, FlowId id, std::int64_t now_ns) {
  FlowEntry e;
  e.id = id;
  e.match.with_dl_type(0x0800);
  e.match.set_nw_src_prefix(0x0a000000u + static_cast<std::uint32_t>(rng.index(512)), 32);
  if (rng.chance(0.5)) e.match.with_tp_dst(static_cast<std::uint16_t>(80 + rng.index(3)));
  e.priority = static_cast<std::uint16_t>(0x2000 + rng.index(3));
  e.attrs.insert_time = SimTime(now_ns);
  e.attrs.last_use_time = SimTime(now_ns);
  return e;
}

of::PacketHeader dense_packet(Rng& rng) {
  of::PacketHeader p;
  p.dl_type = 0x0800;
  p.nw_proto = 6;
  p.nw_src = 0x0a000000u + static_cast<std::uint32_t>(rng.index(512));
  p.tp_dst = static_cast<std::uint16_t>(80 + rng.index(3));
  return p;
}

/// Filter on the source of a resident entry.
of::Match source_filter(const FlowEntry& e) {
  of::Match m;
  m.with_dl_type(0x0800);
  m.set_nw_src_prefix(e.match.nw_src, 32);
  return m;
}

TEST(TcamDiff, FullSizeFillThenChurn) {
  Rng rng(4096);
  Tcam idx({kFullSize, TcamMode::kSingleWide});
  ReferenceTcam ref({kFullSize, TcamMode::kSingleWide});
  FlowId next_id = 1;
  std::int64_t now_ns = 0;
  bool filled = false;
  std::size_t refills = 0;  // accepted inserts once the table was full
  constexpr std::size_t kSteps = 16000;

  for (std::size_t step = 0; step < kSteps; ++step) {
    now_ns += rng.uniform_int(0, 1'000'000);
    const int op = filled ? static_cast<int>(rng.index(100)) : 0;

    if (op < 50) {  // insert
      const auto e = dense_entry(rng, next_id++, now_ns);
      const auto a = idx.insert(e);
      const auto b = ref.insert(e);
      ASSERT_EQ(a.accepted, b.accepted) << "step " << step;
      ASSERT_EQ(a.shifts, b.shifts) << "step " << step;
      if (!a.accepted) filled = true;
      if (a.accepted && filled) ++refills;
    } else if (op < 68) {  // take at a random position vs the reference's erase
      const FlowId id = idx.entries()[rng.index(idx.size())].id;
      std::size_t shifts = 0;
      const auto a = idx.take(id, &shifts);
      const auto b = ref.erase(id);
      ASSERT_EQ(a.has_value() ? 1u : 0u, b.removed) << "step " << step;
      ASSERT_EQ(shifts, b.shifts) << "step " << step;
    } else if (op < 78) {  // take at a random position
      const FlowId id = idx.entries()[rng.index(idx.size())].id;
      std::size_t sa = 0, sb = 0;
      const auto a = idx.take(id, &sa);
      const auto b = ref.take(id, &sb);
      ASSERT_TRUE(a.has_value() && b.has_value()) << "step " << step;
      ASSERT_EQ(a->id, b->id) << "step " << step;
      ASSERT_EQ(sa, sb) << "step " << step;
    } else if (op < 80) {  // erase_matching on a resident entry's source
      const auto filter = source_filter(idx.entries()[rng.index(idx.size())]);
      std::size_t sa = 0, sb = 0;
      const auto a = idx.erase_matching(filter, &sa);
      const auto b = ref.erase_matching(filter, &sb);
      ASSERT_SAME_ENTRIES(a, b, step);
      ASSERT_EQ(sa, sb) << "step " << step;
    } else {  // lookup
      const auto pkt = dense_packet(rng);
      const auto* a = idx.lookup(pkt);
      auto* b = ref.lookup(pkt);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    }

    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    ASSERT_EQ(idx.slots_used(), ref.slots_used()) << "step " << step;
    if (step % 256 == 0) ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), step);
  }
  ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), kSteps);
  EXPECT_TRUE(filled);
  EXPECT_GT(refills, kSteps / 10);
}

TEST(SoftwareTableDiff, FullSizeFillThenChurn) {
  Rng rng(4097);
  SoftwareTable idx;
  ReferenceSoftwareTable ref;
  FlowId next_id = 1;
  std::int64_t now_ns = 0;
  bool filled = false;
  std::size_t refills = 0;
  constexpr std::size_t kSteps = 16000;

  for (std::size_t step = 0; step < kSteps; ++step) {
    // Coarse clock: equal insertion times make oldest() break ties by
    // position.
    now_ns += 1000 * rng.uniform_int(0, 1);
    const int op = filled ? static_cast<int>(rng.index(100)) : 0;

    if (op < 50) {  // insert, skipped (entry still drawn) at full size
      const auto e = dense_entry(rng, next_id++, now_ns);
      if (idx.size() >= kFullSize) {
        filled = true;
      } else {
        idx.insert(e);
        ref.insert(e);
        if (filled) ++refills;
      }
    } else if (op < 65) {  // take at a random position vs the reference's erase
      const FlowId id = idx.entries()[rng.index(idx.size())].id;
      const auto a = idx.take(id);
      const auto b = ref.erase(id);
      ASSERT_TRUE(a.has_value() && b.has_value()) << "step " << step;
      ASSERT_EQ(a->id, b->id) << "step " << step;
    } else if (op < 78) {  // oldest, then take it
      const FlowEntry* a = idx.oldest();
      const auto b = ref.pop_oldest();
      ASSERT_EQ(a != nullptr, b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->id, b->id) << "step " << step;
        ASSERT_TRUE(idx.take(b->id).has_value()) << "step " << step;
      }
    } else if (op < 80) {  // erase_matching on a resident entry's source
      const auto filter = source_filter(idx.entries()[rng.index(idx.size())]);
      ASSERT_SAME_ENTRIES(idx.erase_matching(filter), ref.erase_matching(filter),
                          step);
    } else {  // lookup
      const auto pkt = dense_packet(rng);
      const auto* a = idx.lookup(pkt);
      auto* b = ref.lookup(pkt);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) { ASSERT_EQ(a->id, b->id) << "step " << step; }
    }

    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    if (step % 256 == 0) ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), step);
  }
  ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), kSteps);
  EXPECT_TRUE(filled);
  EXPECT_GT(refills, kSteps / 10);
}

// ---------------------------------------------------------------------------
// Microflow cache differential: FIFO casualties under capacity pressure and
// per-rule invalidation must agree key for key.
// ---------------------------------------------------------------------------

void run_microflow_diff(std::size_t capacity, std::uint64_t seed,
                        std::size_t steps) {
  SCOPED_TRACE("capacity=" + std::to_string(capacity) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  MicroflowCache idx(capacity);
  ReferenceMicroflowCache ref(capacity);

  // Fixed key universe so overwrite-resident and re-insert-after-eviction
  // paths fire often.
  std::vector<of::PacketHeader> keys;
  for (int i = 0; i < 48; ++i) keys.push_back(random_packet(rng));
  std::int64_t now_ns = 0;

  for (std::size_t step = 0; step < steps; ++step) {
    now_ns += 1000;
    const SimTime now(now_ns);
    const int op = static_cast<int>(rng.index(100));
    const auto& key = keys[rng.index(keys.size())];

    if (op < 50) {  // insert (fresh key or overwrite)
      const FlowId rule = static_cast<FlowId>(rng.index(12));
      const auto actions = of::output_to(static_cast<std::uint16_t>(1 + rule));
      idx.insert(key, rule, actions, now);
      ref.insert(key, rule, actions, now);
    } else if (op < 80) {  // lookup
      const auto a = idx.lookup(key, now);
      const auto b = ref.lookup(key, now);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) { ASSERT_EQ(a->source_rule, b->source_rule) << "step " << step; }
    } else if (op < 95) {  // invalidate one rule's microflows
      const FlowId rule = static_cast<FlowId>(rng.index(12));
      idx.invalidate_rule(rule);
      ref.invalidate_rule(rule);
    } else {
      idx.clear();
      ref.clear();
    }

    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    if (step % 32 == 0) {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        ASSERT_EQ(idx.contains(keys[k]), ref.contains(keys[k]))
            << "step " << step << " key " << k;
      }
    }
  }
}

TEST(MicroflowDiff, RandomOpSequencesBounded) {
  for (const std::uint64_t seed : {7u, 8u}) run_microflow_diff(16, seed, 3000);
}

TEST(MicroflowDiff, RandomOpSequencesUnbounded) {
  run_microflow_diff(0, 9, 2000);
}

// ---------------------------------------------------------------------------
// Eviction-heap differential: for random lexicographic policies (random key
// permutations and directions, ties and serial attributes included), the
// O(log n) heap victim must equal the O(n) victim_index scan after every
// mutation — insert, hit, replace, and eviction itself.
// ---------------------------------------------------------------------------

LexCachePolicy random_policy(Rng& rng) {
  const Attribute attrs[] = {Attribute::kInsertionTime, Attribute::kUseTime,
                             Attribute::kTrafficCount, Attribute::kPriority};
  const auto perm = rng.permutation(4);
  const std::size_t depth = 1 + rng.index(4);
  std::vector<PolicyKey> keys;
  for (std::size_t i = 0; i < depth; ++i) {
    keys.push_back(PolicyKey{attrs[perm[i]], rng.chance(0.5)
                                                 ? Direction::kPreferHigh
                                                 : Direction::kPreferLow});
  }
  return LexCachePolicy::lex(std::move(keys));
}

TEST(EvictionHeapDiff, VictimMatchesLinearScanForRandomPolicies) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 40; ++trial) {
    const auto policy = random_policy(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + policy.describe());
    Tcam idx({64, TcamMode::kSingleWide});
    ReferenceTcam ref({64, TcamMode::kSingleWide});
    idx.set_eviction_policy(&policy);
    FlowId next_id = 1;
    std::int64_t now_ns = 0;

    for (int step = 0; step < 250; ++step) {
      now_ns += rng.uniform_int(0, 5000);
      const SimTime now(now_ns);
      const int op = static_cast<int>(rng.index(100));

      if (op < 40 || idx.size() == 0) {  // insert
        auto e = random_entry(rng, next_id++, now_ns);
        // Coarse attribute values maximize rank ties.
        e.attrs.insert_time = SimTime((now_ns / 2000) * 2000);
        e.attrs.last_use_time = e.attrs.insert_time;
        e.attrs.traffic_count = rng.index(3);
        e.idle_timeout = 0;
        e.hard_timeout = 0;
        const auto a = idx.insert(e);
        const auto b = ref.insert(e);
        ASSERT_EQ(a.accepted, b.accepted);
      } else if (op < 65) {  // hit: mutate use time + traffic in both copies
        const FlowId id = idx.entries()[rng.index(idx.size())].id;
        auto* live = idx.find_by_id(id);
        ASSERT_NE(live, nullptr);
        live->record_hit(now, 100);
        idx.note_attrs_changed(id);
        for (auto& e : ref.mutable_entries()) {
          if (e.id == id) e.record_hit(now, 100);
        }
      } else if (op < 80) {  // evict the victim itself
        const auto vid = idx.victim_id();
        ASSERT_EQ(vid, ref.victim_id(policy)) << "step " << step;
        if (vid) {
          idx.take(*vid);
          ref.erase(*vid);
        }
      } else {  // erase an arbitrary entry
        const FlowId id = idx.entries()[rng.index(idx.size())].id;
        idx.take(id);
        ref.erase(id);
      }

      ASSERT_EQ(idx.victim_id(), ref.victim_id(policy)) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Delete-during-iteration regression. The switch's timeout sweep used to
// hand-roll two reverse-erase loops over tables it was iterating; it now
// delegates to the tables' take_expired(). This pins the contract that made
// the unification safe: a sweep where many interleaved entries expire at the
// same instant removes exactly the expired set, in descending physical
// order, without disturbing survivors.
// ---------------------------------------------------------------------------

TEST(SweepRegression, InterleavedSimultaneousExpiryMatchesReference) {
  Tcam idx({128, TcamMode::kSingleWide});
  ReferenceTcam ref({128, TcamMode::kSingleWide});
  SoftwareTable sidx;
  ReferenceSoftwareTable sref;
  Rng rng(4242);

  for (FlowId id = 1; id <= 60; ++id) {
    auto e = random_entry(rng, id, 1000);
    // Alternate: idle-expiring, hard-expiring, and permanent entries, so
    // the expired set is interleaved through the physical array.
    e.idle_timeout = (id % 3 == 0) ? 1 : 0;
    e.hard_timeout = (id % 3 == 1) ? 2 : 0;
    idx.insert(e);
    ref.insert(e);
    sidx.insert(e);
    sref.insert(e);
  }

  const SimTime later = SimTime(1000) + seconds(5);  // everything timed expires
  const auto a = idx.take_expired(later);
  const auto b = ref.take_expired(later);
  ASSERT_SAME_ENTRIES(a, b, 0);
  EXPECT_EQ(a.size(), 40u);  // ids % 3 == 0 or 1
  ASSERT_SAME_ENTRIES(idx.entries(), ref.entries(), 0);

  const auto sa = sidx.take_expired(later);
  const auto sb = sref.take_expired(later);
  ASSERT_SAME_ENTRIES(sa, sb, 0);
  ASSERT_SAME_ENTRIES(sidx.entries(), sref.entries(), 0);

  // Survivors still resolve through every index.
  for (const auto& e : idx.entries()) {
    EXPECT_EQ(idx.find_by_id(e.id)->id, e.id);
    EXPECT_EQ(idx.find_strict(e.match, e.priority) != nullptr,
              ref.find_strict(e.match, e.priority) != nullptr);
  }
  // A second sweep at the same instant is a no-op, not a re-delete.
  EXPECT_TRUE(idx.take_expired(later).empty());
  EXPECT_TRUE(sidx.take_expired(later).empty());
}

}  // namespace
}  // namespace tango::tables
