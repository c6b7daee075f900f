// Randomized property tests across module boundaries:
//  * codec: arbitrary messages round-trip; corrupted frames never crash,
//  * switch model: invariants hold under random op sequences,
//  * executor: dependency order is never violated for random DAGs,
//  * scheduler: orderings are permutations of the ready set, equal id for
//    id to the pre-rewrite reference schedulers (reference_scheduler.h),
//  * transaction journal: the indexed journal equals the scan-based
//    reference loop (reference_journal.h), and transactions repair a crash
//    exactly as that journal's attribution would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "bench/b4_te_update.h"
#include "net/b4.h"
#include "net/network.h"
#include "openflow/codec.h"
#include "scheduler/executor.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
#include "workload/classbench.h"
#include "reference_journal.h"
#include "reference_scheduler.h"

namespace tango {
namespace {

namespace profiles = switchsim::profiles;
using core::ProbeEngine;

// ---------------------------------------------------------------------------
// Codec robustness
// ---------------------------------------------------------------------------

of::Match random_wild_match(Rng& rng) {
  of::Match m;
  if (rng.chance(0.5)) {
    m.set_nw_src_prefix(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)),
                        static_cast<int>(rng.uniform_int(0, 32)));
  }
  if (rng.chance(0.5)) m.with_tp_dst(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
  if (rng.chance(0.3)) m.with_in_port(static_cast<std::uint16_t>(rng.uniform_int(0, 64)));
  if (rng.chance(0.3)) m.with_nw_proto(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  return m;
}

of::Message random_message(Rng& rng) {
  const auto xid = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  switch (rng.index(6)) {
    case 0: {
      of::FlowMod fm;
      fm.match = random_wild_match(rng);
      fm.command = static_cast<of::FlowModCommand>(rng.uniform_int(0, 4));
      fm.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      fm.cookie = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
      const auto n_actions = rng.index(4);
      for (std::size_t i = 0; i < n_actions; ++i) {
        switch (rng.index(4)) {
          case 0: fm.actions.push_back(of::ActionOutput{
                      static_cast<std::uint16_t>(rng.uniform_int(1, 48)), 0xffff});
            break;
          case 1: fm.actions.push_back(of::ActionSetVlanVid{
                      static_cast<std::uint16_t>(rng.uniform_int(0, 4095))});
            break;
          case 2: fm.actions.push_back(of::ActionSetNwSrc{
                      static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))});
            break;
          default: fm.actions.push_back(of::ActionStripVlan{});
        }
      }
      return {xid, fm};
    }
    case 1: {
      of::PacketIn pin;
      pin.in_port = static_cast<std::uint16_t>(rng.uniform_int(0, 64));
      pin.data.resize(rng.index(200));
      for (auto& b : pin.data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return {xid, pin};
    }
    case 2: {
      of::FlowRemoved fr;
      fr.match = random_wild_match(rng);
      fr.packet_count = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
      return {xid, fr};
    }
    case 3: {
      of::EchoRequest echo;
      echo.payload.resize(rng.index(64));
      return {xid, echo};
    }
    case 4:
      return {xid, of::BarrierRequest{}};
    default: {
      of::ErrorMsg err;
      err.type = static_cast<of::ErrorType>(rng.uniform_int(0, 5));
      err.code = static_cast<std::uint16_t>(rng.uniform_int(0, 10));
      return {xid, err};
    }
  }
}

class CodecProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperties, RandomMessagesRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const auto msg = random_message(rng);
    const auto frame = of::encode(msg);
    auto decoded = of::decode(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().xid, msg.xid);
    EXPECT_EQ(decoded.value().body, msg.body);
  }
}

TEST_P(CodecProperties, CorruptedFramesNeverCrash) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    auto frame = of::encode(random_message(rng));
    // Flip a few random bytes but keep the length field consistent so the
    // decoder is exercised past the header check.
    const auto flips = 1 + rng.index(5);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto pos = rng.index(frame.size());
      if (pos == 2 || pos == 3) continue;  // keep length honest
      frame[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // Must either decode to something or return an error — never UB/crash.
    (void)of::decode(frame);
  }
}

TEST_P(CodecProperties, TruncationsAlwaysRejected) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    const auto frame = of::encode(random_message(rng));
    if (frame.size() <= of::kHeaderLen) continue;
    const auto cut = of::kHeaderLen + rng.index(frame.size() - of::kHeaderLen);
    std::vector<std::uint8_t> shorter(frame.begin(),
                                      frame.begin() + static_cast<long>(cut));
    EXPECT_FALSE(of::decode(shorter).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperties, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Switch invariants under random operation sequences
// ---------------------------------------------------------------------------

class SwitchInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwitchInvariants, RandomOpsPreserveStructure) {
  Rng rng(GetParam());
  // Random architecture per seed.
  switchsim::SwitchProfile profile;
  switch (rng.index(4)) {
    case 0: profile = profiles::ovs(); break;
    case 1: profile = profiles::switch1(); break;
    case 2: profile = profiles::switch2(); break;
    default:
      profile = profiles::policy_cache(
          "rand", {32 + rng.index(64)},
          rng.chance(0.5) ? tables::LexCachePolicy::lru()
                          : tables::LexCachePolicy::fifo());
  }
  switchsim::SimulatedSwitch sw(1, profile, GetParam());

  std::set<std::pair<std::string, std::uint16_t>> expected;  // match+prio
  SimTime now{};
  for (int step = 0; step < 400; ++step) {
    now += millis(1);
    const auto index = static_cast<std::uint32_t>(rng.index(60));
    const auto priority = static_cast<std::uint16_t>(1000 + 10 * rng.index(8));
    const auto key = std::make_pair(
        ProbeEngine::probe_match(index).to_string(), priority);
    const auto roll = rng.index(10);
    if (roll < 5) {
      auto fm = ProbeEngine::probe_add(index, priority);
      const auto out = sw.apply_flow_mod(fm, now);
      if (out.accepted) expected.insert(key);
    } else if (roll < 7) {
      auto fm = ProbeEngine::probe_add(index, priority);
      fm.command = of::FlowModCommand::kDeleteStrict;
      sw.apply_flow_mod(fm, now);
      expected.erase(key);
    } else if (roll < 9) {
      of::Packet pkt;
      pkt.header = ProbeEngine::probe_packet(static_cast<std::uint32_t>(rng.index(60)));
      sw.forward(pkt, now);
    } else {
      auto fm = ProbeEngine::probe_add(index, priority);
      fm.command = of::FlowModCommand::kModifyStrict;
      fm.actions = of::output_to(5);
      const auto out = sw.apply_flow_mod(fm, now);
      // OpenFlow 1.0: MODIFY with no matching entry behaves like ADD.
      if (out.accepted) expected.insert(key);
    }

    // Invariant 1: rule count matches the reference set (+ default route).
    const std::size_t base = profile.install_default_route ? 1 : 0;
    ASSERT_EQ(sw.total_rules(), expected.size() + base) << "step " << step;

    // Invariant 2: no (match, priority) pair resident at two levels.
    if (step % 50 == 0) {
      std::map<std::pair<std::string, std::uint16_t>, int> where;
      for (std::size_t lvl = 0; lvl <= sw.bounded_levels(); ++lvl) {
        for (const auto* e : sw.level_entries(lvl)) {
          ++where[{e->match.to_string(), e->priority}];
        }
      }
      for (const auto& [k, count] : where) {
        ASSERT_EQ(count, 1) << "duplicate rule " << k.first;
      }
    }
  }

  // Invariant 3: every expected rule actually forwards its packet.
  for (std::uint32_t index = 0; index < 60; ++index) {
    bool any = false;
    for (std::uint16_t p = 1000; p < 1080; p = static_cast<std::uint16_t>(p + 10)) {
      if (expected.count({ProbeEngine::probe_match(index).to_string(), p}) != 0) {
        any = true;
      }
    }
    if (!any) continue;
    of::Packet pkt;
    pkt.header = ProbeEngine::probe_packet(index);
    const auto out = sw.forward(pkt, now + millis(1));
    EXPECT_EQ(out.kind, switchsim::ForwardOutcome::Kind::kForwarded) << index;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Executor: random DAGs never violate dependency order
// ---------------------------------------------------------------------------

class ExecutorProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorProperties, CompletionOrderRespectsRandomDags) {
  Rng rng(GetParam());
  net::Network net;
  std::vector<SwitchId> switches;
  for (int i = 0; i < 3; ++i) switches.push_back(net.add_switch(profiles::ovs()));

  sched::RequestDag dag;
  const std::size_t n = 60;
  for (std::uint32_t i = 0; i < n; ++i) {
    sched::SwitchRequest req;
    req.location = switches[rng.index(switches.size())];
    req.type = sched::RequestType::kAdd;
    req.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 9000));
    req.match = ProbeEngine::probe_match(i);
    req.actions = of::output_to(2);
    dag.add(req);
  }
  // Random forward edges (i < j keeps it acyclic).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.04)) dag.add_dependency(i, j);
    }
  }
  ASSERT_TRUE(dag.is_acyclic());

  // Track completion times via a wrapper scheduler? Simpler: executor's
  // completion callbacks run through post_flow_mod; we re-run and record by
  // observing per-request completion through a scheduler that logs issue
  // order, then verify with per-switch FIFO semantics. Most direct check:
  // wrap Network? Instead rely on the executor's own bookkeeping by
  // asserting zero rejections AND verifying issue order from a recording
  // scheduler.
  struct Recording : sched::UpdateScheduler {
    sched::DionysusScheduler inner;
    std::vector<std::size_t>* log;
    std::vector<std::size_t> order(const sched::RequestDag& d,
                                   std::vector<std::size_t> ready) override {
      auto out = inner.order(d, std::move(ready));
      log->insert(log->end(), out.begin(), out.end());
      return out;
    }
    [[nodiscard]] std::string name() const override { return "recording"; }
  };
  std::vector<std::size_t> issue_log;
  Recording recorder;
  recorder.log = &issue_log;

  const auto report = sched::execute(net, dag, recorder);
  EXPECT_EQ(report.issued, n);
  EXPECT_EQ(report.rejected, 0u);

  // A request may only be handed to the scheduler after all its
  // predecessors were handed out in earlier rounds (dependencies resolve
  // strictly before successors become ready).
  std::map<std::size_t, std::size_t> first_seen;
  for (std::size_t pos = 0; pos < issue_log.size(); ++pos) {
    first_seen.emplace(issue_log[pos], pos);
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : dag.successors(u)) {
      ASSERT_LT(first_seen.at(u), first_seen.at(v)) << u << "->" << v;
    }
  }
}

/// `size` distinct ids below `n`, in random order.
std::vector<std::size_t> random_pool(Rng& rng, std::size_t n, std::size_t size) {
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.index(i)]);
  ids.resize(size);
  return ids;
}

/// A seeded pool for the differential scheduler check: a DAG of up to ~1,800
/// requests over 1–20 switches, and a shuffled pool of 1–600 of them.
struct SchedulerCase {
  sched::RequestDag dag;
  std::vector<std::size_t> pool;
  std::vector<SwitchId> switches;
  std::map<SwitchId, core::OpCostEstimate> costs;
  sched::TangoSchedulerOptions options;
};

SchedulerCase random_scheduler_case(Rng& rng) {
  SchedulerCase c;
  // Switch ids: small and dense, or above 1000 and sparse.
  const SwitchId base = rng.chance(0.3) ? 1000 + rng.index(5000) : 1;
  const std::size_t stride = 1 + rng.index(7);
  const std::size_t n_switches = 1 + rng.index(20);
  for (std::size_t k = 0; k < n_switches; ++k) {
    c.switches.push_back(base + k * stride);
  }

  // Priorities: all set (often repeated), all unset, or mixed.
  const std::size_t priority_mode = rng.index(3);
  const std::int64_t priority_span = rng.chance(0.5) ? 4 : 60000;
  const std::size_t pool_size = 1 + rng.index(600);
  const std::size_t extra = rng.chance(0.4) ? rng.index(1200) : 0;
  for (std::uint32_t i = 0; i < pool_size + extra; ++i) {
    sched::SwitchRequest req;
    req.location = c.switches[rng.index(c.switches.size())];
    req.type = static_cast<sched::RequestType>(rng.index(3));
    if (priority_mode == 0 || (priority_mode == 2 && rng.chance(0.5))) {
      req.priority = static_cast<std::uint16_t>(rng.uniform_int(1, priority_span));
    }
    if (rng.chance(0.2)) req.deadline = millis(rng.uniform_int(1, 8));
    req.match = ProbeEngine::probe_match(i);
    c.dag.add(req);
  }
  // Forward edges keep it acyclic: none, sparse, dense, or fan-outs from a
  // few requests (heavy unlocked batches for the lookahead). A long chain
  // through the extra requests spreads the pool's depths far apart.
  const std::size_t n = c.dag.size();
  const std::size_t edge_mode = rng.index(5);
  if (edge_mode == 1 || edge_mode == 2) {
    const std::size_t edges = edge_mode == 1 ? n / 4 : 3 * n / 2;
    for (std::size_t e = 0; e < edges; ++e) {
      const std::size_t u = rng.index(n);
      const std::size_t v = rng.index(n);
      if (u < v) c.dag.add_dependency(u, v);
    }
  } else if (edge_mode == 3) {
    for (std::size_t k = 0; k < 1 + rng.index(8); ++k) {
      const std::size_t u = rng.index(n);
      for (std::size_t e = 0; e < 1 + rng.index(60); ++e) {
        const std::size_t v = u + 1 + rng.index(n);
        if (v < n) c.dag.add_dependency(u, v);
      }
    }
  } else if (edge_mode == 4) {
    // Fan-ins: a request unlocks only once all of its 2-4 preds are done.
    for (std::size_t k = 0; k < n / 3; ++k) {
      const std::size_t v = rng.index(n);
      for (std::size_t e = 0; e < 2 + rng.index(3); ++e) {
        const std::size_t u = rng.index(n);
        if (u < v) c.dag.add_dependency(u, v);
      }
    }
  }
  if (extra > 1 && rng.chance(0.3)) {
    for (std::size_t i = pool_size + 1; i < n; ++i) c.dag.add_dependency(i - 1, i);
  }

  c.pool = random_pool(rng, n, pool_size);

  // Costs: a random subset of switches is profiled (the rest use the static
  // fallback), with descending adds dearer, exactly as dear, one ulp away,
  // or cheaper.
  const std::size_t cost_mode = rng.index(4);
  for (const SwitchId sw : c.switches) {
    if (rng.chance(0.25)) continue;
    core::OpCostEstimate est;
    est.add_ascending_ms = rng.uniform_real(0.1, 3.0);
    est.mod_ms = rng.uniform_real(0.1, 3.0);
    est.del_ms = rng.uniform_real(0.1, 3.0);
    switch (cost_mode) {
      case 0: est.add_descending_ms = est.add_ascending_ms * 2.5; break;
      case 1: est.add_descending_ms = est.add_ascending_ms; break;
      case 2:
        est.add_descending_ms = std::nextafter(
            est.add_ascending_ms, rng.chance(0.5) ? 0.0 : 10.0);
        break;
      default: est.add_descending_ms = est.add_ascending_ms * 0.4; break;
    }
    c.costs[sw] = est;
  }
  c.options.sort_priorities = rng.chance(0.7);
  c.options.deadline_first = rng.chance(0.3);
  c.options.prefix_lookahead = rng.chance(0.3);
  return c;
}

/// The pool mixes ADDs with and without a priority: the reference's ADD
/// comparator is no strict weak order there, so its output is unspecified.
bool mixes_adds(const sched::RequestDag& dag, const std::vector<std::size_t>& pool) {
  bool with_priority = false, without_priority = false;
  for (const std::size_t id : pool) {
    const auto& req = dag.request(id);
    if (req.type != sched::RequestType::kAdd) continue;
    (req.priority ? with_priority : without_priority) = true;
  }
  return with_priority && without_priority;
}

TEST_P(ExecutorProperties, SchedulerOutputsArePermutations) {
  // Every output is a permutation of the pool (or, under prefix lookahead,
  // a prefix of one) and equals, id for id, what the pre-rewrite order()
  // bodies in tests/reference_scheduler.h return.
  Rng rng(GetParam() + 100);
  std::size_t compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto c = random_scheduler_case(rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    sched::DionysusScheduler dionysus;
    sched::testing::ReferenceDionysusScheduler ref_dionysus;
    sched::BasicTangoScheduler tango(c.costs, c.options);
    sched::testing::ReferenceTangoScheduler ref_tango(c.costs, c.options);
    // The same scheduler objects order a second pool of the DAG after some
    // requests moved to other (and new) switches.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        for (std::size_t k = 0; k < 1 + c.dag.size() / 8; ++k) {
          c.dag.request(rng.index(c.dag.size())).location =
              rng.chance(0.5) ? c.switches[rng.index(c.switches.size())]
                              : 90000 + rng.index(3);
        }
        c.pool = random_pool(
            rng, c.dag.size(),
            1 + rng.index(std::min<std::size_t>(600, c.dag.size())));
      }
      auto expect = c.pool;
      std::sort(expect.begin(), expect.end());
      const auto by_depth = dionysus.order(c.dag, c.pool);
      auto sorted = by_depth;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, expect) << dionysus.name();
      EXPECT_EQ(by_depth, ref_dionysus.order(c.dag, c.pool)) << dionysus.name();

      const auto by_pattern = tango.order(c.dag, c.pool);
      if (!c.options.prefix_lookahead) {
        sorted = by_pattern;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, expect) << tango.name();
      }
      if (!mixes_adds(c.dag, c.pool)) {
        EXPECT_EQ(by_pattern, ref_tango.order(c.dag, c.pool)) << tango.name();
        for (const auto& pattern : tango.patterns()) {
          EXPECT_EQ(tango.pattern_score(c.dag, c.pool, pattern),
                    ref_tango.pattern_score(c.dag, c.pool, pattern));
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorProperties, ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Transaction journal: indexed images vs the scan-based reference loop
// ---------------------------------------------------------------------------

using sched::testing::journal_difference;
using sched::testing::reference_build_journal;

/// Numeric and key-string order disagree on these ("1000" < "7" < "999").
constexpr std::uint16_t kJournalPriorities[] = {7, 100, 999, 1000, 5000, 30000};

std::uint16_t journal_priority(Rng& rng) {
  return kJournalPriorities[rng.index(std::size(kJournalPriorities))];
}

/// ClassBench ACL matches: wildcards and nested, overlapping prefixes.
std::vector<of::Match> acl_matches(Rng& rng, std::size_t n) {
  workload::ClassbenchProfile profile;
  profile.n_rules = n;
  profile.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  profile.chain_len = 3 + rng.index(8);
  profile.n_chains = 1 + rng.index(3);
  std::vector<of::Match> out;
  for (const auto& rule : workload::generate_classbench(profile)) {
    out.push_back(rule.match);
  }
  return out;
}

/// `m` with what the rule key ignores perturbed: nw_tos, dl_vlan_pcp and the
/// value of a wildcarded field.
of::Match vary_unkeyed(of::Match m, Rng& rng) {
  if (rng.chance(0.15)) {
    m.wildcards &= ~of::kWildcardNwTos;
    m.nw_tos = static_cast<std::uint8_t>(rng.index(3));
  }
  if (rng.chance(0.1)) {
    m.wildcards &= ~of::kWildcardDlVlanPcp;
    m.dl_vlan_pcp = static_cast<std::uint8_t>(rng.index(3));
  }
  if (rng.chance(0.15) && m.field_wildcarded(of::kWildcardInPort)) {
    m.in_port = static_cast<std::uint16_t>(1 + rng.index(3));
  }
  return m;
}

/// A filter at least as wide as `m`: constraints dropped, prefixes shortened.
of::Match widen(of::Match m, Rng& rng) {
  if (rng.chance(0.5)) m.wildcards |= of::kWildcardTpDst | of::kWildcardTpSrc;
  if (rng.chance(0.5)) m.wildcards |= of::kWildcardNwProto;
  if (rng.chance(0.5)) {
    m.set_nw_src_prefix(m.nw_src,
                        m.nw_src_prefix_len() - static_cast<int>(rng.index(9)));
  }
  if (rng.chance(0.5)) {
    m.set_nw_dst_prefix(m.nw_dst,
                        m.nw_dst_prefix_len() - static_cast<int>(rng.index(9)));
  }
  return m;
}

of::FlowMod add_of(const of::Match& match, std::uint16_t priority,
                   std::uint64_t cookie, std::uint16_t port) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kAdd;
  fm.match = match;
  fm.priority = priority;
  fm.cookie = cookie;
  fm.actions = of::output_to(port);
  return fm;
}

/// Pre images on switches 1..n and a DAG over them, cookies stamped the way
/// a transaction stamps them.
struct JournalCase {
  std::map<SwitchId, sched::TableImage> pre;
  sched::RequestDag dag;
};

constexpr std::uint32_t kJournalTxn = 7;

void stamp_cookies(sched::RequestDag& dag) {
  for (std::size_t i = 0; i < dag.size(); ++i) {
    dag.request(i).cookie = (std::uint64_t{kJournalTxn} << 32) | i;
  }
}

/// Switches holding ClassBench rules at several priorities; an update that
/// ADDs over pre-image rules, MODIFYs and DELETEs through wide filters
/// hitting several rules at several priorities, and DELETEs a pre-image
/// rule before ADDing its key back.
JournalCase random_journal_case(Rng& rng, std::size_t min_requests = 1) {
  JournalCase c;
  const std::size_t n_switches = 1 + rng.index(3);
  const auto pool = acl_matches(rng, 20 + rng.index(60));
  for (SwitchId sw = 1; sw <= n_switches; ++sw) {
    auto& image = c.pre[sw];
    const std::size_t rules = rng.index(50);
    for (std::size_t k = 0; k < rules; ++k) {
      sched::apply_to_image(
          image, add_of(vary_unkeyed(pool[rng.index(pool.size())], rng),
                        journal_priority(rng),
                        rng.chance(0.5) ? 0 : 1 + rng.index(1 << 20),
                        static_cast<std::uint16_t>(1 + rng.index(4))));
    }
  }

  const std::size_t n = min_requests + rng.index(80);
  for (std::size_t i = 0; i < n; ++i) {
    sched::SwitchRequest req;
    req.location = 1 + rng.index(n_switches);
    const double roll = rng.uniform_real(0, 1);
    req.type = roll < 0.45   ? sched::RequestType::kAdd
               : roll < 0.75 ? sched::RequestType::kMod
                             : sched::RequestType::kDel;
    const auto& pre = c.pre[req.location];
    if (!pre.empty() && rng.chance(0.4)) {
      const auto& rule = std::next(pre.begin(), rng.index(pre.size()))->second;
      req.match = rng.chance(0.7) ? rule.match : vary_unkeyed(rule.match, rng);
      req.priority = rule.priority;
    } else {
      req.match = vary_unkeyed(pool[rng.index(pool.size())], rng);
    }
    if (req.type != sched::RequestType::kAdd && rng.chance(0.4)) {
      req.match = widen(req.match, rng);
    }
    if (rng.chance(0.02)) req.match = of::Match::any();
    if (!req.priority.has_value() || rng.chance(0.3)) {
      if (rng.chance(0.85)) req.priority = journal_priority(rng);
    }
    req.actions = of::output_to(static_cast<std::uint16_t>(1 + rng.index(4)));
    c.dag.add(req);
  }

  // A DELETE of a pre-image rule, then an ADD of the same key after it.
  for (SwitchId sw = 1; sw <= n_switches; ++sw) {
    const auto& pre = c.pre[sw];
    if (pre.empty() || !rng.chance(0.6)) continue;
    const auto& rule = std::next(pre.begin(), rng.index(pre.size()))->second;
    sched::SwitchRequest del;
    del.location = sw;
    del.type = sched::RequestType::kDel;
    del.match = rule.match;
    sched::SwitchRequest add = del;
    add.type = sched::RequestType::kAdd;
    add.priority = rule.priority;
    add.actions = of::output_to(9);
    const std::size_t d = c.dag.add(del);
    c.dag.add_dependency(d, c.dag.add(add));
  }

  // Forward edges (acyclic): none, sparse, or chains.
  const std::size_t size = c.dag.size();
  const std::size_t edge_mode = rng.index(3);
  for (std::size_t e = 0; edge_mode == 1 && e < size / 2; ++e) {
    const std::size_t u = rng.index(size);
    const std::size_t v = rng.index(size);
    if (u < v) c.dag.add_dependency(u, v);
  }
  for (std::size_t i = 1; edge_mode == 2 && i < size; ++i) {
    if (rng.chance(0.5)) c.dag.add_dependency(i - 1, i);
  }
  stamp_cookies(c.dag);
  return c;
}

class JournalProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JournalProperties, IndexedJournalMatchesScanReference) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto c = random_journal_case(rng);
    EXPECT_EQ(journal_difference(
                  sched::build_journal(c.dag, c.pre),
                  reference_build_journal(c.dag, c.pre)),
              "");
  }
}

TEST(JournalTest, HitsAreVisitedInKeyOrder) {
  // The tuple-space index keeps a bucket's rules in insertion order: the
  // pre-image rule at priority 5000 before the one the update adds at 1000.
  // Key order is the reverse ("/1000" < "/5000"), so a MODIFY or DELETE that
  // visited hits in index order would journal its inverses backwards.
  const of::Match m = core::ProbeEngine::probe_match(3);
  std::map<SwitchId, sched::TableImage> pre;
  sched::apply_to_image(pre[1], add_of(m, 5000, 11, 1));
  sched::apply_to_image(pre[1], add_of(core::ProbeEngine::probe_match(4), 5000, 12, 1));
  sched::RequestDag dag;
  const auto req = [&](sched::RequestType type, std::uint16_t priority) {
    sched::SwitchRequest r;
    r.location = 1;
    r.type = type;
    r.match = m;
    r.priority = priority;
    r.actions = of::output_to(2);
    return dag.add(r);
  };
  const std::size_t add = req(sched::RequestType::kAdd, 1000);
  const std::size_t mod = req(sched::RequestType::kMod, 30000);
  const std::size_t del = req(sched::RequestType::kDel, 30000);
  dag.add_dependency(add, mod);
  dag.add_dependency(mod, del);
  stamp_cookies(dag);

  const auto got = sched::build_journal(dag, pre);
  EXPECT_EQ(journal_difference(got,
                               reference_build_journal(dag, pre)),
            "");
  ASSERT_EQ(got.entries.size(), 3u);
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    const auto& inverse = got.entries[i].inverse;
    ASSERT_EQ(inverse.size(), 2u);
    EXPECT_EQ(inverse[0].priority, 1000);
    EXPECT_EQ(inverse[1].priority, 5000);
  }
  // The DELETE swept both; only the other flow's rule is left.
  EXPECT_EQ(got.post.at(1).size(), 1u);
}

TEST_P(JournalProperties, TeUpdateJournalMatchesReference) {
  // te_update_dag over B4 sites that already hold the flows' rules, at one
  // to three priorities each, so MODIFYs and DELETEs hit several rules.
  Rng rng(GetParam() + 400);
  net::Network net;
  const auto sites = net::build_b4(net, profiles::ovs());
  auto dag = bench::b4_te_update(net, sites, 120, rng);
  stamp_cookies(dag);
  std::map<SwitchId, sched::TableImage> pre;
  for (const SwitchId s : sites) {
    pre[s] = sched::image_of(net.sw(s).flow_stats(of::Match::any()));
  }
  for (std::uint32_t flow = 0; flow < 140; ++flow) {
    for (const SwitchId s : sites) {
      if (!rng.chance(0.3)) continue;
      for (std::size_t k = 0; k < 1 + rng.index(3); ++k) {
        sched::apply_to_image(
            pre[s], add_of(core::ProbeEngine::probe_match(flow),
                           static_cast<std::uint16_t>(rng.uniform_int(1000, 9000)),
                           flow, 2));
      }
    }
  }
  EXPECT_EQ(journal_difference(sched::build_journal(dag, pre),
                               reference_build_journal(dag, pre)),
            "");
}

/// Adds one quiet OVS switch per pre image (ids 1..n) and installs its rules.
void populate(net::Network& net, const std::map<SwitchId, sched::TableImage>& tables) {
  auto profile = profiles::ovs();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  sched::RequestDag install;
  for (const auto& [sw, image] : tables) {
    ASSERT_EQ(net.add_switch(profile), sw);
    for (const auto& [key, rule] : image) {
      (void)key;
      sched::SwitchRequest req;
      req.location = sw;
      req.priority = rule.priority;
      req.match = rule.match;
      req.actions = rule.actions;
      req.cookie = rule.cookie;
      install.add(req);
    }
  }
  sched::DionysusScheduler scheduler;
  ASSERT_EQ(sched::execute(net, install, scheduler).rejected, 0u);
}

/// Switch 1 crashes shortly after the commit starts.
void crash_switch_one(net::Network& net) {
  net::FaultConfig cfg;
  cfg.seed = 41;
  cfg.crash_at = net.now() + micros(400);
  cfg.crash_downtime = millis(5);
  net.enable_faults(1, cfg);
}

/// True when `a` reaches `b` through the DAG's edges.
std::vector<std::vector<bool>> reachability(const sched::RequestDag& dag) {
  const std::size_t n = dag.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t> stack(dag.successors(src).begin(),
                                   dag.successors(src).end());
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      if (reach[src][v]) continue;
      reach[src][v] = true;
      for (const std::size_t w : dag.successors(v)) stack.push_back(w);
    }
  }
  return reach;
}

TEST_P(JournalProperties, TransactionsRepairCrashesLikeTheReference) {
  // Twin worlds per case and policy. In A the transaction commits, sees the
  // crash and reconciles itself. In B the same transaction stops when its
  // execution drains, and the reconciler runs with the reference journal's
  // images and string-keyed attribution, as the transaction used to. Both
  // must issue the same repairs: same counts, same end time, same tables.
  Rng rng(GetParam() + 500);
  std::size_t reconciled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const JournalCase c = random_journal_case(rng, /*min_requests=*/20);
    for (const auto policy :
         {sched::RecoveryPolicy::kRollForward, sched::RecoveryPolicy::kRollBack}) {
      SCOPED_TRACE(sched::to_string(policy));
      const bool forward = policy == sched::RecoveryPolicy::kRollForward;
      sched::TransactionOptions topts;
      topts.policy = policy;
      topts.txn_id = kJournalTxn;
      topts.exec.request_timeout = millis(200);
      topts.exec.max_retries = 6;
      topts.exec.backoff_base = millis(5);

      net::Network a;
      populate(a, c.pre);
      sched::UpdateTransaction txn_a(a, c.dag, topts);
      std::map<SwitchId, sched::TableImage> pre;
      for (const auto& entry : txn_a.journal()) {
        pre.try_emplace(entry.location, txn_a.pre_image(entry.location));
      }
      const auto ref = reference_build_journal(txn_a.dag(), pre);
      ASSERT_EQ(txn_a.journal().size(), ref.entries.size());
      for (std::size_t i = 0; i < ref.entries.size(); ++i) {
        EXPECT_EQ(txn_a.journal()[i].intent, ref.entries[i].intent) << i;
        EXPECT_EQ(txn_a.journal()[i].inverse, ref.entries[i].inverse) << i;
      }
      for (const auto& [sw, image] : ref.post) {
        EXPECT_TRUE(txn_a.post_image(sw) == image) << "switch " << sw;
      }
      crash_switch_one(a);
      sched::DionysusScheduler scheduler_a;
      const sched::TransactionReport report = txn_a.commit(scheduler_a);

      net::Network b;
      populate(b, c.pre);
      sched::UpdateTransaction txn_b(b, c.dag, topts);
      crash_switch_one(b);
      sched::DionysusScheduler scheduler_b;
      txn_b.start_commit(scheduler_b);
      while (!txn_b.exec_done() && b.events().step()) {
      }
      txn_b.abandon();
      if (!report.reconciled) continue;  // the crash missed the commit
      ++reconciled;

      sched::ReconcilerOptions ropts;
      ropts.max_rounds = topts.max_reconcile_rounds;
      ropts.exec = topts.exec;
      const std::size_t dag_size = txn_b.dag().size();
      const sched::Reconciler::Author author =
          [&](SwitchId sw, const sched::RuleImage& rule) {
            return sched::testing::reference_author(ref, txn_b.id(), dag_size, sw,
                                                    rule, forward);
          };
      const auto reach = reachability(txn_b.dag());
      const sched::Reconciler::MustPrecede precede = [&](std::size_t x,
                                                         std::size_t y) {
        return forward ? reach[x][y] : reach[y][x];
      };
      sched::Reconciler reconciler(b, ropts);
      const auto stats = reconciler.run(forward ? ref.post : pre, author, precede);

      EXPECT_EQ(report.reconcile_rounds, stats.rounds);
      EXPECT_EQ(report.repairs_issued, stats.repairs_issued);
      EXPECT_EQ(report.stale_rules_removed, stats.stale_rules_removed);
      EXPECT_EQ(report.readback_requests,
                txn_b.report().readback_requests + stats.readback_requests);
      EXPECT_EQ(report.committed, stats.converged);
      EXPECT_EQ(a.now(), b.now());
      for (const auto& [sw, image] : c.pre) {
        (void)image;
        EXPECT_TRUE(sched::image_of(a.sw(sw).flow_stats(of::Match::any())) ==
                    sched::image_of(b.sw(sw).flow_stats(of::Match::any())))
            << "switch " << sw;
      }
    }
  }
  EXPECT_GT(reconciled, 6u);
}

// Seeds 20, 28 and 29 make the reconciler build a cyclic repair DAG under
// roll-back; both worlds must fail it the same way instead of crashing.
INSTANTIATE_TEST_SUITE_P(Seeds, JournalProperties,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace tango
