// Randomized property tests across module boundaries:
//  * codec: arbitrary messages round-trip; corrupted frames never crash,
//  * switch model: invariants hold under random op sequences,
//  * executor: dependency order is never violated for random DAGs,
//  * scheduler: orderings are permutations of the ready set, equal id for
//    id to the pre-rewrite reference schedulers (reference_scheduler.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "net/network.h"
#include "openflow/codec.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
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

}  // namespace
}  // namespace tango
