// Randomized property tests across module boundaries:
//  * codec: arbitrary messages round-trip; corrupted frames never crash,
//  * switch model: invariants hold under random op sequences,
//  * executor: dependency order is never violated for random DAGs,
//  * scheduler: orderings are permutations of the ready set, equal id for
//    id to the pre-rewrite reference schedulers (reference_scheduler.h);
//    where issue_keys() holds, order() is the pool stably sorted by the
//    keys, and the executor's keyed path acts exactly as its round path,
//  * transaction journal: the indexed journal equals the scan-based
//    reference loop (reference_journal.h), and transactions repair a crash
//    exactly as that journal's attribution would,
//  * consistency verifier: its reports equal the per-hop reference walk
//    (reference_verifier.h) over random multi-table networks.
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
#include "scheduler/verifier.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
#include "workload/classbench.h"
#include "reference_journal.h"
#include "reference_scheduler.h"
#include "reference_verifier.h"

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
      for (const auto& e : sw.flow_stats(of::Match::any()).entries) {
        ++where[{e.match.to_string(), e.priority}];
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
  // or cheaper; or all one ulp dearer (the scheduler skips the sums at this
  // edge); or all dearer but for one switch that holds no request and is
  // one ulp cheaper (the sums are computed, and descending never wins).
  const std::size_t cost_mode = rng.index(6);
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
      case 3: est.add_descending_ms = est.add_ascending_ms * 0.4; break;
      case 4:
        est.add_descending_ms = std::nextafter(est.add_ascending_ms, 10.0);
        break;
      default: est.add_descending_ms = est.add_ascending_ms * 2.5; break;
    }
    c.costs[sw] = est;
  }
  if (cost_mode == 5) {
    // The next id after the last switch: no request is ever placed there.
    core::OpCostEstimate idle;
    idle.add_ascending_ms = idle.mod_ms = idle.del_ms = 1.0;
    idle.add_descending_ms = std::nextafter(1.0, 0.0);
    c.costs[base + n_switches * stride] = idle;
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

// ---------------------------------------------------------------------------
// Keyed ready pools: issue_keys() against order(), and the executor's keyed
// path against its round path (RoundPathScheduler in reference_scheduler.h)
// ---------------------------------------------------------------------------

/// `pool` stably sorted by keys[id].
std::vector<std::size_t> sorted_by_keys(std::vector<std::size_t> pool,
                                        const std::vector<std::uint64_t>& keys) {
  std::stable_sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
    return keys[a] < keys[b];
  });
  return pool;
}

/// Some switch in `costs` has cheaper descending adds (a NaN counts).
bool descending_cheaper(const std::map<SwitchId, core::OpCostEstimate>& costs) {
  return std::any_of(costs.begin(), costs.end(), [](const auto& entry) {
    return !(entry.second.add_descending_ms >= entry.second.add_ascending_ms);
  });
}

TEST(SchedulerProperties, IssueKeysMatchOrder) {
  // Where issue_keys() holds, every order() of the DAG is the pool stably
  // sorted by the keys: pools of 1 to all requests, in random order.
  Rng rng(23);
  std::size_t keyed_tango = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto c = random_scheduler_case(rng);
    sched::DionysusScheduler dionysus;
    sched::BasicTangoScheduler tango(c.costs);
    sched::TangoSchedulerOptions unsorted_options;
    unsorted_options.sort_priorities = false;
    sched::BasicTangoScheduler unsorted(c.costs, unsorted_options);
    std::vector<sched::UpdateScheduler*> keyed = {&dionysus};
    std::vector<std::uint64_t> keys;
    const bool cheaper = descending_cheaper(c.costs);
    EXPECT_EQ(tango.issue_keys(c.dag, keys), !cheaper);
    EXPECT_EQ(unsorted.issue_keys(c.dag, keys), !cheaper);
    if (!cheaper) {
      keyed.push_back(&tango);
      keyed.push_back(&unsorted);
      ++keyed_tango;
    }
    if (c.options.prefix_lookahead || c.options.deadline_first) {
      sched::BasicTangoScheduler extended(c.costs, c.options);
      EXPECT_FALSE(extended.issue_keys(c.dag, keys));
    }
    for (auto* scheduler : keyed) {
      ASSERT_TRUE(scheduler->issue_keys(c.dag, keys)) << scheduler->name();
      ASSERT_EQ(keys.size(), c.dag.size());
      for (int pass = 0; pass < 3; ++pass) {
        const auto pool =
            pass == 0 ? c.pool
                      : random_pool(rng, c.dag.size(), 1 + rng.index(c.dag.size()));
        EXPECT_EQ(scheduler->order(c.dag, pool), sorted_by_keys(pool, keys))
            << scheduler->name() << " pass " << pass;
      }
    }
  }
  EXPECT_GT(keyed_tango, 20u);

  // Descending adds one ulp dearer everywhere keep the keys; one switch one
  // ulp cheaper, even one that holds no request, drops them, as do the
  // extensions that order by more than a key.
  sched::RequestDag dag;
  for (std::uint32_t i = 0; i < 4; ++i) {
    sched::SwitchRequest req;
    req.location = 1 + i % 2;
    req.priority = static_cast<std::uint16_t>(100 - i);
    req.match = ProbeEngine::probe_match(i);
    dag.add(req);
  }
  core::OpCostEstimate dearer;
  dearer.add_ascending_ms = dearer.mod_ms = dearer.del_ms = 1.0;
  dearer.add_descending_ms = std::nextafter(1.0, 2.0);
  std::map<SwitchId, core::OpCostEstimate> costs = {{1, dearer}, {2, dearer}};
  std::vector<std::uint64_t> keys;
  EXPECT_TRUE(sched::BasicTangoScheduler(costs).issue_keys(dag, keys));
  EXPECT_TRUE(sched::BasicTangoScheduler({}).issue_keys(dag, keys));
  sched::TangoSchedulerOptions lookahead;
  lookahead.prefix_lookahead = true;
  EXPECT_FALSE(sched::BasicTangoScheduler(costs, lookahead).issue_keys(dag, keys));
  sched::TangoSchedulerOptions deadlines;
  deadlines.deadline_first = true;
  EXPECT_FALSE(sched::BasicTangoScheduler(costs, deadlines).issue_keys(dag, keys));
  auto cheaper = dearer;
  cheaper.add_descending_ms = std::nextafter(1.0, 0.0);
  costs[3] = cheaper;
  EXPECT_FALSE(sched::BasicTangoScheduler(costs).issue_keys(dag, keys));
}

/// A seeded DAG for the keyed-vs-round executor check: 60-200 requests on
/// switches 1..`switches`, DEL, MOD and ADD over a few matches, priorities
/// repeated, missing or distinct, and edges along a random topological
/// order, so requests become ready out of id order.
sched::RequestDag random_exec_dag(Rng& rng, std::size_t switches) {
  sched::RequestDag dag;
  const std::size_t n = 60 + rng.index(141);
  const std::int64_t priority_span = rng.chance(0.5) ? 3 : 60000;
  for (std::size_t i = 0; i < n; ++i) {
    sched::SwitchRequest req;
    req.location = 1 + rng.index(switches);
    req.type = static_cast<sched::RequestType>(rng.index(3));
    if (!rng.chance(0.3)) {
      req.priority = static_cast<std::uint16_t>(rng.uniform_int(1, priority_span));
    }
    req.match = ProbeEngine::probe_match(static_cast<std::uint32_t>(rng.index(n / 2)));
    req.actions = of::output_to(2);
    dag.add(req);
  }
  const auto rank = random_pool(rng, n, n);
  const double density = (rng.chance(0.5) ? 1.5 : 6.0) / static_cast<double>(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (rank[u] < rank[v] && rng.chance(density)) dag.add_dependency(u, v);
    }
  }
  return dag;
}

/// What one execute() leaves behind, for the twin comparison.
struct ExecRun {
  sched::ExecutionReport report;
  /// on_complete (1 accepted, 0 rejected) and on_failed (-1) calls in order.
  std::vector<std::pair<std::size_t, int>> calls;
  std::vector<of::FlowStatsReply> tables;
  SimTime end;
};

/// Executes `dag` on a fresh network of `switches` OVS and Switch #1
/// agents. A nonzero `fault_seed` drops 3% of frames each way on every
/// switch and crashes switch 1 at 2 ms for a second, long enough that the
/// executor declares it dead.
ExecRun run_exec(const sched::RequestDag& dag, sched::UpdateScheduler& scheduler,
                 sched::ExecutorOptions options, std::size_t switches,
                 std::uint64_t fault_seed) {
  net::Network net;
  for (std::size_t k = 0; k < switches; ++k) {
    const SwitchId sw =
        net.add_switch(k % 2 == 0 ? profiles::ovs() : profiles::switch1());
    if (fault_seed == 0) continue;
    net::FaultConfig cfg;
    cfg.drop_to_switch = 0.03;
    cfg.drop_to_controller = 0.03;
    cfg.seed = fault_seed + sw;
    if (k == 0) cfg.crashes.push_back({SimTime{} + millis(2), seconds(1)});
    net.enable_faults(sw, cfg);
  }
  ExecRun out;
  options.on_complete = [&out](std::size_t id, bool accepted) {
    out.calls.emplace_back(id, accepted ? 1 : 0);
  };
  options.on_failed = [&out](std::size_t id) { out.calls.emplace_back(id, -1); };
  out.report = sched::execute(net, dag, scheduler, options);
  for (std::size_t k = 0; k < switches; ++k) {
    out.tables.push_back(net.sw(static_cast<SwitchId>(k + 1)).flow_stats(of::Match::any()));
  }
  out.end = net.now();
  return out;
}

TEST_P(ExecutorProperties, KeyedQueuesMatchRoundPath) {
  // The keyed path (per-switch heaps filled once per request) must act
  // exactly as the round path (order() on every changed pool): same
  // reports, callbacks, tables and clock, with and without faults.
  Rng rng(GetParam() + 200);
  std::size_t dead_runs = 0;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t switches = 3 + rng.index(4);
    const sched::RequestDag dag = random_exec_dag(rng, switches);
    const bool faults = trial % 2 == 1;
    const std::uint64_t fault_seed = faults ? 1 + rng.index(1000000) : 0;
    std::map<SwitchId, core::OpCostEstimate> costs;
    for (SwitchId sw = 1; sw <= switches; ++sw) {
      if (rng.chance(0.3)) continue;  // the static fallback
      core::OpCostEstimate est;
      est.add_ascending_ms = rng.uniform_real(0.1, 3.0);
      est.add_descending_ms = est.add_ascending_ms * 2.5;
      est.mod_ms = rng.uniform_real(0.1, 3.0);
      est.del_ms = rng.uniform_real(0.1, 3.0);
      costs[sw] = est;
    }
    sched::TangoSchedulerOptions tango_options;
    tango_options.sort_priorities = rng.chance(0.7);
    sched::BasicTangoScheduler tango(costs, tango_options);
    sched::DionysusScheduler dionysus;
    for (sched::UpdateScheduler* scheduler :
         {static_cast<sched::UpdateScheduler*>(&tango),
          static_cast<sched::UpdateScheduler*>(&dionysus)}) {
      std::vector<std::uint64_t> keys;
      ASSERT_TRUE(scheduler->issue_keys(dag, keys)) << scheduler->name();
      sched::testing::RoundPathScheduler round_path(*scheduler);
      for (const std::size_t window : {1, 4}) {
        for (const bool speculative : {false, true}) {
          SCOPED_TRACE(scheduler->name() + " window " + std::to_string(window) +
                       (speculative ? " speculative" : ""));
          sched::ExecutorOptions options;
          options.per_switch_window = window;
          options.speculative_dependents = speculative;
          if (faults) {
            options.request_timeout = millis(20);
            options.max_retries = 1;
            options.backoff_base = millis(1);
          }
          const ExecRun keyed = run_exec(dag, *scheduler, options, switches, fault_seed);
          const ExecRun round = run_exec(dag, round_path, options, switches, fault_seed);
          EXPECT_EQ(keyed.report.issued, round.report.issued);
          EXPECT_EQ(keyed.report.scheduling_rounds, round.report.scheduling_rounds);
          EXPECT_EQ(keyed.report.makespan.ns(), round.report.makespan.ns());
          EXPECT_EQ(keyed.report.failed_requests, round.report.failed_requests);
          EXPECT_TRUE(keyed.report == round.report);
          EXPECT_EQ(keyed.calls, round.calls);
          EXPECT_TRUE(keyed.tables == round.tables);
          EXPECT_EQ(keyed.end.ns(), round.end.ns());
          EXPECT_EQ(keyed.report.lost_requests, 0u);
          if (!keyed.report.failed_switches.empty()) ++dead_runs;
        }
      }
    }
  }
  EXPECT_GT(dead_runs, 0u);
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
  cfg.crashes.push_back({net.now() + micros(400), millis(5)});
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

// ---------------------------------------------------------------------------
// Consistency verifier: the snapshot walk equals the per-hop reference
// ---------------------------------------------------------------------------

/// Flows and rules over a small header space (eight destinations, two
/// transport ports, in_port 1-8) so matches overlap and a packet hits
/// several rules at the same few priorities.
constexpr std::uint16_t kVerifierPorts = 9;  // 8 is never a link's port

of::PacketHeader verifier_packet(Rng& rng) {
  of::PacketHeader pkt;
  pkt.in_port = static_cast<std::uint16_t>(1 + rng.index(8));
  pkt.dl_type = 0x0800;
  pkt.nw_dst = 0x0a000000u + static_cast<std::uint32_t>(rng.index(8));
  pkt.nw_proto = 6;
  pkt.tp_dst = rng.chance(0.5) ? 80 : 443;
  return pkt;
}

of::FlowMod verifier_rule(Rng& rng) {
  of::FlowMod fm;
  fm.match.with_dl_type(0x0800);
  fm.match.set_nw_dst_prefix(
      0x0a000000u + static_cast<std::uint32_t>(rng.index(8)),
      static_cast<int>(29 + rng.index(4)));
  if (rng.chance(0.3)) fm.match.with_tp_dst(rng.chance(0.5) ? 80 : 443);
  if (rng.chance(0.3)) {
    fm.match.with_in_port(static_cast<std::uint16_t>(1 + rng.index(8)));
  }
  fm.priority = static_cast<std::uint16_t>(100 * (1 + rng.index(3)));
  fm.cookie = rng.index(5);
  const double roll = rng.uniform_real(0, 1);
  if (roll < 0.08) {
    fm.actions = of::output_to(of::kPortController);
  } else if (roll < 0.14) {
    fm.actions = {};  // drop: no output action
  } else {
    fm.actions = of::output_to(static_cast<std::uint16_t>(1 + rng.index(kVerifierPorts)));
  }
  return fm;
}

/// One profile of each table layout, shrunk so a few dozen rules spill
/// over every level: TCAM only, FIFO TCAM over user space, a two-level
/// policy cache over software, and OVS.
switchsim::SwitchProfile verifier_profile(std::size_t kind) {
  switchsim::SwitchProfile p;
  switch (kind % 4) {
    case 0:
      p = profiles::switch2();
      p.cache_levels = {tables::TcamConfig{24, tables::TcamMode::kDoubleWide}};
      break;
    case 1:
      p = profiles::switch1();
      p.cache_levels = {tables::TcamConfig{6, tables::TcamMode::kDoubleWide}};
      break;
    case 2:
      p = profiles::policy_cache("pc", {3, 4}, tables::LexCachePolicy::lru());
      break;
    default:
      p = profiles::ovs();
  }
  p.costs.jitter_frac = 0;
  p.paths.jitter_frac = 0;
  return p;
}

std::vector<sched::FlowCheck> verifier_flows(Rng& rng, std::size_t switches) {
  std::vector<sched::FlowCheck> flows(10 + rng.index(20));
  for (auto& flow : flows) {
    flow.ingress = static_cast<SwitchId>(1 + rng.index(switches));
    flow.packet = verifier_packet(rng);
    if (rng.chance(0.4)) {
      flow.expected_egress = static_cast<SwitchId>(1 + rng.index(switches));
    }
    for (SwitchId s = 1; s <= switches; ++s) {
      if (rng.chance(0.3)) flow.expected_cookies[s] = rng.index(5);
    }
  }
  return flows;
}

void install_rules(net::Network& net, Rng& rng, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto sw = static_cast<SwitchId>(1 + rng.index(net.switch_count()));
    (void)net.install(sw, verifier_rule(rng));  // a full TCAM may reject
  }
}

TEST(VerifierProperties, SnapshotWalkMatchesPerHopReference) {
  std::size_t changed = 0;
  std::size_t multi_table = 0;
  std::map<sched::VerifierViolation::Kind, std::size_t> kinds;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 900);
    net::Network net;
    const std::size_t switches = 3 + rng.index(4);
    for (std::size_t i = 0; i < switches; ++i) {
      net.add_switch(verifier_profile(seed + i));
    }
    // Switch 1 is a hub with at least 8 links, so two of its links share a
    // port (port_for_link wraps mod 7); the rest are random, parallel
    // links included.
    auto& topo = net.topology();
    for (std::size_t i = 0; i < 8; ++i) {
      topo.add_link(0, 1 + rng.index(switches - 1));
    }
    for (std::size_t i = rng.index(2 * switches); i > 0; --i) {
      topo.add_link(rng.index(switches), rng.index(switches));
    }
    for (std::size_t li = 0; li < topo.link_count(); ++li) {
      if (rng.chance(0.1)) topo.set_link_state(li, false);
    }
    for (SwitchId s = 1; s <= switches; ++s) {
      if (rng.chance(0.3)) {
        net.sw(s).set_port_link(static_cast<std::uint16_t>(1 + rng.index(8)), false);
      }
    }
    install_rules(net, rng, 12 * switches);
    for (SwitchId s = 1; s <= switches; ++s) {
      std::set<std::uint8_t> tables;
      for (const auto& e : net.sw(s).flow_stats(of::Match::any()).entries) {
        tables.insert(e.table_id);
      }
      if (tables.size() > 1) ++multi_table;
    }

    const auto flows = verifier_flows(rng, switches);
    sched::ConsistencyVerifier verifier(net);
    const auto first = verifier.verify(flows);
    EXPECT_EQ(sched::testing::verifier_difference(
                  first, sched::testing::reference_verify(net, flows)),
              "");

    // The same verifier after the tables changed: nothing it read in the
    // first call may answer for the second.
    install_rules(net, rng, 6 * switches);
    const auto second = verifier.verify(flows);
    EXPECT_EQ(sched::testing::verifier_difference(
                  second, sched::testing::reference_verify(net, flows)),
              "");
    if (!sched::testing::verifier_difference(first, second).empty()) ++changed;
    for (const auto* report : {&first, &second}) {
      for (const auto& v : report->violations) ++kinds[v.kind];
    }
  }
  // The generator reaches every violation kind, tables that span several
  // levels, and second calls whose answer moved.
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_GT(multi_table, 100u);
  EXPECT_GT(changed, 60u);
}

}  // namespace
}  // namespace tango
