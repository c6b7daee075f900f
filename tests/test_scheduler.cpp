// Tests for the request DAG, the Dionysus baseline, the Basic Tango
// Scheduler (Algorithm 3), priority enforcement, and the executor.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "net/network.h"
#include "scheduler/executor.h"
#include "scheduler/request.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
#include "tango/tango.h"

namespace tango::sched {
namespace {

namespace profiles = switchsim::profiles;
using core::ProbeEngine;

SwitchRequest req(SwitchId where, RequestType type, std::uint32_t index,
                  std::optional<std::uint16_t> priority = 0x8000) {
  SwitchRequest r;
  r.location = where;
  r.type = type;
  r.priority = priority;
  r.match = ProbeEngine::probe_match(index);
  r.actions = of::output_to(2);
  return r;
}

// ---------------------------------------------------------------------------
// RequestDag
// ---------------------------------------------------------------------------

TEST(RequestDagTest, DepthAndLevels) {
  RequestDag dag;
  const auto a = dag.add(req(1, RequestType::kAdd, 0));
  const auto b = dag.add(req(1, RequestType::kAdd, 1));
  const auto c = dag.add(req(1, RequestType::kAdd, 2));
  const auto d = dag.add(req(1, RequestType::kAdd, 3));
  dag.add_dependency(a, b);
  dag.add_dependency(b, c);
  dag.add_dependency(a, d);
  EXPECT_EQ(dag.depth(), 3u);
  const auto levels = dag.levels();
  EXPECT_EQ(levels[a], 0u);
  EXPECT_EQ(levels[b], 1u);
  EXPECT_EQ(levels[c], 2u);
  EXPECT_EQ(levels[d], 1u);
  EXPECT_EQ(dag.downstream_depth(a), 3u);
  EXPECT_EQ(dag.downstream_depth(c), 1u);
  EXPECT_EQ(dag.roots(), std::vector<std::size_t>{a});
  EXPECT_TRUE(dag.is_acyclic());
}

TEST(RequestDagTest, CycleDetection) {
  RequestDag dag;
  const auto a = dag.add(req(1, RequestType::kAdd, 0));
  const auto b = dag.add(req(1, RequestType::kAdd, 1));
  dag.add_dependency(a, b);
  dag.add_dependency(b, a);
  EXPECT_FALSE(dag.is_acyclic());
}

TEST(RequestDagTest, TypeConversions) {
  EXPECT_EQ(to_command(RequestType::kAdd), of::FlowModCommand::kAdd);
  EXPECT_EQ(to_command(RequestType::kMod), of::FlowModCommand::kModify);
  EXPECT_EQ(to_command(RequestType::kDel), of::FlowModCommand::kDelete);
  EXPECT_EQ(to_string(RequestType::kDel), "DEL");
}

// ---------------------------------------------------------------------------
// Scheduler ordering decisions
// ---------------------------------------------------------------------------

TEST(DionysusSchedulerTest, CriticalPathFirst) {
  RequestDag dag;
  const auto shallow = dag.add(req(1, RequestType::kAdd, 0));
  const auto deep = dag.add(req(1, RequestType::kAdd, 1));
  const auto mid = dag.add(req(1, RequestType::kAdd, 2));
  const auto tail1 = dag.add(req(1, RequestType::kAdd, 3));
  const auto tail2 = dag.add(req(1, RequestType::kAdd, 4));
  dag.add_dependency(deep, tail1);
  dag.add_dependency(tail1, tail2);
  dag.add_dependency(mid, tail2);
  DionysusScheduler sched;
  const auto order = sched.order(dag, {shallow, mid, deep});
  EXPECT_EQ(order[0], deep);   // longest remaining path
  EXPECT_EQ(order[1], mid);
  EXPECT_EQ(order[2], shallow);
}

std::map<SwitchId, core::OpCostEstimate> hw_costs() {
  core::OpCostEstimate c;
  c.add_ascending_ms = 1.0;
  c.add_descending_ms = 20.0;
  c.add_same_priority_ms = 0.5;
  c.add_random_ms = 10.0;
  c.mod_ms = 3.0;
  c.del_ms = 2.0;
  return {{1, c}, {2, c}, {3, c}};
}

TEST(TangoSchedulerTest, GroupsByTypeAndSortsAddsAscending) {
  RequestDag dag;
  const auto add_hi = dag.add(req(1, RequestType::kAdd, 0, 900));
  const auto del = dag.add(req(1, RequestType::kDel, 1));
  const auto add_lo = dag.add(req(1, RequestType::kAdd, 2, 100));
  const auto mod = dag.add(req(1, RequestType::kMod, 3));
  BasicTangoScheduler sched(hw_costs());
  const auto order = sched.order(dag, {add_hi, del, add_lo, mod});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(dag.request(order[0]).type, RequestType::kDel);
  EXPECT_EQ(dag.request(order[1]).type, RequestType::kMod);
  EXPECT_EQ(order[2], add_lo);  // ascending priority within adds
  EXPECT_EQ(order[3], add_hi);
  (void)del;
  (void)mod;
}

TEST(TangoSchedulerTest, UnprioritizedAddsFollowPrioritizedOnesInPoolOrder) {
  // Prioritized ADDs sort in the winning pattern's direction; ADDs without
  // a priority come after all of them, in pool order.
  RequestDag dag;
  const auto bare1 = dag.add(req(1, RequestType::kAdd, 0, std::nullopt));
  const auto hi = dag.add(req(1, RequestType::kAdd, 1, 900));
  const auto bare2 = dag.add(req(1, RequestType::kAdd, 2, std::nullopt));
  const auto lo = dag.add(req(1, RequestType::kAdd, 3, 100));
  const auto mod = dag.add(req(1, RequestType::kMod, 4));
  const std::vector<std::size_t> pool{bare1, hi, bare2, lo, mod};
  BasicTangoScheduler ascending(hw_costs());
  EXPECT_EQ(ascending.order(dag, pool),
            (std::vector<std::size_t>{mod, lo, hi, bare1, bare2}));
  auto cheap_descending = hw_costs();
  for (auto& [sw, c] : cheap_descending) c.add_descending_ms = 0.5;
  BasicTangoScheduler descending(cheap_descending);
  EXPECT_EQ(descending.order(dag, pool),
            (std::vector<std::size_t>{mod, hi, lo, bare1, bare2}));
}

TEST(TangoSchedulerTest, PicksAPatternWhateverTheScores) {
  // The first pattern wins unless a later one scores strictly higher, even
  // where every score is at most -1e300 or the add costs are NaN.
  RequestDag dag;
  const auto del = dag.add(req(1, RequestType::kDel, 0));
  const auto mod = dag.add(req(1, RequestType::kMod, 1));
  const auto add5 = dag.add(req(1, RequestType::kAdd, 2, 5));
  const auto add9 = dag.add(req(1, RequestType::kAdd, 3, 9));
  const std::vector<std::size_t> pool{add9, mod, add5, del};
  const std::vector<std::size_t> ascending{del, mod, add5, add9};
  const std::vector<std::size_t> descending{del, mod, add9, add5};
  const auto add_costs = [](double asc, double desc) {
    auto costs = hw_costs();
    for (auto& [sw, c] : costs) {
      c.add_ascending_ms = asc;
      c.add_descending_ms = desc;
    }
    return costs;
  };
  // Descending adds are cheaper, so the sums are computed and the
  // descending pattern scores -2e300 against -2e301.
  EXPECT_EQ(BasicTangoScheduler(add_costs(1e301, 1e300)).order(dag, pool), descending);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(BasicTangoScheduler(add_costs(nan, nan)).order(dag, pool), ascending);
  // Descending adds are not cheaper: no sums, both scores would be -inf.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(BasicTangoScheduler(add_costs(inf, inf)).order(dag, pool), ascending);
}

TEST(TangoSchedulerTest, PatternScoreUsesMeasuredCosts) {
  RequestDag dag;
  std::vector<std::size_t> ready;
  ready.push_back(dag.add(req(1, RequestType::kDel, 0)));
  ready.push_back(dag.add(req(1, RequestType::kMod, 1)));
  ready.push_back(dag.add(req(1, RequestType::kAdd, 2)));
  ready.push_back(dag.add(req(1, RequestType::kAdd, 3)));
  BasicTangoScheduler sched(hw_costs());
  const auto& patterns = sched.patterns();
  // Ascending-add patterns must outscore the descending variant.
  double asc_score = -1e300, desc_score = -1e300;
  for (const auto& p : patterns) {
    const double s = sched.pattern_score(dag, ready, p);
    if (p.name == "DEL MOD ASCEND_ADD") asc_score = s;
    if (p.name == "DEL MOD DESCEND_ADD") desc_score = s;
  }
  EXPECT_GT(asc_score, desc_score);
  // Score formula: -(del + mod + 2*add_asc) on one switch.
  EXPECT_DOUBLE_EQ(asc_score, -(2.0 + 3.0 + 2 * 1.0));
}

TEST(TangoSchedulerTest, ScoreIsPerSwitchParallelMax) {
  RequestDag dag;
  std::vector<std::size_t> ready;
  // 2 adds on switch 1, 2 adds on switch 2: cost is max, not sum.
  ready.push_back(dag.add(req(1, RequestType::kAdd, 0)));
  ready.push_back(dag.add(req(1, RequestType::kAdd, 1)));
  ready.push_back(dag.add(req(2, RequestType::kAdd, 2)));
  ready.push_back(dag.add(req(2, RequestType::kAdd, 3)));
  BasicTangoScheduler sched(hw_costs());
  const auto& p = sched.patterns()[0];
  EXPECT_DOUBLE_EQ(sched.pattern_score(dag, ready, p), -2.0);
}

TEST(TangoSchedulerTest, UnprofiledSwitchFallsBackToStaticWeights) {
  RequestDag dag;
  std::vector<std::size_t> ready{dag.add(req(99, RequestType::kAdd, 0))};
  BasicTangoScheduler sched({});
  const auto& p = sched.patterns()[0];
  EXPECT_DOUBLE_EQ(sched.pattern_score(dag, ready, p), -20.0);
}

TEST(TangoSchedulerTest, EnforcePrioritiesByDagLevel) {
  RequestDag dag;
  const auto a = dag.add(req(1, RequestType::kAdd, 0, std::nullopt));
  const auto b = dag.add(req(2, RequestType::kAdd, 1, std::nullopt));
  const auto c = dag.add(req(3, RequestType::kAdd, 2, std::nullopt));
  const auto keep = dag.add(req(1, RequestType::kAdd, 3, 7777));
  dag.add_dependency(a, b);
  dag.add_dependency(b, c);
  const auto assigned = BasicTangoScheduler::enforce_priorities(dag, 1000, 10);
  EXPECT_EQ(assigned, 3u);
  EXPECT_EQ(dag.request(a).priority, 1000);
  EXPECT_EQ(dag.request(b).priority, 1010);
  EXPECT_EQ(dag.request(c).priority, 1020);
  EXPECT_EQ(dag.request(keep).priority, 7777);  // untouched
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(ExecutorTest, RespectsDependencies) {
  net::Network net;
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  const auto s1 = net.add_switch(profile);
  const auto s2 = net.add_switch(profile);

  RequestDag dag;
  const auto first = dag.add(req(s1, RequestType::kAdd, 0));
  const auto second = dag.add(req(s2, RequestType::kAdd, 1));
  const auto third = dag.add(req(s1, RequestType::kAdd, 2));
  dag.add_dependency(first, second);
  dag.add_dependency(second, third);

  DionysusScheduler sched;
  const auto report = execute(net, dag, sched);
  EXPECT_EQ(report.issued, 3u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_GE(report.scheduling_rounds, 3u);
  // All three rules installed.
  EXPECT_EQ(net.sw(s1).total_rules(), 3u);  // 2 + default route
  EXPECT_EQ(net.sw(s2).total_rules(), 2u);
  (void)third;
}

TEST(ExecutorTest, MakespanCoversChain) {
  net::Network net;
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  const auto s1 = net.add_switch(profile);

  RequestDag dag;
  std::size_t prev = dag.add(req(s1, RequestType::kMod, 0));
  for (int i = 1; i < 5; ++i) {
    const auto next = dag.add(req(s1, RequestType::kMod, 0));
    dag.add_dependency(prev, next);
    prev = next;
  }
  DionysusScheduler sched;
  const auto report = execute(net, dag, sched);
  // First mod acts as ADD (no match yet, ~0.7ms), then 4 chained mods at
  // ~3ms each, plus channel latency per round.
  EXPECT_GT(report.makespan.ms(), 4 * 3.0);
}

TEST(ExecutorTest, CountsRejections) {
  net::Network net;
  auto profile = profiles::switch2();
  profile.cache_levels[0].capacity_slots = 4;  // 2 entries
  profile.install_default_route = false;
  const auto s1 = net.add_switch(profile);

  RequestDag dag;
  for (std::uint32_t i = 0; i < 5; ++i) dag.add(req(s1, RequestType::kAdd, i));
  DionysusScheduler sched;
  const auto report = execute(net, dag, sched);
  EXPECT_EQ(report.rejected, 3u);
}

TEST(ExecutorTest, DeadlineMissesAreReported) {
  net::Network net;
  auto profile = profiles::switch3();  // slow adds (10ms)
  const auto s1 = net.add_switch(profile);

  RequestDag dag;
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto r = req(s1, RequestType::kAdd, i);
    r.deadline = millis(1);  // hopeless deadline
    dag.add(r);
  }
  DionysusScheduler sched;
  const auto report = execute(net, dag, sched);
  EXPECT_GT(report.deadline_misses, 0u);
}

TEST(ExecutorTest, TangoBeatsDionysusOnPrioritySensitiveSwitch) {
  // 200 adds with scattered priorities on a single hardware switch:
  // Dionysus issues in DAG order (= scattered), Tango sorts ascending.
  Rng rng(5);
  auto build_dag = [&](SwitchId sw) {
    RequestDag dag;
    for (std::uint32_t i = 0; i < 200; ++i) {
      dag.add(req(sw, RequestType::kAdd, i,
                  static_cast<std::uint16_t>(rng.uniform_int(1000, 9000))));
    }
    return dag;
  };

  net::Network net_a;
  const auto sa = net_a.add_switch(profiles::switch1());
  DionysusScheduler dionysus;
  const auto dag_a = build_dag(sa);
  const auto base = execute(net_a, dag_a, dionysus);

  net::Network net_b;
  const auto sb = net_b.add_switch(profiles::switch1());
  core::TangoController tango(net_b);
  // Learn real costs by probing, then schedule with them.
  core::LearnOptions options;
  options.size.max_rules = 128;  // keep probing light; costs are the point
  options.infer_policy = false;
  const auto& know = tango.learn(sb, options);
  core::ProbeEngine(net_b, sb).clear_rules();

  BasicTangoScheduler sched({{sb, know.costs}});
  const auto dag_b = build_dag(sb);
  const auto opt = execute(net_b, dag_b, sched);

  EXPECT_LT(opt.makespan.ms(), base.makespan.ms() * 0.6)
      << "tango " << opt.makespan.ms() << "ms vs dionysus "
      << base.makespan.ms() << "ms";
}

TEST(ExecutorTest, SpeculativeDependentsFinishNoLaterThanStrict) {
  auto build = [](net::Network& net, SwitchId slow, SwitchId fast,
                  RequestDag& dag) {
    // Chain: fast-switch add -> slow-switch add, repeated; speculation can
    // overlap the fast predecessor with the slow successor's queue wait.
    for (std::uint32_t i = 0; i < 40; ++i) {
      const auto a = dag.add(req(fast, RequestType::kAdd, i));
      const auto b = dag.add(req(slow, RequestType::kAdd, 100 + i));
      dag.add_dependency(a, b);
    }
  };

  net::Network n1;
  const auto slow1 = n1.add_switch(profiles::switch3());
  const auto fast1 = n1.add_switch(profiles::ovs());
  RequestDag d1;
  build(n1, slow1, fast1, d1);
  DionysusScheduler sched1;
  const auto strict = execute(n1, d1, sched1);

  net::Network n2;
  const auto slow2 = n2.add_switch(profiles::switch3());
  const auto fast2 = n2.add_switch(profiles::ovs());
  RequestDag d2;
  build(n2, slow2, fast2, d2);
  DionysusScheduler sched2;
  ExecutorOptions options;
  options.speculative_dependents = true;
  const auto spec = execute(n2, d2, sched2, options);

  EXPECT_LE(spec.makespan.ns(), strict.makespan.ns());
  EXPECT_EQ(spec.issued, 80u);
}

TEST(TangoSchedulerTest, AdaptsWhenDescendingIsMeasuredCheaper) {
  // On priority-caching switches, low-priority (descending) adds bypass
  // the TCAM and are measured cheaper; the oracle must then pick the
  // DESCEND_ADD pattern and sort adds high-to-low.
  core::OpCostEstimate inverted;
  inverted.add_ascending_ms = 8.0;
  inverted.add_descending_ms = 0.5;
  inverted.mod_ms = 3.0;
  inverted.del_ms = 2.0;
  BasicTangoScheduler sched({{1, inverted}});
  RequestDag dag;
  std::vector<std::size_t> ready;
  const auto lo = dag.add(req(1, RequestType::kAdd, 0, 100));
  const auto hi = dag.add(req(1, RequestType::kAdd, 1, 900));
  ready = {lo, hi};
  const auto order = sched.order(dag, ready);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], hi);  // descending priority
  EXPECT_EQ(order[1], lo);
}

TEST(TangoSchedulerTest, PrefixLookaheadCanTruncateBatch) {
  // A large expensive batch whose first quarter unlocks a cheap follow-up
  // batch: the lookahead should issue only the prefix and let the executor
  // re-invoke order() when it completes.
  RequestDag dag;
  std::vector<std::size_t> ready;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ready.push_back(dag.add(req(1, RequestType::kAdd, i)));
  }
  // Successors of the first four requests (cheap mods elsewhere).
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto succ = dag.add(req(2, RequestType::kMod, 100 + i));
    dag.add_dependency(ready[i], succ);
  }
  TangoSchedulerOptions options;
  options.prefix_lookahead = true;
  BasicTangoScheduler sched(hw_costs(), options);
  const auto order = sched.order(dag, ready);
  // Either the full batch or a strict prefix; never something larger, and
  // always a subset of the ready set.
  EXPECT_LE(order.size(), ready.size());
  for (std::size_t id : order) {
    EXPECT_NE(std::find(ready.begin(), ready.end(), id), ready.end());
  }
}

TEST(TangoSchedulerTest, PrefixLookaheadUnlocksOnlyWhenEveryPredIsInThePrefix) {
  // Eight ready ADDs on switch 1 (ascending priorities keep pool order).
  // `late` waits on ready[0] and ready[6], `mid` on ready[0] and ready[3]:
  // the quarter prefix unlocks neither, the half prefix unlocks `mid`, and
  // staging it (cost 4 + 2*3 on two switches) beats 0.9 * 8.
  RequestDag dag;
  std::vector<std::size_t> ready;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ready.push_back(dag.add(
        req(1, RequestType::kAdd, i, static_cast<std::uint16_t>(100 + i))));
  }
  const auto late = dag.add(req(2, RequestType::kMod, 100));
  dag.add_dependency(ready[0], late);
  dag.add_dependency(ready[6], late);
  const auto mid = dag.add(req(2, RequestType::kMod, 101));
  dag.add_dependency(ready[0], mid);
  dag.add_dependency(ready[3], mid);
  TangoSchedulerOptions options;
  options.prefix_lookahead = true;
  BasicTangoScheduler sched(hw_costs(), options);
  EXPECT_EQ(sched.order(dag, ready),
            std::vector<std::size_t>(ready.begin(), ready.begin() + 4));
}

TEST(TangoSchedulerTest, PrefixLookaheadStillCompletesEverything) {
  net::Network net;
  const auto s1 = net.add_switch(profiles::switch1());
  const auto s2 = net.add_switch(profiles::ovs());
  RequestDag dag;
  Rng rng(9);
  std::vector<std::size_t> heads;
  for (std::uint32_t i = 0; i < 60; ++i) {
    heads.push_back(dag.add(req(s1, RequestType::kAdd, i,
                                static_cast<std::uint16_t>(rng.uniform_int(1000, 9000)))));
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto succ = dag.add(req(s2, RequestType::kAdd, 100 + i));
    dag.add_dependency(heads[i], succ);
  }
  TangoSchedulerOptions options;
  options.prefix_lookahead = true;
  BasicTangoScheduler sched({}, options);
  const auto report = execute(net, dag, sched);
  EXPECT_EQ(report.issued, 80u);
  EXPECT_EQ(report.rejected, 0u);
}

TEST(ToFlowModTest, MapsFieldsAndDefaults) {
  auto r = req(1, RequestType::kDel, 5, std::nullopt);
  const auto fm = to_flow_mod(r);
  EXPECT_EQ(fm.command, of::FlowModCommand::kDelete);
  EXPECT_EQ(fm.priority, 0x8000);
  EXPECT_EQ(fm.match, ProbeEngine::probe_match(5));
}

// ---------------------------------------------------------------------------
// Executor queueing delay (controller-side wait behind the dispatch window)
// ---------------------------------------------------------------------------

TEST(QueueingDelayTest, WideDagBehindNarrowWindowAccruesDelay) {
  // Twelve dependency-free ADDs against one switch with a 2-command window:
  // ten of them become ready at t=0 but must wait for window slots, so the
  // report's queueing-delay tallies must be strictly positive and coherent.
  net::Network net;
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  const auto s1 = net.add_switch(profile);

  RequestDag dag;
  for (std::uint32_t i = 0; i < 12; ++i) dag.add(req(s1, RequestType::kAdd, i));

  ExecutorOptions opts;
  opts.per_switch_window = 2;
  DionysusScheduler scheduler;
  const auto report = execute(net, dag, scheduler, opts);
  EXPECT_EQ(report.issued, 12u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_GT(report.total_queueing_delay.ns(), 0);
  EXPECT_GT(report.max_queueing_delay.ns(), 0);
  EXPECT_LE(report.max_queueing_delay.ns(), report.total_queueing_delay.ns());
  // No single request can have waited longer than the whole run took.
  EXPECT_LT(report.max_queueing_delay.ns(), report.makespan.ns());
}

TEST(QueueingDelayTest, PureChainNeverQueues) {
  // A dependency chain has at most one ready request at a time: each issues
  // the moment it unlocks, so queueing delay must be exactly zero (the
  // window never binds).
  net::Network net;
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  const auto s1 = net.add_switch(profile);

  RequestDag dag;
  std::size_t prev = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto id = dag.add(req(s1, RequestType::kAdd, i));
    if (i > 0) dag.add_dependency(prev, id);
    prev = id;
  }

  ExecutorOptions opts;
  opts.per_switch_window = 2;
  DionysusScheduler scheduler;
  const auto report = execute(net, dag, scheduler, opts);
  EXPECT_EQ(report.issued, 8u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.total_queueing_delay.ns(), 0);
  EXPECT_EQ(report.max_queueing_delay.ns(), 0);
}

}  // namespace
}  // namespace tango::sched
