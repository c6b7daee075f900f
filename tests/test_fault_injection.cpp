// Deterministic robustness suite: seeded fault injection on the control
// channel, exercising the controller-side recovery machinery end to end.
//
// Every scenario runs on the deterministic event queue with seeded RNGs, so
// the exact fault schedule — and therefore every counter asserted below —
// replays identically on every run. The acceptance scenario at the bottom
// (fig10 link-failure under 5% loss plus a mid-run agent crash) checks
// byte-for-byte reproducibility by running twice and comparing everything.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "net/network.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
#include "tango/tango.h"
#include "workload/scenarios.h"

namespace tango::net {
namespace {

namespace profiles = switchsim::profiles;
using core::ProbeEngine;
using Direction = FaultInjector::Direction;

sched::SwitchRequest add_req(SwitchId where, std::uint32_t index) {
  sched::SwitchRequest r;
  r.location = where;
  r.type = sched::RequestType::kAdd;
  r.priority = 0x8000;
  r.match = ProbeEngine::probe_match(index);
  r.actions = of::output_to(2);
  return r;
}

switchsim::SwitchProfile quiet_switch1() {
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

// ---------------------------------------------------------------------------
// FaultInjector unit behavior
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, CleanConfigDeliversUntouched) {
  FaultInjector inj{FaultConfig{}};
  const std::vector<std::uint8_t> frame = {1, 14, 0, 8, 0, 0, 0, 1};
  const auto plan = inj.plan(Direction::kToSwitch, frame);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].frame, frame);
  EXPECT_EQ(plan[0].extra_delay.ns(), 0);
  EXPECT_TRUE(inj.plan_notification().has_value());
}

TEST(FaultInjectorTest, CertainFaultsFire) {
  FaultConfig drop_all;
  drop_all.drop_to_switch = 1.0;
  FaultInjector dropper{drop_all};
  EXPECT_TRUE(dropper.plan(Direction::kToSwitch, {1, 14, 0, 8}).empty());
  EXPECT_EQ(dropper.stats().dropped_to_switch, 1u);

  FaultConfig dup_all;
  dup_all.duplicate_to_switch = 1.0;
  FaultInjector duper{dup_all};
  EXPECT_EQ(duper.plan(Direction::kToSwitch, {1, 14, 0, 8}).size(), 2u);
  EXPECT_EQ(duper.stats().duplicated, 1u);

  FaultConfig corrupt_all;
  corrupt_all.corrupt_to_switch = 1.0;
  FaultInjector corruptor{corrupt_all};
  const std::vector<std::uint8_t> frame = {1, 14, 0, 8, 0, 0, 0, 1};
  const auto plan = corruptor.plan(Direction::kToSwitch, frame);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_NE(plan[0].frame, frame);  // at least one bit flipped
  EXPECT_EQ(plan[0].frame.size(), frame.size());

  FaultConfig lose_notices;
  lose_notices.drop_to_controller = 1.0;
  FaultInjector notifier{lose_notices};
  EXPECT_FALSE(notifier.plan_notification().has_value());
  EXPECT_EQ(notifier.stats().notifications_dropped, 1u);
}

TEST(FaultInjectorTest, SameSeedSamePlan) {
  FaultConfig cfg;
  cfg.drop_to_switch = 0.3;
  cfg.duplicate_to_switch = 0.2;
  cfg.corrupt_to_switch = 0.2;
  cfg.reorder_to_switch = 0.3;
  cfg.seed = 1234;
  FaultInjector a{cfg};
  FaultInjector b{cfg};
  for (int i = 0; i < 200; ++i) {
    const std::vector<std::uint8_t> frame = {
        1, 14, 0, 8, 0, 0, 0, static_cast<std::uint8_t>(i)};
    const auto pa = a.plan(Direction::kToSwitch, frame);
    const auto pb = b.plan(Direction::kToSwitch, frame);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_EQ(pa[k].frame, pb[k].frame);
      EXPECT_EQ(pa[k].extra_delay.ns(), pb[k].extra_delay.ns());
    }
  }
  EXPECT_EQ(a.stats().dropped_to_switch, b.stats().dropped_to_switch);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  EXPECT_EQ(a.stats().reordered, b.stats().reordered);
}

// ---------------------------------------------------------------------------
// Per-message-type loss scenarios
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, DroppedFlowModIsRetriedExactlyOnce) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  auto& inj = net.enable_faults(s1, FaultConfig{});
  inj.force_drop(Direction::kToSwitch, of::MsgType::kFlowMod, 1);

  sched::RequestDag dag;
  dag.add(add_req(s1, 0));
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(10);
  opts.backoff_base = millis(1);
  const auto report = execute(net, dag, sched, opts);

  EXPECT_EQ(report.timeouts, 1u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_EQ(report.echo_probes, 0u);
  EXPECT_TRUE(report.failed_switches.empty());
  EXPECT_EQ(inj.stats().forced_drops, 1u);
  EXPECT_EQ(net.sw(s1).total_rules(), 2u);  // probe rule + default route
}

TEST(FaultScenarioTest, DroppedPacketOutIsResent) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  ProbeEngine engine(net, s1);
  ASSERT_TRUE(engine.install(0));

  auto& inj = net.enable_faults(s1, FaultConfig{});
  inj.force_drop(Direction::kToSwitch, of::MsgType::kPacketOut, 1);
  ProbeEngine::Recovery rec;
  rec.sync_timeout = millis(5);
  engine.set_recovery(rec);

  const auto rtt = engine.try_probe(0);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_GT(rtt->ns(), 0);
  EXPECT_EQ(engine.lost_probes(), 1u);
  EXPECT_EQ(engine.abandoned_probes(), 0u);
}

TEST(FaultScenarioTest, DroppedBarrierEachDirectionRecovers) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  auto& inj = net.enable_faults(s1, FaultConfig{});

  inj.force_drop(Direction::kToSwitch, of::MsgType::kBarrierRequest, 1);
  EXPECT_FALSE(net.try_barrier_sync(s1, millis(5)).has_value());
  EXPECT_TRUE(net.try_barrier_sync(s1, millis(5)).has_value());

  inj.force_drop(Direction::kToController, of::MsgType::kBarrierReply, 1);
  EXPECT_FALSE(net.try_barrier_sync(s1, millis(5)).has_value());
  EXPECT_TRUE(net.try_barrier_sync(s1, millis(5)).has_value());
  EXPECT_EQ(inj.stats().forced_drops, 2u);
}

TEST(FaultScenarioTest, DroppedEchoIsObservableAndCancelable) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  auto& inj = net.enable_faults(s1, FaultConfig{});

  inj.force_drop(Direction::kToSwitch, of::MsgType::kEchoRequest, 1);
  bool first_answered = false;
  const auto xid = net.post_echo(s1, [&]() { first_answered = true; });
  net.run_all();
  EXPECT_FALSE(first_answered);
  net.cancel_reply(xid);

  bool second_answered = false;
  net.post_echo(s1, [&]() { second_answered = true; });
  net.run_all();
  EXPECT_TRUE(second_answered);
}

TEST(FaultScenarioTest, DroppedStatsRequestReturnsEmptyNotHang) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  ProbeEngine engine(net, s1);
  ASSERT_TRUE(engine.install(7));

  auto& inj = net.enable_faults(s1, FaultConfig{});
  inj.force_drop(Direction::kToSwitch, of::MsgType::kStatsRequest, 1);
  const auto lost = net.flow_stats_sync(s1, of::Match::any());
  EXPECT_TRUE(lost.entries.empty());

  const auto real = net.flow_stats_sync(s1, of::Match::any());
  EXPECT_FALSE(real.entries.empty());
}

// Regression: spot_check's cleanup deletes travel over the same lossy
// channel as everything else. A dropped delete used to leak probe rules
// into the switch's table permanently; the readback-and-reissue loop now
// converges the table back to its pre-check state.
TEST(FaultScenarioTest, SpotCheckCleansUpUnderChannelLoss) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  core::TangoController tango(net);
  core::LearnOptions options;
  options.size.max_rules = 256;
  options.infer_policy = false;
  tango.learn(s1, options);
  ProbeEngine(net, s1).clear_rules();
  const auto before = net.sw(s1).total_rules();

  std::size_t dropped_total = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FaultConfig cfg;
    cfg.drop_to_switch = 0.25;  // eats installs and cleanup deletes alike
    cfg.seed = seed;
    net.enable_faults(s1, cfg);
    const double drift = tango.spot_check(s1);
    EXPECT_GE(drift, 0.0);
    dropped_total += net.fault_injector(s1)->stats().dropped_to_switch;

    // Assert over a clean channel: no probe rule survived the cleanup.
    net.enable_faults(s1, FaultConfig{});
    EXPECT_EQ(net.sw(s1).total_rules(), before) << "seed " << seed;
  }
  EXPECT_GT(dropped_total, 0u);  // the loss actually bit something
}

// ---------------------------------------------------------------------------
// Duplication, crash, and stall
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, DuplicatedFlowModsAreIdempotent) {
  Network net;
  auto profile = quiet_switch1();
  profile.install_default_route = false;
  const auto s1 = net.add_switch(profile);
  FaultConfig cfg;
  cfg.duplicate_to_switch = 1.0;  // every command crosses the wire twice
  net.enable_faults(s1, cfg);

  sched::RequestDag dag;
  for (std::uint32_t i = 0; i < 5; ++i) dag.add(add_req(s1, i));
  sched::DionysusScheduler sched;
  const auto report = execute(net, dag, sched);

  EXPECT_EQ(report.issued, 5u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  // The agent processed each add twice; the table holds each rule once.
  EXPECT_EQ(net.stats(s1).flow_mods, 10u);
  EXPECT_EQ(net.sw(s1).total_rules(), 5u);
  EXPECT_EQ(net.fault_injector(s1)->stats().duplicated, 5u);
}

TEST(FaultScenarioTest, CrashMidBatchWipesTablesAndExecutorReinstalls) {
  Network net;
  auto profile = quiet_switch1();
  profile.install_default_route = false;
  const auto s1 = net.add_switch(profile);

  FaultConfig cfg;
  cfg.crash_at = SimTime{} + micros(300);  // while the first batch is queued
  cfg.crash_downtime = millis(5);
  auto& inj = net.enable_faults(s1, cfg);

  sched::RequestDag dag;
  for (std::uint32_t i = 0; i < 8; ++i) dag.add(add_req(s1, i));
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(10);
  opts.max_retries = 6;
  opts.backoff_base = millis(2);
  const auto report = execute(net, dag, sched, opts);

  EXPECT_EQ(inj.stats().crashes, 1u);
  EXPECT_GT(inj.stats().lost_to_crash, 0u);  // in-flight commands vanished
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_TRUE(report.failed_switches.empty());
  // Power-on wipe, then full recovery: every rule present exactly once.
  EXPECT_EQ(net.sw(s1).total_rules(), 8u);
}

TEST(FaultScenarioTest, StallBeyondTimeoutBacksOffThenSucceeds) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  net.enable_faults(s1, FaultConfig{});  // no probabilistic faults
  net.stall_agent(s1, millis(80));       // far beyond the request timeout

  sched::RequestDag dag;
  dag.add(add_req(s1, 0));
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(10);
  opts.max_retries = 2;
  opts.backoff_base = millis(5);
  const auto report = execute(net, dag, sched, opts);

  // The stalled agent eventually answers: retries and at least one ECHO
  // liveness round fire, but nothing is failed and the rule lands.
  EXPECT_GE(report.timeouts, 3u);
  EXPECT_GE(report.retries, 2u);
  EXPECT_GE(report.echo_probes, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_TRUE(report.failed_switches.empty());
  EXPECT_EQ(net.sw(s1).total_rules(), 2u);
  EXPECT_GT(report.makespan.ms(), 80.0);
  EXPECT_LT(report.makespan.ms(), 120.0);
}

TEST(FaultScenarioTest, DeadSwitchIsDeclaredAndDependentsFail) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  FaultConfig cfg;
  cfg.drop_to_switch = 1.0;  // s1 never hears anything again
  cfg.drop_to_controller = 1.0;
  net.enable_faults(s1, cfg);

  sched::RequestDag dag;
  const auto doomed = dag.add(add_req(s1, 0));
  const auto dependent = dag.add(add_req(s2, 1));
  const auto independent = dag.add(add_req(s2, 2));
  dag.add_dependency(doomed, dependent);

  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(5);
  opts.max_retries = 1;
  opts.backoff_base = millis(1);
  const auto report = execute(net, dag, sched, opts);

  EXPECT_EQ(report.failed_switches, std::set<SwitchId>{s1});
  EXPECT_EQ(report.failed_requests, 2u);  // doomed + its dependent
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_GE(report.echo_probes, 2u);  // silence confirmed by repeated echoes
  EXPECT_EQ(net.sw(s2).total_rules(), 2u);  // independent one + default route
  (void)independent;
}

// ---------------------------------------------------------------------------
// Control-channel partitions
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, PartitionWindowBlackholesBothDirections) {
  FaultConfig cfg;
  cfg.partitions.push_back({SimTime{} + millis(10), millis(20)});
  FaultInjector inj{cfg};
  const std::vector<std::uint8_t> frame = {1, 14, 0, 8, 0, 0, 0, 1};

  // Before the window: clean both ways.
  EXPECT_FALSE(inj.in_partition(SimTime{} + millis(5)));
  EXPECT_EQ(inj.plan(Direction::kToSwitch, frame, SimTime{} + millis(5)).size(),
            1u);
  EXPECT_TRUE(inj.plan_notification(SimTime{} + millis(5)).has_value());

  // Inside: both directions blackholed, notifications included.
  EXPECT_TRUE(inj.in_partition(SimTime{} + millis(15)));
  EXPECT_TRUE(
      inj.plan(Direction::kToSwitch, frame, SimTime{} + millis(15)).empty());
  EXPECT_TRUE(inj.plan(Direction::kToController, frame, SimTime{} + millis(15))
                  .empty());
  EXPECT_FALSE(inj.plan_notification(SimTime{} + millis(15)).has_value());

  // After: clean again, and every loss was accounted to the partition.
  EXPECT_FALSE(inj.in_partition(SimTime{} + millis(30)));
  EXPECT_EQ(
      inj.plan(Direction::kToSwitch, frame, SimTime{} + millis(35)).size(),
      1u);
  EXPECT_EQ(inj.stats().lost_to_partition, 3u);
  EXPECT_EQ(inj.stats().dropped_to_switch, 0u);
  EXPECT_EQ(inj.stats().dropped_to_controller, 0u);
}

TEST(FaultScenarioTest, PartitionDelaysButDoesNotFailTheUpdate) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  FaultConfig cfg;
  cfg.partitions.push_back({net.now(), millis(15)});
  auto& inj = net.enable_faults(s1, cfg);

  sched::RequestDag dag;
  dag.add(add_req(s1, 0));
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(10);
  opts.max_retries = 6;
  opts.backoff_base = millis(2);
  const auto report = execute(net, dag, sched, opts);

  // The first issue vanished into the partition; a retry after the window
  // closed landed the rule. Nothing failed, nothing was silently lost.
  EXPECT_EQ(inj.stats().partitions, 1u);
  EXPECT_GT(inj.stats().lost_to_partition, 0u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_EQ(net.sw(s1).total_rules(), 2u);  // probe rule + default route
}

// ---------------------------------------------------------------------------
// Correlated multi-switch crashes
// ---------------------------------------------------------------------------

TEST(FaultScenarioTest, CorrelatedDualCrashReconcilesCleanUnderBothPolicies) {
  for (const auto policy : {sched::RecoveryPolicy::kRollForward,
                            sched::RecoveryPolicy::kRollBack}) {
    Network net;
    const auto s1 = net.add_switch(quiet_switch1());
    const auto s2 = net.add_switch(quiet_switch1());
    for (const auto id : {s1, s2}) {
      ProbeEngine probe(net, id);
      for (std::uint32_t i = 0; i < 20; ++i) probe.install(i, 0x4000);
      net.barrier_sync(id);
    }

    sched::RequestDag dag;
    for (std::uint32_t i = 20; i < 40; ++i) {
      dag.add(add_req(s1, i));
      dag.add(add_req(s2, i));
    }

    sched::TransactionOptions topts;
    topts.policy = policy;
    topts.txn_id = 77;
    topts.exec.request_timeout = millis(20);
    topts.exec.max_retries = 6;
    topts.exec.backoff_base = millis(2);
    sched::UpdateTransaction txn(net, std::move(dag), topts);

    // Both agents reboot in the same barrier window, mid-commit: every
    // table is wiped at once, so recovery cannot lean on a surviving peer.
    for (const auto id : {s1, s2}) {
      FaultConfig cfg;
      cfg.crashes.push_back({net.now() + millis(1), millis(5)});
      net.enable_faults(id, cfg);
    }

    sched::DionysusScheduler sched;
    const auto report = txn.commit(sched);

    EXPECT_EQ(report.crashed_switches, (std::set<SwitchId>{s1, s2}))
        << sched::to_string(policy);
    EXPECT_TRUE(report.committed) << sched::to_string(policy);
    EXPECT_TRUE(report.unreconciled.empty()) << sched::to_string(policy);

    // Verifier-clean end state: roll-forward must deliver all 40 flows per
    // switch, roll-back only the 20 preinstalled ones.
    std::vector<sched::FlowCheck> flows;
    const std::uint32_t upper =
        policy == sched::RecoveryPolicy::kRollForward ? 40u : 20u;
    for (std::uint32_t i = 0; i < upper; ++i) {
      for (const auto id : {s1, s2}) {
        sched::FlowCheck flow;
        flow.ingress = id;
        flow.packet = ProbeEngine::probe_packet(i);
        flows.push_back(flow);
      }
    }
    const auto& verify = txn.verify(flows);
    EXPECT_TRUE(verify.clean())
        << sched::to_string(policy) << ": "
        << (verify.violations.empty() ? "" : verify.violations[0].detail);
  }
}

// ---------------------------------------------------------------------------
// Acceptance: fig10 link-failure under 5% loss + mid-run crash, twice
// ---------------------------------------------------------------------------

struct Fig10Run {
  sched::ExecutionReport report;
  std::vector<ChannelStats> channels;
  std::vector<FaultStats> faults;
  std::vector<std::size_t> rules;
};

std::uint64_t fault_seed_from_env() {
  if (const char* env = std::getenv("TANGO_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xfa417u;
}

Fig10Run run_fig10_under_faults(std::uint64_t seed) {
  Fig10Run out;
  Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());

  // Preinstall the pre-failure TE state over a clean channel.
  for (const auto id : {ids.s1, ids.s2, ids.s3}) {
    ProbeEngine probe(net, id);
    for (std::uint32_t i = 0; i < 400; ++i) {
      probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900));
    }
    net.barrier_sync(id);
  }

  // 5% loss in both directions on every switch; s1 additionally crashes
  // (tables wiped) half a simulated second into the update.
  for (const auto id : {ids.s1, ids.s2, ids.s3}) {
    FaultConfig cfg;
    cfg.drop_to_switch = 0.05;
    cfg.drop_to_controller = 0.05;
    cfg.seed = seed + id;
    if (id == ids.s1) {
      cfg.crash_at = net.now() + millis(500);
      cfg.crash_downtime = millis(50);
    }
    net.enable_faults(id, cfg);
  }

  Rng rng(99);
  const auto dag = workload::link_failure_scenario(ids, 400, rng, 0);

  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(200);
  opts.max_retries = 6;
  opts.backoff_base = millis(5);
  out.report = execute(net, dag, sched, opts);

  for (const auto id : {ids.s1, ids.s2, ids.s3}) {
    out.channels.push_back(net.stats(id));
    out.faults.push_back(net.fault_injector(id)->stats());
    out.rules.push_back(net.sw(id).total_rules());
  }
  return out;
}

TEST(FaultAcceptanceTest, Fig10LinkFailureSurvivesLossAndCrashDeterministically) {
  const std::uint64_t seed = fault_seed_from_env();
  const auto first = run_fig10_under_faults(seed);

  // Zero lost requests: every request either installed or consciously
  // failed (and with these retry budgets, nothing fails either).
  EXPECT_EQ(first.report.lost_requests, 0u);
  EXPECT_EQ(first.report.failed_requests, 0u);
  EXPECT_TRUE(first.report.failed_switches.empty());
  EXPECT_EQ(first.report.issued, 800u);  // 400 ADDs on s3 + 400 MODs on s1
  EXPECT_GE(first.report.retries, 1u);   // 5% loss definitely bit somewhere
  EXPECT_EQ(first.faults[0].crashes, 1u);

  // Byte-for-byte reproducibility: a second run with the same seed matches
  // on every observable counter.
  const auto second = run_fig10_under_faults(seed);
  EXPECT_EQ(first.report.makespan.ns(), second.report.makespan.ns());
  EXPECT_EQ(first.report.issued, second.report.issued);
  EXPECT_EQ(first.report.timeouts, second.report.timeouts);
  EXPECT_EQ(first.report.retries, second.report.retries);
  EXPECT_EQ(first.report.echo_probes, second.report.echo_probes);
  EXPECT_EQ(first.report.scheduling_rounds, second.report.scheduling_rounds);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first.rules[i], second.rules[i]) << "switch " << i + 1;
    EXPECT_EQ(first.channels[i].messages_to_switch,
              second.channels[i].messages_to_switch);
    EXPECT_EQ(first.channels[i].messages_to_controller,
              second.channels[i].messages_to_controller);
    EXPECT_EQ(first.channels[i].flow_mods, second.channels[i].flow_mods);
    EXPECT_EQ(first.faults[i].dropped_to_switch,
              second.faults[i].dropped_to_switch);
    EXPECT_EQ(first.faults[i].dropped_to_controller,
              second.faults[i].dropped_to_controller);
    EXPECT_EQ(first.faults[i].notifications_dropped,
              second.faults[i].notifications_dropped);
    EXPECT_EQ(first.faults[i].lost_to_crash, second.faults[i].lost_to_crash);
    EXPECT_EQ(first.faults[i].lost_to_down, second.faults[i].lost_to_down);
  }
}

}  // namespace
}  // namespace tango::net
