// Deterministic robustness suite: seeded fault injection on the control
// channel, exercising the controller-side recovery machinery end to end.
//
// Every scenario runs on the deterministic event queue with seeded RNGs, so
// the exact fault schedule — and therefore every counter asserted below —
// replays identically on every run. The acceptance scenario at the bottom
// (fig10 link-failure under 5% loss plus a mid-run agent crash) checks
// byte-for-byte reproducibility by running twice and comparing everything.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "net/network.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/knowledge_io.h"
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

struct Copy {
  std::vector<std::uint8_t> frame;
  SimDuration extra_delay{};
};

/// One frame's fate, drawn the way the channel draws it: the copy count,
/// then each copy damaged in turn.
std::vector<Copy> fate(FaultInjector& inj, Direction dir,
                       const std::vector<std::uint8_t>& frame,
                       SimTime now = {}) {
  std::vector<Copy> out(inj.copies(dir, frame, now), Copy{frame});
  for (auto& c : out) c.extra_delay = inj.damage(dir, c.frame);
  return out;
}

TEST(FaultInjectorTest, CleanConfigDeliversUntouched) {
  FaultInjector inj{FaultConfig{}};
  const std::vector<std::uint8_t> frame = {1, 14, 0, 8, 0, 0, 0, 1};
  const auto plan = fate(inj, Direction::kToSwitch, frame);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].frame, frame);
  EXPECT_EQ(plan[0].extra_delay.ns(), 0);
  EXPECT_TRUE(inj.plan_notification().has_value());
}

TEST(FaultInjectorTest, CertainFaultsFire) {
  FaultConfig drop_all;
  drop_all.drop_to_switch = 1.0;
  FaultInjector dropper{drop_all};
  EXPECT_TRUE(fate(dropper, Direction::kToSwitch, {1, 14, 0, 8}).empty());
  EXPECT_EQ(dropper.stats().dropped_to_switch, 1u);

  FaultConfig dup_all;
  dup_all.duplicate_to_switch = 1.0;
  FaultInjector duper{dup_all};
  const std::vector<std::uint8_t> sent = {1, 14, 0, 8};
  const auto copies = fate(duper, Direction::kToSwitch, sent);
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0].frame, sent);
  EXPECT_EQ(copies[1].frame, sent);
  EXPECT_EQ(duper.stats().duplicated, 1u);

  FaultConfig corrupt_all;
  corrupt_all.corrupt_to_switch = 1.0;
  FaultInjector corruptor{corrupt_all};
  const std::vector<std::uint8_t> frame = {1, 14, 0, 8, 0, 0, 0, 1};
  const auto plan = fate(corruptor, Direction::kToSwitch, frame);
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
    const auto pa = fate(a, Direction::kToSwitch, frame);
    const auto pb = fate(b, Direction::kToSwitch, frame);
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
  // While the first batch is queued.
  cfg.crashes.push_back({SimTime{} + micros(300), millis(5)});
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
  EXPECT_EQ(net.crash_count(s1), 1u);  // one fired crash counts once
  EXPECT_GT(inj.stats().lost_to_crash, 0u);  // in-flight commands vanished
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.lost_requests, 0u);
  EXPECT_TRUE(report.failed_switches.empty());
  // Power-on wipe, then full recovery: every rule present exactly once.
  EXPECT_EQ(net.sw(s1).total_rules(), 8u);
}

// Replacing an injector cancels the faults it scheduled. Two replacements
// let the allocator hand the third injector the first one's address, so the
// guard must not be the injector's address.
TEST(FaultScenarioTest, ReplacedInjectorNeverFiresItsScheduledCrash) {
  for (const int replacements : {1, 2}) {
    SCOPED_TRACE(replacements);
    Network net;
    const auto s1 = net.add_switch(quiet_switch1());
    ProbeEngine engine(net, s1);
    ASSERT_TRUE(engine.install(0));

    FaultConfig cfg;
    cfg.crashes.push_back({net.now() + millis(10), millis(5)});
    net.enable_faults(s1, cfg);
    for (int i = 0; i < replacements; ++i) net.enable_faults(s1, FaultConfig{});
    net.run_all();

    EXPECT_EQ(net.sw(s1).total_rules(), 2u);  // probe rule + default route
    EXPECT_EQ(net.fault_injector(s1)->stats().crashes, 0u);
    EXPECT_EQ(net.crash_count(s1), 0u);  // a cancelled crash is not counted
  }
}

// A crash loses every frame on the wire, even one sent before the injector
// that scheduled the crash was attached: a flow_mod on its way down and an
// ECHO reply on its way up.
TEST(FaultScenarioTest, CrashLosesFramesSentBeforeTheInjector) {
  {
    Network net;
    const auto s1 = net.add_switch(quiet_switch1());
    bool completed = false;
    net.post_flow_mod_ex(
        s1, ProbeEngine::probe_add(0),
        [&](const Network::FlowModResult&) { completed = true; });
    FaultConfig cfg;
    cfg.crashes.push_back({net.now() + micros(50), millis(5)});
    auto& inj = net.enable_faults(s1, cfg);
    net.run_all();  // the flow_mod was due at +100 us

    EXPECT_FALSE(completed);
    EXPECT_EQ(net.sw(s1).total_rules(), 1u);  // the rebooted default route
    EXPECT_EQ(inj.stats().lost_to_crash, 1u);
  }
  {
    Network net;
    const auto s1 = net.add_switch(quiet_switch1());
    bool answered = false;
    net.post_echo(s1, [&]() { answered = true; });
    // The request lands at +100 us; its reply is on the wire until +200 us.
    net.events().run_until(net.now() + micros(150));
    FaultConfig cfg;
    cfg.crashes.push_back({net.now() + micros(10), millis(5)});
    auto& inj = net.enable_faults(s1, cfg);
    net.run_all();

    EXPECT_FALSE(answered);
    EXPECT_EQ(inj.stats().lost_to_crash, 1u);
  }
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
  EXPECT_EQ(
      fate(inj, Direction::kToSwitch, frame, SimTime{} + millis(5)).size(), 1u);
  EXPECT_TRUE(inj.plan_notification(SimTime{} + millis(5)).has_value());

  // Inside: both directions blackholed, notifications included.
  EXPECT_TRUE(inj.in_partition(SimTime{} + millis(15)));
  EXPECT_TRUE(
      fate(inj, Direction::kToSwitch, frame, SimTime{} + millis(15)).empty());
  EXPECT_TRUE(fate(inj, Direction::kToController, frame, SimTime{} + millis(15))
                  .empty());
  EXPECT_FALSE(inj.plan_notification(SimTime{} + millis(15)).has_value());

  // After: clean again, and every loss was accounted to the partition.
  EXPECT_FALSE(inj.in_partition(SimTime{} + millis(30)));
  EXPECT_EQ(
      fate(inj, Direction::kToSwitch, frame, SimTime{} + millis(35)).size(),
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
      cfg.crashes.push_back({net.now() + millis(500), millis(50)});
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

// ---------------------------------------------------------------------------
// Differential: a plain channel against a zero-rate injector
// ---------------------------------------------------------------------------
//
// Both twins carry every frame in the channel's frame slots. The one with an
// injector whose rates are all zero only draws each frame's and notice's
// fate, and sends a batch frame by frame, yet no fault ever fires. Both must
// schedule the same events at the same times, so everything the controller
// observes has to match.

void expect_same_stats(const ChannelStats& a, const ChannelStats& b) {
  EXPECT_EQ(a.messages_to_switch, b.messages_to_switch);
  EXPECT_EQ(a.bytes_to_switch, b.bytes_to_switch);
  EXPECT_EQ(a.messages_to_controller, b.messages_to_controller);
  EXPECT_EQ(a.bytes_to_controller, b.bytes_to_controller);
  EXPECT_EQ(a.flow_mods, b.flow_mods);
  EXPECT_EQ(a.packets_out, b.packets_out);
}

void expect_same_report(const sched::ExecutionReport& a,
                        const sched::ExecutionReport& b) {
  EXPECT_EQ(a.makespan.ns(), b.makespan.ns());
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_retryable, b.rejected_retryable);
  EXPECT_EQ(a.rejected_fatal, b.rejected_fatal);
  EXPECT_EQ(a.scheduling_rounds, b.scheduling_rounds);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.total_queueing_delay.ns(), b.total_queueing_delay.ns());
  EXPECT_EQ(a.max_queueing_delay.ns(), b.max_queueing_delay.ns());
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.echo_probes, b.echo_probes);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.lost_requests, b.lost_requests);
  EXPECT_EQ(a.failed_switches, b.failed_switches);
  EXPECT_EQ(a.cyclic, b.cyclic);
  EXPECT_EQ(a.fault_crashes, b.fault_crashes);
  EXPECT_EQ(a.fault_lost_to_crash, b.fault_lost_to_crash);
  EXPECT_EQ(a.fault_dropped_to_switch, b.fault_dropped_to_switch);
  EXPECT_EQ(a.fault_dropped_to_controller, b.fault_dropped_to_controller);
}

struct LearnRun {
  std::string knowledge;
  ChannelStats stats;
  SimTime end{};
};

/// learn() exercises batched and single flow_mods, barriers, probe hits at
/// both levels and misses.
LearnRun learn_lru100(bool injector) {
  Network net;
  const auto id = net.add_switch(profiles::policy_cache(
      "lru-100", {100}, tables::LexCachePolicy::lru()));
  if (injector) net.enable_faults(id, FaultConfig{});
  core::TangoController tango(net);
  std::ostringstream out;
  core::write_knowledge(out, "lru-100", tango.learn(id));
  return {out.str(), net.stats(id), net.now()};
}

TEST(ChannelPathDiff, LearnMatchesZeroRateInjector) {
  const auto plain = learn_lru100(false);
  const auto drawn = learn_lru100(true);
  EXPECT_EQ(plain.knowledge, drawn.knowledge);
  expect_same_stats(plain.stats, drawn.stats);
  EXPECT_EQ(plain.end.ns(), drawn.end.ns());
  EXPECT_GT(plain.stats.packets_out, 0u);
  EXPECT_GT(plain.stats.flow_mods, 0u);
}

struct ExecuteRun {
  sched::ExecutionReport report;
  std::vector<ChannelStats> stats;
  std::vector<of::FlowStatsReply> tables;
  SimTime end{};
};

/// The fig10 link-failure update on the three-switch testbed.
ExecuteRun execute_fig10(bool injector) {
  Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());
  const std::array<SwitchId, 3> all = {ids.s1, ids.s2, ids.s3};
  if (injector) {
    for (const auto id : all) net.enable_faults(id, FaultConfig{});
  }
  for (const auto id : all) {
    ProbeEngine probe(net, id);
    for (std::uint32_t i = 0; i < 400; ++i) {
      probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900));
    }
    net.barrier_sync(id);
  }
  Rng rng(99);
  const auto dag = workload::link_failure_scenario(ids, 400, rng, 0);
  sched::DionysusScheduler sched;
  ExecuteRun out;
  out.report = sched::execute(net, dag, sched);
  for (const auto id : all) {
    out.stats.push_back(net.stats(id));
    // Read the model, not the wire: s3 holds more rules than one
    // FLOW_STATS reply can carry.
    out.tables.push_back(net.sw(id).flow_stats(of::Match{}));
  }
  out.end = net.now();
  return out;
}

TEST(ChannelPathDiff, Fig10ExecuteMatchesZeroRateInjector) {
  const auto plain = execute_fig10(false);
  const auto drawn = execute_fig10(true);
  expect_same_report(plain.report, drawn.report);
  EXPECT_EQ(plain.report.issued, 800u);
  for (std::size_t i = 0; i < plain.stats.size(); ++i) {
    SCOPED_TRACE("switch " + std::to_string(i + 1));
    expect_same_stats(plain.stats[i], drawn.stats[i]);
    EXPECT_EQ(plain.tables[i], drawn.tables[i]);
  }
  EXPECT_EQ(plain.end.ns(), drawn.end.ns());
}

// ---------------------------------------------------------------------------
// Pinned: fig10 under every wire fault kind
// ---------------------------------------------------------------------------
//
// The fig10 link-failure update with drops, duplicates, reorders and
// corruption in both directions, agent stalls and one crash per switch,
// followed by a readback of every switch over the same faulted wire. The
// expected values are recorded, not derived: they pin the injector's draw
// order (a bit flip draws its mask before its byte index) and every loss
// check the channel applies on arrival, which no differential of two
// twins can see.

std::array<std::uint64_t, 14> fault_fields(const FaultStats& s) {
  return {s.dropped_to_switch, s.dropped_to_controller, s.forced_drops,
          s.duplicated,        s.reordered,             s.corrupted,
          s.undecodable,       s.notifications_dropped, s.lost_to_crash,
          s.lost_to_down,      s.stalls,                s.crashes,
          s.partitions,        s.lost_to_partition};
}

/// FNV-1a over the table's wire encoding.
std::uint64_t table_digest(const of::FlowStatsReply& table) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : of::encode(of::Message{0, table})) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

TEST(FaultAcceptanceTest, Fig10UnderEveryFaultKindMatchesRecordedRun) {
  Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());
  const std::array<SwitchId, 3> all = {ids.s1, ids.s2, ids.s3};
  for (const auto id : all) {
    ProbeEngine probe(net, id);
    for (std::uint32_t i = 0; i < 200; ++i) {
      probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900));
    }
    net.barrier_sync(id);
  }
  for (const auto id : all) {
    FaultConfig cfg;
    cfg.drop_to_switch = 0.03;
    cfg.drop_to_controller = 0.03;
    cfg.duplicate_to_switch = 0.04;
    cfg.duplicate_to_controller = 0.04;
    cfg.reorder_to_switch = 0.1;
    cfg.reorder_to_controller = 0.1;
    cfg.corrupt_to_switch = 0.03;
    cfg.corrupt_to_controller = 0.03;
    cfg.stall_probability = 0.02;
    cfg.stall_duration = millis(3);
    cfg.seed = 3 + id;
    // Down longer than a request timeout, so retries arrive while it is.
    cfg.crashes.push_back({net.now() + millis(60 * id), millis(80)});
    net.enable_faults(id, cfg);
  }

  Rng rng(99);
  const auto dag = workload::link_failure_scenario(ids, 200, rng, 0);
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(50);
  opts.max_retries = 6;
  opts.backoff_base = millis(5);
  const auto report = execute(net, dag, sched, opts);
  // Completions travel as notices, so few of the update's frames are
  // replies: read every switch back over the faulted wire as well.
  std::array<std::size_t, 3> barriers{};
  std::vector<std::optional<of::FlowStatsReply>> readbacks;
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (int k = 0; k < 40; ++k) {
      if (net.try_barrier_sync(all[i], millis(10))) ++barriers[i];
    }
    readbacks.push_back(net.try_flow_stats(all[i], of::Match{}, millis(50)));
  }

  sched::ExecutionReport want;
  want.makespan = nanos(1250787713);
  want.issued = 400;
  want.rejected = 1;
  want.rejected_fatal = 1;
  want.scheduling_rounds = 201;
  want.total_queueing_delay = nanos(96364730534);
  want.max_queueing_delay = nanos(1133773762);
  want.timeouts = 49;
  want.retries = 49;
  want.fault_crashes = 2;
  want.fault_lost_to_crash = 5;
  want.fault_dropped_to_switch = 13;
  expect_same_report(report, want);
  EXPECT_EQ(net.now().ns(), 3105496803);

  struct Recorded {
    std::size_t barriers;
    std::array<std::uint64_t, 14> faults;
    ChannelStats channel;
    std::size_t rules;
    std::uint64_t table;
  };
  const std::array<Recorded, 3> recorded = {{
      {37, {9, 2, 0, 15, 58, 11, 2, 7, 2, 4, 4, 1, 0, 0},
       {467, 34384, 43, 18204, 422, 0}, 186, 0x89055e8f3fec8e52},
      {36, {0, 1, 0, 1, 13, 3, 2, 0, 0, 0, 0, 1, 0, 0},
       {242, 16384, 42, 436, 200, 0}, 1, 0x54a024193f449796},
      {38, {5, 1, 0, 16, 53, 8, 2, 10, 3, 5, 4, 1, 0, 0},
       {464, 34144, 47, 14795, 421, 0}, 150, 0x1a1932c6d89651f0},
  }};
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE("switch " + std::to_string(i + 1));
    const auto& r = recorded[i];
    EXPECT_EQ(barriers[i], r.barriers);
    EXPECT_EQ(fault_fields(net.fault_injector(all[i])->stats()), r.faults);
    expect_same_stats(net.stats(all[i]), r.channel);
    const auto table = net.sw(all[i]).flow_stats(of::Match{});
    EXPECT_EQ(table.entries.size(), r.rules);
    EXPECT_EQ(table_digest(table), r.table);
    ASSERT_TRUE(readbacks[i].has_value());
    EXPECT_EQ(*readbacks[i], table);
  }
}

}  // namespace
}  // namespace tango::net
