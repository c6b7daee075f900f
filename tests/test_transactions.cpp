// Transactional-update suite: intent journal, crash reconciliation via
// state readback, and end-state consistency verification.
//
// Every scenario runs on the deterministic event queue with seeded fault
// injectors, so crash points and loss patterns replay identically. The
// acceptance pair in the middle is the ISSUE's contract: a commit that
// loses an agent mid-flight must end either with tables identical to a
// fault-free run (roll-forward) or identical to the pre-update snapshot
// (rollback).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "net/network.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"

namespace tango::net {
namespace {

namespace profiles = switchsim::profiles;
using core::ProbeEngine;

switchsim::SwitchProfile quiet_switch1() {
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

std::uint64_t fault_seed_from_env() {
  if (const char* env = std::getenv("TANGO_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xfa417u;
}

void preinstall(Network& net, SwitchId id, std::uint32_t count) {
  ProbeEngine probe(net, id);
  for (std::uint32_t i = 0; i < count; ++i) {
    ASSERT_TRUE(probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900)));
  }
  net.barrier_sync(id);
}

/// The update under test: re-route 10 existing flows on s1 (MOD), retire 5
/// (DEL), add 10 new ones, with 10 supporting adds on s2 that must land
/// before the s1 re-routes (consistent-update ordering).
sched::RequestDag build_update(SwitchId s1, SwitchId s2) {
  sched::RequestDag dag;
  std::vector<std::size_t> mods;
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::SwitchRequest r;
    r.location = s1;
    r.type = sched::RequestType::kMod;
    r.match = ProbeEngine::probe_match(i);
    r.actions = of::output_to(3);
    mods.push_back(dag.add(r));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    sched::SwitchRequest r;
    r.location = s1;
    r.type = sched::RequestType::kDel;
    r.match = ProbeEngine::probe_match(10 + i);
    dag.add(r);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::SwitchRequest r;
    r.location = s1;
    r.type = sched::RequestType::kAdd;
    r.priority = 0x8000;
    r.match = ProbeEngine::probe_match(20 + i);
    r.actions = of::output_to(2);
    dag.add(r);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::SwitchRequest r;
    r.location = s2;
    r.type = sched::RequestType::kAdd;
    r.priority = 0x8000;
    r.match = ProbeEngine::probe_match(100 + i);
    r.actions = of::output_to(2);
    const auto node = dag.add(r);
    dag.add_dependency(node, mods[i]);  // new path in place before the flip
  }
  return dag;
}

sched::TableImage strip_cookies(sched::TableImage image) {
  for (auto& [key, rule] : image) rule.cookie = 0;
  return image;
}

/// Readback that survives active fault injectors (bounded retries).
sched::TableImage final_image(Network& net, SwitchId id) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto reply = net.try_flow_stats(id, of::Match::any(), millis(200));
    if (reply.has_value()) return sched::image_of(*reply);
  }
  ADD_FAILURE() << "switch " << id << " table unreadable";
  return {};
}

struct TxnRun {
  sched::TransactionReport report;
  sched::TableImage pre1, pre2;  // transaction's pre-update snapshots
  sched::TableImage t1, t2;      // actual tables after commit
};

TxnRun run_scenario(sched::RecoveryPolicy policy, bool crash, double loss,
                    std::uint64_t seed) {
  TxnRun out;
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  preinstall(net, s1, 20);
  preinstall(net, s2, 20);

  sched::TransactionOptions topts;
  topts.policy = policy;
  topts.txn_id = 7;  // pinned: cookies must match across compared runs
  topts.exec.request_timeout = millis(200);
  topts.exec.max_retries = 6;
  topts.exec.backoff_base = millis(5);

  sched::UpdateTransaction txn(net, build_update(s1, s2), topts);

  if (crash || loss > 0) {
    for (const auto id : {s1, s2}) {
      FaultConfig cfg;
      cfg.drop_to_switch = loss;
      cfg.drop_to_controller = loss;
      cfg.seed = seed + id;
      if (crash && id == s1) {
        // Mid-commit.
        cfg.crashes.push_back({net.now() + millis(20), millis(5)});
      }
      net.enable_faults(id, cfg);
    }
  }

  sched::DionysusScheduler scheduler;
  out.report = txn.commit(scheduler);
  out.pre1 = txn.pre_image(s1);
  out.pre2 = txn.pre_image(s2);
  out.t1 = final_image(net, s1);
  out.t2 = final_image(net, s2);
  return out;
}

// ---------------------------------------------------------------------------
// Journal construction
// ---------------------------------------------------------------------------

TEST(TransactionJournalTest, InversesUndoTheUpdate) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  preinstall(net, s1, 5);

  sched::RequestDag dag;
  sched::SwitchRequest mod;
  mod.location = s1;
  mod.type = sched::RequestType::kMod;
  mod.match = ProbeEngine::probe_match(0);
  mod.actions = of::output_to(9);
  const auto mod_id = dag.add(mod);

  sched::SwitchRequest del;
  del.location = s1;
  del.type = sched::RequestType::kDel;
  del.match = ProbeEngine::probe_match(1);
  const auto del_id = dag.add(del);

  sched::SwitchRequest add;
  add.location = s1;
  add.type = sched::RequestType::kAdd;
  add.priority = 0x8000;
  add.match = ProbeEngine::probe_match(10);
  add.actions = of::output_to(2);
  const auto add_id = dag.add(add);

  sched::TransactionOptions topts;
  topts.txn_id = 3;
  sched::UpdateTransaction txn(net, std::move(dag), topts);

  ASSERT_EQ(txn.journal().size(), 3u);
  for (const auto& entry : txn.journal()) {
    EXPECT_EQ(entry.state, sched::JournalEntry::State::kPlanned);
    if (entry.dag_id == add_id) {
      // Nothing pre-existed at the add's key: inverse is a strict delete.
      ASSERT_EQ(entry.inverse.size(), 1u);
      EXPECT_EQ(entry.inverse[0].command, of::FlowModCommand::kDeleteStrict);
      EXPECT_EQ(entry.inverse[0].match, add.match);
    } else if (entry.dag_id == mod_id) {
      // Inverse restores the previously installed actions.
      ASSERT_EQ(entry.inverse.size(), 1u);
      EXPECT_EQ(entry.inverse[0].command, of::FlowModCommand::kAdd);
      EXPECT_EQ(entry.inverse[0].match, mod.match);
      EXPECT_NE(entry.inverse[0].actions, mod.actions);
    } else if (entry.dag_id == del_id) {
      ASSERT_EQ(entry.inverse.size(), 1u);
      EXPECT_EQ(entry.inverse[0].command, of::FlowModCommand::kAdd);
      EXPECT_EQ(entry.inverse[0].match, del.match);
    }
  }

  // Replaying every inverse (reverse journal order) on the post image must
  // reproduce the pre image exactly.
  sched::TableImage image = txn.post_image(s1);
  EXPECT_NE(image, txn.pre_image(s1));
  for (auto it = txn.journal().rbegin(); it != txn.journal().rend(); ++it) {
    for (const auto& fm : it->inverse) sched::apply_to_image(image, fm);
  }
  EXPECT_EQ(image, txn.pre_image(s1));

  // Cookies: txn id in the top half, dag node in the bottom.
  EXPECT_EQ(sched::UpdateTransaction::txn_of_cookie(txn.cookie_of(add_id)), 3u);
  EXPECT_EQ(txn.cookie_of(add_id) & 0xffffffffu, add_id);
}

// ---------------------------------------------------------------------------
// Fault-free fast path
// ---------------------------------------------------------------------------

TEST(TransactionTest, FaultFreeCommitMatchesPlainExecute) {
  // Reference: the same update through the bare executor.
  Network plain_net;
  const auto p1 = plain_net.add_switch(quiet_switch1());
  const auto p2 = plain_net.add_switch(quiet_switch1());
  preinstall(plain_net, p1, 20);
  preinstall(plain_net, p2, 20);
  sched::DionysusScheduler plain_sched;
  sched::ExecutorOptions plain_opts;
  plain_opts.request_timeout = millis(200);
  plain_opts.max_retries = 6;
  plain_opts.backoff_base = millis(5);
  const auto plain = sched::execute(plain_net, build_update(p1, p2),
                                    plain_sched, plain_opts);

  const auto txn = run_scenario(sched::RecoveryPolicy::kRollForward,
                                /*crash=*/false, /*loss=*/0.0, 0);

  // The journal rides along without touching the wire: issue counts and the
  // virtual-time makespan are bit-identical to the bare executor.
  EXPECT_EQ(txn.report.exec.issued, plain.issued);
  EXPECT_EQ(txn.report.exec.makespan.ns(), plain.makespan.ns());
  EXPECT_TRUE(txn.report.committed);
  EXPECT_FALSE(txn.report.reconciled);
  EXPECT_EQ(txn.report.reconcile_rounds, 0u);
  EXPECT_EQ(txn.report.repairs_issued, 0u);
  EXPECT_TRUE(txn.report.crashed_switches.empty());
  EXPECT_EQ(txn.report.exec.fault_crashes, 0u);

  // Same end state (cookies aside — the transaction stamps its own).
  EXPECT_EQ(strip_cookies(txn.t1),
            strip_cookies(sched::image_of(
                plain_net.flow_stats_sync(p1, of::Match::any()))));
  EXPECT_EQ(strip_cookies(txn.t2),
            strip_cookies(sched::image_of(
                plain_net.flow_stats_sync(p2, of::Match::any()))));
}

// ---------------------------------------------------------------------------
// Acceptance: mid-commit crash, both recovery policies
// ---------------------------------------------------------------------------

TEST(TransactionAcceptanceTest, CrashRollForwardEndsIdenticalToFaultFreeRun) {
  const auto seed = fault_seed_from_env();
  const auto reference = run_scenario(sched::RecoveryPolicy::kRollForward,
                                      /*crash=*/false, /*loss=*/0.0, 0);
  ASSERT_TRUE(reference.report.committed);

  const auto crashed = run_scenario(sched::RecoveryPolicy::kRollForward,
                                    /*crash=*/true, /*loss=*/0.0, seed);
  EXPECT_EQ(crashed.report.crashed_switches, std::set<SwitchId>{1});
  // The executor's report surfaces the injector activity it saw.
  EXPECT_EQ(crashed.report.exec.fault_crashes, 1u);
  EXPECT_GE(crashed.report.exec.fault_lost_to_crash, 1u);
  EXPECT_TRUE(crashed.report.reconciled);
  EXPECT_TRUE(crashed.report.committed);
  EXPECT_GE(crashed.report.reconcile_rounds, 1u);
  EXPECT_GE(crashed.report.repairs_issued, 1u);  // wiped rules reinstated

  // The contract: after roll-forward reconciliation the tables — every
  // match, priority, action list, and cookie — equal the fault-free run's.
  EXPECT_EQ(crashed.t1, reference.t1);
  EXPECT_EQ(crashed.t2, reference.t2);
}

TEST(TransactionAcceptanceTest, CrashRollBackRestoresPreUpdateSnapshot) {
  const auto seed = fault_seed_from_env();
  const auto crashed = run_scenario(sched::RecoveryPolicy::kRollBack,
                                    /*crash=*/true, /*loss=*/0.0, seed);
  EXPECT_EQ(crashed.report.crashed_switches, std::set<SwitchId>{1});
  EXPECT_TRUE(crashed.report.reconciled);
  EXPECT_TRUE(crashed.report.committed);
  EXPECT_GE(crashed.report.stale_rules_removed, 1u);  // txn rules unwound

  // The contract: both switches end exactly at their pre-update snapshot —
  // including s2, which never crashed but had committed its share.
  EXPECT_EQ(crashed.t1, crashed.pre1);
  EXPECT_EQ(crashed.t2, crashed.pre2);
}

TEST(TransactionAcceptanceTest, CrashUnderReplacedInjectorIsReconciled) {
  // A crash counts whichever injector scheduled it. Here the injector that
  // is attached at construction has already fired a crash, and its
  // replacement fires one of its own before commit(): a per-injector crash
  // counter reads 1 at both points, the switch's crash count 1 then 2.
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  FaultConfig first;
  first.crashes.push_back({net.now() + millis(1), millis(5)});
  net.enable_faults(s1, first);
  net.events().run_until(net.now() + millis(10));  // crash, then reboot
  ASSERT_EQ(net.crash_count(s1), 1u);
  preinstall(net, s1, 10);

  sched::RequestDag dag;
  for (std::uint32_t i = 10; i < 15; ++i) {
    sched::SwitchRequest r;
    r.location = s1;
    r.type = sched::RequestType::kAdd;
    r.priority = 0x8000;
    r.match = ProbeEngine::probe_match(i);
    r.actions = of::output_to(2);
    dag.add(r);
  }
  sched::UpdateTransaction txn(net, std::move(dag));

  FaultConfig second;
  second.crashes.push_back({net.now() + millis(1), millis(5)});
  net.enable_faults(s1, second);
  net.events().run_until(net.now() + millis(10));  // wipes the snapshot's rules
  ASSERT_EQ(net.crash_count(s1), 2u);
  ASSERT_EQ(net.fault_injector(s1)->stats().crashes, 1u);

  sched::DionysusScheduler scheduler;
  const auto& report = txn.commit(scheduler);
  EXPECT_EQ(report.crashed_switches, std::set<SwitchId>{s1});
  EXPECT_TRUE(report.reconciled);
  EXPECT_TRUE(report.committed);
  EXPECT_EQ(final_image(net, s1), txn.post_image(s1));
}

TEST(TransactionAcceptanceTest, CrashPlusLossIsReproducibleAcrossRuns) {
  const auto seed = fault_seed_from_env();
  const auto first =
      run_scenario(sched::RecoveryPolicy::kRollForward, true, 0.05, seed);
  const auto second =
      run_scenario(sched::RecoveryPolicy::kRollForward, true, 0.05, seed);

  EXPECT_TRUE(first.report.committed);
  EXPECT_EQ(first.report.exec.makespan.ns(), second.report.exec.makespan.ns());
  EXPECT_EQ(first.report.exec.issued, second.report.exec.issued);
  EXPECT_EQ(first.report.exec.timeouts, second.report.exec.timeouts);
  EXPECT_EQ(first.report.exec.retries, second.report.exec.retries);
  EXPECT_EQ(first.report.reconcile_rounds, second.report.reconcile_rounds);
  EXPECT_EQ(first.report.repairs_issued, second.report.repairs_issued);
  EXPECT_EQ(first.report.stale_rules_removed,
            second.report.stale_rules_removed);
  EXPECT_EQ(first.report.readback_requests, second.report.readback_requests);
  EXPECT_EQ(first.report.readback_lost, second.report.readback_lost);
  EXPECT_EQ(first.t1, second.t1);
  EXPECT_EQ(first.t2, second.t2);
}

// ---------------------------------------------------------------------------
// Consistency verifier
// ---------------------------------------------------------------------------

of::FlowMod rule(std::uint32_t index, std::uint16_t out_port,
                 std::uint16_t priority = 0x8000, std::uint64_t cookie = 0) {
  of::FlowMod fm;
  fm.match = ProbeEngine::probe_match(index);
  fm.priority = priority;
  fm.actions = of::output_to(out_port);
  fm.cookie = cookie;
  return fm;
}

TEST(VerifierTest, WalksFlowsAndFlagsEveryViolationKind) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  // Link 0 occupies port 1 on both switches.
  net.topology().add_link(Network::node_of(s1), Network::node_of(s2));

  ASSERT_TRUE(net.install(s1, rule(0, /*out_port=*/1, 0x8000, 42)).accepted);

  sched::FlowCheck flow;
  flow.ingress = s1;
  flow.packet = ProbeEngine::probe_packet(0);
  flow.expected_cookies[s1] = 42;

  sched::ConsistencyVerifier verifier(net);

  // s2 only has its default punt-to-controller route: black hole.
  {
    const auto report = verifier.verify({flow});
    ASSERT_EQ(report.black_holes, 1u);
    EXPECT_EQ(report.violations[0].at, s2);
    EXPECT_FALSE(report.clean());
  }

  // Give s2 a host-facing egress (port 5 has no link): clean walk.
  ASSERT_TRUE(net.install(s2, rule(0, /*out_port=*/5)).accepted);
  {
    flow.expected_egress = s2;
    const auto report = verifier.verify({flow});
    EXPECT_TRUE(report.clean()) << "unexpected: "
                                << (report.violations.empty()
                                        ? ""
                                        : report.violations[0].detail);
    EXPECT_EQ(report.flows_checked, 1u);
  }

  // Expecting egress elsewhere is flagged.
  {
    auto wrong = flow;
    wrong.expected_egress = s1;
    const auto report = verifier.verify({wrong});
    EXPECT_EQ(report.wrong_egress, 1u);
  }

  // Point s2 back at s1 (ADD replaces in place): forwarding loop. Arrival
  // at expected_egress counts as delivery, so drop it to follow the cycle.
  ASSERT_TRUE(net.install(s2, rule(0, /*out_port=*/1)).accepted);
  {
    auto looping = flow;
    looping.expected_egress = 0;
    const auto report = verifier.verify({looping});
    EXPECT_EQ(report.loops, 1u);
  }
  ASSERT_TRUE(net.install(s2, rule(0, /*out_port=*/5)).accepted);

  // A stale higher-priority leftover with a foreign cookie shadows ours.
  ASSERT_TRUE(net.install(s1, rule(0, /*out_port=*/1, 0x9000, 99)).accepted);
  {
    const auto report = verifier.verify({flow});
    EXPECT_EQ(report.shadowed, 1u);
    EXPECT_EQ(report.violations[0].at, s1);
  }
}

TEST(VerifierTest, DownstreamHopSeesArrivalPort) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  // Link 0 occupies port 1 on both switches.
  net.topology().add_link(Network::node_of(s1), Network::node_of(s2));

  ASSERT_TRUE(net.install(s1, rule(0, /*out_port=*/1)).accepted);
  // s2 forwards the flow only when it arrives over the link.
  auto arrival = rule(0, /*out_port=*/5);
  arrival.match.with_in_port(1);
  ASSERT_TRUE(net.install(s2, arrival).accepted);

  sched::FlowCheck flow;
  flow.ingress = s1;
  flow.packet = ProbeEngine::probe_packet(0);
  flow.packet.in_port = 5;  // enters s1 from a host port

  sched::ConsistencyVerifier verifier(net);
  const auto report = verifier.verify({flow});
  EXPECT_TRUE(report.clean()) << sched::to_string(report.violations[0].kind)
                              << " at " << report.violations[0].at << ": "
                              << report.violations[0].detail;
  EXPECT_EQ(report.flows_checked, 1u);
}

TEST(VerifierTest, PostCommitVerifyReportsCleanTables) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  preinstall(net, s1, 20);
  preinstall(net, s2, 20);

  sched::TransactionOptions topts;
  topts.txn_id = 11;
  topts.exec.request_timeout = millis(200);
  topts.exec.max_retries = 6;
  topts.exec.backoff_base = millis(5);
  sched::UpdateTransaction txn(net, build_update(s1, s2), topts);

  FaultConfig cfg;
  cfg.crashes.push_back({net.now() + millis(20), millis(5)});
  cfg.seed = fault_seed_from_env();
  net.enable_faults(s1, cfg);

  sched::DionysusScheduler scheduler;
  const auto& report = txn.commit(scheduler);
  ASSERT_TRUE(report.committed);
  ASSERT_TRUE(report.reconciled);

  // Every new rule the transaction added must match with its own cookie
  // (no stale shadowing leftovers) and leave the network cleanly.
  std::vector<sched::FlowCheck> flows;
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::FlowCheck flow;
    flow.ingress = s1;
    flow.packet = ProbeEngine::probe_packet(20 + i);
    flow.expected_cookies[s1] = txn.cookie_of(15 + i);  // ADD nodes 15..24
    flows.push_back(flow);
  }
  const auto& verdict = txn.verify(flows);
  EXPECT_EQ(verdict.flows_checked, 10u);
  EXPECT_EQ(verdict.black_holes, 0u);
  EXPECT_EQ(verdict.loops, 0u);
  EXPECT_EQ(verdict.shadowed, 0u);
  EXPECT_TRUE(verdict.clean());
  EXPECT_TRUE(txn.report().verify.clean());
}

// ---------------------------------------------------------------------------
// Phased commit: concurrent transactions over disjoint switch sets
// ---------------------------------------------------------------------------

TEST(PhasedCommitTest, InterleavedDisjointCommitsMatchSerial) {
  // Two copies of the standard update on disjoint switch pairs, committed
  // serially in one network and interleaved (phased commit under a single
  // event-queue pump) in another. The final tables must be bit-identical —
  // cookies included, since txn ids are pinned — and the interleaved run
  // must finish strictly earlier in virtual time.
  const auto options_for = [](std::uint32_t txn_id) {
    sched::TransactionOptions topts;
    topts.txn_id = txn_id;
    topts.exec.request_timeout = millis(200);
    topts.exec.max_retries = 6;
    topts.exec.backoff_base = millis(5);
    return topts;
  };
  const auto build = [&](Network& net, std::vector<SwitchId>& sw) {
    for (int i = 0; i < 4; ++i) sw.push_back(net.add_switch(quiet_switch1()));
    for (const auto id : sw) preinstall(net, id, 20);
  };

  // Serial reference.
  Network serial_net;
  std::vector<SwitchId> ss;
  build(serial_net, ss);
  sched::DionysusScheduler scheduler;
  SimDuration serial_span{};
  {
    sched::UpdateTransaction a(serial_net, build_update(ss[0], ss[1]),
                               options_for(31));
    sched::UpdateTransaction b(serial_net, build_update(ss[2], ss[3]),
                               options_for(32));
    const SimTime t0 = serial_net.now();
    ASSERT_TRUE(a.commit(scheduler).committed);
    ASSERT_TRUE(b.commit(scheduler).committed);
    serial_span = serial_net.now() - t0;
  }

  // Interleaved: start both, pump the one shared queue, finish both.
  Network conc_net;
  std::vector<SwitchId> cs;
  build(conc_net, cs);
  SimDuration conc_span{};
  {
    sched::UpdateTransaction a(conc_net, build_update(cs[0], cs[1]),
                               options_for(31));
    sched::UpdateTransaction b(conc_net, build_update(cs[2], cs[3]),
                               options_for(32));
    const SimTime t0 = conc_net.now();
    a.start_commit(scheduler);
    b.start_commit(scheduler);
    while ((!a.exec_done() || !b.exec_done()) && conc_net.events().step()) {
    }
    ASSERT_TRUE(a.exec_done());
    ASSERT_TRUE(b.exec_done());
    ASSERT_TRUE(a.finish_commit().committed);
    ASSERT_TRUE(b.finish_commit().committed);
    conc_span = conc_net.now() - t0;
  }

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(final_image(serial_net, ss[i]), final_image(conc_net, cs[i]))
        << "switch pair " << i;
  }
  EXPECT_LT(conc_span.ns(), serial_span.ns())
      << "interleaving two disjoint commits should beat running them "
         "back-to-back";
}

// ---------------------------------------------------------------------------
// Footprint scoping: rollback must not sweep foreign rule-space
// ---------------------------------------------------------------------------

namespace {

/// Roll back a two-switch update (crash on s2 mid-commit) while a foreign
/// rule F — installed AFTER the transaction's snapshot, rule-space disjoint
/// from its footprint — sits on s1. The crash must hit the OTHER switch:
/// what's under test is whether the rollback's reconciliation of s1 sweeps
/// F, not whether a table wipe destroys it. Returns whether F survived.
bool foreign_rule_survives_rollback(bool scope_to_footprint) {
  Network net;
  const auto s1 = net.add_switch(quiet_switch1());
  const auto s2 = net.add_switch(quiet_switch1());
  preinstall(net, s1, 20);
  preinstall(net, s2, 20);

  sched::TransactionOptions topts;
  topts.policy = sched::RecoveryPolicy::kRollBack;
  topts.txn_id = 33;
  topts.scope_to_footprint = scope_to_footprint;
  topts.exec.request_timeout = millis(200);
  topts.exec.max_retries = 6;
  topts.exec.backoff_base = millis(5);
  sched::UpdateTransaction txn(net, build_update(s1, s2), topts);

  // F lands after the snapshot: to an unscoped rollback it is
  // indistinguishable from the transaction's own stale leftovers.
  ProbeEngine probe(net, s1);
  EXPECT_TRUE(probe.install(50, 777));
  net.barrier_sync(s1);

  FaultConfig cfg;
  cfg.crashes.push_back({net.now() + millis(20), millis(5)});
  cfg.seed = fault_seed_from_env();
  net.enable_faults(s2, cfg);

  sched::DionysusScheduler scheduler;
  const auto& report = txn.commit(scheduler);
  EXPECT_TRUE(report.rolled_back) << "crash did not force a rollback";

  const auto image = final_image(net, s1);
  return image.count(sched::rule_key(ProbeEngine::probe_match(50), 777)) != 0;
}

}  // namespace

TEST(FootprintScopeTest, UnscopedRollbackSweepsForeignRules) {
  // The default (whole-table reconciliation) deliberately sweeps anything
  // not in the pre image — strictly stronger repair for a serial world.
  EXPECT_FALSE(foreign_rule_survives_rollback(false));
}

TEST(FootprintScopeTest, ScopedRollbackPreservesForeignRules) {
  // With scope_to_footprint the reconciler never looks outside the
  // transaction's own rule-space, so the concurrent world's rules survive.
  EXPECT_TRUE(foreign_rule_survives_rollback(true));
}

}  // namespace
}  // namespace tango::net
