#include "chaos/ha_harness.h"

#include <set>

#include "common/logging.h"
#include "net/network.h"
#include "openflow/actions.h"
#include "openflow/epoch.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"

namespace tango::chaos {

std::string to_string(ControllerFaultKind kind) {
  switch (kind) {
    case ControllerFaultKind::kControllerCrash: return "controller_crash";
    case ControllerFaultKind::kControllerPartition:
      return "controller_partition";
    case ControllerFaultKind::kReplicationLoss: return "replication_loss";
    case ControllerFaultKind::kCrashDuringTakeover:
      return "crash_during_takeover";
    case ControllerFaultKind::kCrashAfterCommit: return "crash_after_commit";
  }
  return "?";
}

ControllerFaultKind scenario_of(std::uint64_t seed) {
  return static_cast<ControllerFaultKind>(seed % 5);
}

namespace {

bool same_rule_sans_epoch(const sched::RuleImage& a,
                          const sched::RuleImage& b) {
  return a.priority == b.priority && a.actions == b.actions &&
         of::cookie_sans_epoch(a.cookie) == of::cookie_sans_epoch(b.cookie);
}

bool cookie_of_txn(std::uint64_t cookie, std::uint32_t txn_id) {
  if (of::epoch_of_cookie(cookie) == 0) return false;
  const auto txn = static_cast<std::uint32_t>(cookie >> 32) & of::kCookieTxnMask;
  return txn == (txn_id & of::kCookieTxnMask);
}

std::uint64_t fingerprint_of(const HaChaosResult& r, const Tables& tables,
                             const std::map<SwitchId, std::uint32_t>& epochs) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv_fold(h, r.spec.seed);
  fnv_fold(h, static_cast<std::uint64_t>(r.spec.scenario));
  for (const auto& rep : r.takeovers) {
    fnv_fold(h, rep.epoch);
    fnv_fold(h, static_cast<std::uint64_t>(rep.detected_at.ns()));
    fnv_fold(h, static_cast<std::uint64_t>(rep.completed_at.ns()));
    fnv_fold(h, rep.switches_fenced);
    fnv_fold(h, rep.fence_failures);
    fnv_fold(h, rep.knowledge_restored);
    fnv_fold(h, static_cast<std::uint64_t>(rep.knowledge_age.ns()));
    fnv_fold(h, rep.txns_replayed);
    fnv_fold(h, rep.txns_rolled_forward);
    fnv_fold(h, rep.txns_rolled_back);
    fnv_fold(h, rep.repairs_issued);
    fnv_fold(h, rep.stale_rules_removed);
    fnv_fold(h, rep.sentinel_probes);
    fnv_fold(h, (rep.converged ? 1u : 0u) | (rep.aborted ? 2u : 0u));
  }
  fnv_fold(h, r.link.shipped);
  fnv_fold(h, r.link.delivered);
  fnv_fold(h, r.link.lost_to_loss);
  fnv_fold(h, r.link.lost_to_partition);
  fnv_fold(h, r.link.bytes_shipped);
  fnv_fold(h, r.standby.records_received);
  fnv_fold(h, r.standby.heartbeats_received);
  fnv_fold(h, r.standby.checkpoints_applied);
  fnv_fold(h, r.standby.txns_shadowed);
  fnv_fold(h, r.standby.seq_gaps);
  fnv_fold(h, static_cast<std::uint64_t>(r.standby.max_replication_lag.ns()));
  fnv_fold(h, r.ha.stale_records_dropped);
  fnv_fold(h, r.stale_epoch_rejections);
  for (const auto& [id, epoch] : epochs) {
    fnv_fold(h, id);
    fnv_fold(h, epoch);
  }
  fnv_fold_tables(h, tables);
  fnv_fold(h, static_cast<std::uint64_t>(r.end_time.ns()));
  return h;
}

}  // namespace

HaChaosResult run_ha_chaos(const HaChaosSpec& spec) {
  HaChaosResult out;
  out.spec = spec;
  const auto scenario = spec.scenario;

  net::Network net;
  const auto tb = quiet_testbed(net);
  const std::vector<SwitchId> all = {tb.s1, tb.s2, tb.s3};

  // Three controllers: the primary and two promotion candidates (the second
  // is only reached by the double-failover scenario).
  core::TangoController primary(net);
  core::TangoController second(net);
  core::TangoController third(net);
  std::vector<core::TangoController*> successors = {&second, &third};
  for (const auto id : all) primary.adopt(synthetic_knowledge(net, id));

  ha::HaOptions hopts;
  hopts.replay_exec = recovery_budget().exec;
  ha::HaController ha(net, primary, hopts);
  ha.start();

  // Workload + pre-state, exactly as the wire-fault harness builds them.
  ChaosSpec base;
  base.seed = spec.seed;
  base.workload = spec.workload;
  base.policy = spec.policy;
  base.horizon = spec.horizon;
  sched::RequestDag dag;
  build_workload(base, net, tb, dag);

  auto topts = recovery_budget();
  topts.policy = spec.policy;
  topts.txn_id = static_cast<std::uint32_t>(spec.seed % 0xfffff) + 1;
  topts = ha.stamp(topts);

  // Construction ships the write-ahead journal before the first wire frame.
  auto txn = primary.begin_update(std::move(dag), topts);
  const SimTime t0 = net.now();
  const auto fault_at = t0 + millis(1 + spec.seed % 7);

  bool abandoned = false;
  const bool zombie = scenario == ControllerFaultKind::kControllerPartition;
  switch (scenario) {
    case ControllerFaultKind::kControllerCrash:
    case ControllerFaultKind::kCrashDuringTakeover:
      net.events().schedule_at(fault_at, [&ha, &txn, &abandoned] {
        ha.crash_primary();
        txn.abandon();
        abandoned = true;
      });
      break;
    case ControllerFaultKind::kControllerPartition:
      // The primary survives: heartbeats and journal records keep shipping
      // into the blackhole while the commit keeps mutating switches.
      net.events().schedule_at(fault_at,
                               [&ha] { ha.link().set_partitioned(true); });
      break;
    case ControllerFaultKind::kReplicationLoss:
      ha.link().add_loss_window(fault_at, fault_at + millis(20));
      net.events().schedule_at(fault_at + millis(25),
                               [&ha, &txn, &abandoned] {
        ha.crash_primary();
        txn.abandon();
        abandoned = true;
      });
      break;
    case ControllerFaultKind::kCrashAfterCommit:
      break;  // crash is triggered below, right after the commit epilogue
  }

  sched::DionysusScheduler scheduler;
  txn.start_commit(scheduler);

  const std::size_t expected_takeovers =
      scenario == ControllerFaultKind::kCrashDuringTakeover ? 2 : 1;
  bool finished = false;
  bool post_commit_crashed = false;
  std::size_t guard = 0;
  while (guard++ < 50'000'000) {
    if (!abandoned && !finished && txn.exec_done()) {
      txn.finish_commit();
      finished = true;
      if (scenario == ControllerFaultKind::kCrashAfterCommit &&
          !post_commit_crashed) {
        ha.crash_primary();
        post_commit_crashed = true;
      }
    }
    if (ha.takeover_due()) {
      const std::size_t n = ha.takeovers().size();
      if (n < successors.size()) {
        if (zombie) {
          // The new pair replicates over a healthy path; only the deposed
          // primary stays partitioned (its stragglers are epoch-filtered).
          ha.link().set_partitioned(false);
        }
        if (scenario == ControllerFaultKind::kCrashDuringTakeover && n == 0) {
          // First successor dies between its fencing pump and its replay
          // loop: fencing advances virtual time well past +1us.
          ha.schedule_primary_crash(net.now() + micros(1));
        }
        ha.take_over(*successors[n]);
        if (zombie && !abandoned && !finished) {
          // The zombie is fenced out; the operator kills the process.
          txn.abandon();
          abandoned = true;
        }
        continue;
      }
    }
    const bool settled = (finished || abandoned) &&
                         ha.takeovers().size() >= expected_takeovers &&
                         ha.accepting_intents();
    if (settled) break;
    if (!net.events().step()) break;
  }

  ha.stop();
  net.run_all();  // drain orphaned pulse/watchdog timers

  out.takeovers = ha.takeovers();
  out.link = ha.link().stats();
  out.standby = ha.standby().stats();
  out.ha = ha.stats();
  out.epoch = ha.epoch();
  for (const auto id : all) {
    out.stale_epoch_rejections += net.sw(id).stale_epoch_rejections();
  }

  const Tables tables = capture_tables(net, all);
  std::map<SwitchId, std::uint32_t> epochs;
  for (const auto id : all) epochs.emplace(id, net.sw(id).controller_epoch());

  // --- oracles --------------------------------------------------------------
  if (ha.takeovers().size() != expected_takeovers) {
    out.violations.push_back(
        {"failover", std::to_string(ha.takeovers().size()) +
                         " takeovers ran, expected " +
                         std::to_string(expected_takeovers)});
  }
  for (const auto id : all) {
    if (epochs.at(id) != out.epoch) {
      out.violations.push_back(
          {"epoch-agreement",
           "switch " + std::to_string(id) + " holds epoch " +
               std::to_string(epochs.at(id)) + ", controller is at " +
               std::to_string(out.epoch)});
    }
    if (net.sw(id).stale_epoch_applied() != 0) {
      out.violations.push_back(
          {"stale-epoch-applied",
           "switch " + std::to_string(id) + " applied " +
               std::to_string(net.sw(id).stale_epoch_applied()) +
               " stale-epoch mutations"});
    }
  }
  for (const auto& rep : out.takeovers) {
    if (rep.fence_failures != 0) {
      out.violations.push_back(
          {"fence", "takeover to epoch " + std::to_string(rep.epoch) +
                        " left " + std::to_string(rep.fence_failures) +
                        " switches unfenced"});
    }
  }

  // Takeover convergence: judge the last *completed* takeover (the aborted
  // first pass of a double failover is judged by its successor's outcome).
  const ha::TakeoverReport* last = nullptr;
  for (const auto& rep : out.takeovers) {
    if (!rep.aborted) last = &rep;
  }
  if (last != nullptr) {
    if (!last->converged) {
      out.violations.push_back(
          {"takeover-convergence", "takeover to epoch " +
                                       std::to_string(last->epoch) +
                                       " did not converge"});
    }
    for (const auto& [id, target] : last->targets) {
      const auto& actual = tables.at(id);
      for (const auto& [key, rule] : target) {
        const auto it = actual.find(key);
        if (it == actual.end()) {
          out.violations.push_back(
              {"takeover-convergence", "switch " + std::to_string(id) +
                                           ": target rule missing (" + key +
                                           ")"});
        } else if (!same_rule_sans_epoch(it->second, rule)) {
          out.violations.push_back(
              {"takeover-convergence", "switch " + std::to_string(id) +
                                           ": rule diverges from target (" +
                                           key + ")"});
        }
      }
      for (const auto& [key, rule] : actual) {
        (void)rule;
        if (target.find(key) == target.end()) {
          out.violations.push_back(
              {"takeover-convergence", "switch " + std::to_string(id) +
                                           ": rule outside target image (" +
                                           key + ")"});
        }
      }
    }
    // A rolled-back transaction must leave no authored rule anywhere —
    // including switches the replay never had a target image for.
    if (spec.policy == sched::RecoveryPolicy::kRollBack &&
        last->txns_rolled_back > 0) {
      for (const auto& [id, image] : tables) {
        for (const auto& [key, rule] : image) {
          if (cookie_of_txn(rule.cookie, topts.txn_id) &&
              (last->targets.find(id) == last->targets.end() ||
               last->targets.at(id).find(key) == last->targets.at(id).end())) {
            out.violations.push_back(
                {"takeover-convergence",
                 "switch " + std::to_string(id) +
                     ": rolled-back rule left behind (" + key + ")"});
          }
        }
      }
    }
    // No committed transaction lost: everything the dead primary reported
    // committed is still installed (modulo the cookie's epoch byte).
    for (const auto& [id, target] : last->committed_targets) {
      const auto& actual = tables.at(id);
      for (const auto& [key, rule] : target) {
        const auto it = actual.find(key);
        if (it == actual.end() || !same_rule_sans_epoch(it->second, rule)) {
          out.violations.push_back(
              {"committed-preserved", "switch " + std::to_string(id) +
                                          ": committed rule lost (" + key +
                                          ")"});
        }
      }
    }
  }
  if (guard >= 50'000'000) {
    out.violations.push_back({"ha-harness", "pump loop hit its step guard"});
  }

  out.end_time = net.now();
  out.wall_ns = net.wall_ns();
  out.fingerprint = fingerprint_of(out, tables, epochs);
  return out;
}

}  // namespace tango::chaos
