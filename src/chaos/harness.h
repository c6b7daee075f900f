// The chaos harness: run one workload under one fault schedule and judge
// the outcome.
//
// run_chaos() builds a fresh three-switch network, preinstalls the
// workload's pre-state, wraps the update in an UpdateTransaction, lowers
// the schedule onto per-switch FaultInjector scheduled-event lists
// (absolute times = commit start + event offset), commits through the
// Dionysus scheduler, drains the event queue to a quiescent point, and
// runs every invariant oracle (oracles.h) over the result.
//
// Everything is deterministic: the same ChaosSchedule always produces the
// same virtual-time trace, byte for byte. The 64-bit `fingerprint` folds
// the executor/transaction counters, per-switch fault stats, final table
// images, and the final virtual clock into one value so "bit-identical
// replay" is a single integer comparison.
#pragma once

#include <map>
#include <vector>

#include "chaos/run.h"
#include "chaos/schedule.h"
#include "switchsim/misbehavior.h"
#include "tango/tango.h"

namespace tango::chaos {

// --- building blocks shared with the HA harness (ha_harness.h) --------------

/// Build the spec's workload DAG and lay down its pre-state on the testbed.
/// Returns whether the verifier oracle may assert per-rule cookies (false
/// for ACLs, whose first-match-wins overlap makes shadowing legitimate).
bool build_workload(const ChaosSpec& spec, net::Network& net,
                    const workload::TestbedIds& tb, sched::RequestDag& dag);

/// Ground-truth knowledge synthesized from the switch profile — what a
/// completed learn() would have produced, minus the probing cost.
core::SwitchKnowledge synthetic_knowledge(net::Network& net, SwitchId id);

/// The fingerprint folds counters, fault stats, final tables, and the final
/// clock (plus misbehavior stats, health counters, and sentinel outcomes
/// when the spec enables misbehavior).
struct ChaosResult : RunResult {
  ChaosSchedule schedule;
  sched::TransactionReport report;
  /// Per-switch injector stats captured before the oracle phase.
  std::map<SwitchId, net::FaultStats> fault_stats;
  /// Per-switch semantic-fault stats (misbehavior specs only).
  std::map<SwitchId, switchsim::MisbehaviorStats> misbehavior_stats;
  /// Post-oracle forced sentinel sweep (misbehavior specs only).
  std::vector<core::SentinelAction> sentinel;
};

/// Execute one chaos run. Pure function of the schedule.
ChaosResult run_chaos(const ChaosSchedule& schedule);

}  // namespace tango::chaos
