// HA chaos harness: controller-side faults as schedulable chaos events.
//
// Where harness.h injures the *switches*, this harness injures the
// *control plane*: the acting primary crashes mid-commit, gets partitioned
// from its standby (a zombie that keeps retrying under a stale epoch), has
// its replication stream lossy before dying, crashes again during its own
// takeover reconciliation (double failover), or dies just after a clean
// commit. Every scenario is driven through src/ha end-to-end — replication
// shipping, heartbeat-watchdog detection, epoch fencing, journal replay
// through the reconciler, sentinel revalidation — on a live workload
// borrowed from the wire-fault harness (build_workload).
//
// Oracles (all must hold for every scenario):
//  * epoch-agreement        — after quiescence every switch holds exactly
//                             the successor's epoch (one active epoch).
//  * stale-epoch-applied    — no switch ever applied a fenced mutation
//                             carrying a stale epoch (tripwire counter).
//  * fence                  — every takeover fenced every switch.
//  * takeover-convergence   — the final tables match the last completed
//                             takeover's target image, and a rolled-back
//                             transaction leaves none of its rules behind
//                             (rule identity modulo the cookie epoch byte).
//  * committed-preserved    — rules of transactions the dead primary had
//                             reported committed are still installed.
//
// Deterministic: same HaChaosSpec -> same fingerprint, bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "ha/ha.h"

namespace tango::chaos {

/// Controller-side fault scenarios (cf. FaultKind for switch-side faults).
enum class ControllerFaultKind {
  /// Primary process dies mid-commit (between start_commit and
  /// finish_commit); in-flight transaction abandoned.
  kControllerCrash = 0,
  /// Replication link blackholed; the primary survives as a zombie that
  /// keeps retrying under its stale epoch after the standby takes over.
  kControllerPartition = 1,
  /// Replication loss window degrades the shadow (acks lost), then the
  /// primary crashes — takeover replays from the WAL it did receive.
  kReplicationLoss = 2,
  /// Double failover: the first successor crashes during its own takeover
  /// reconciliation; a third controller completes it.
  kCrashDuringTakeover = 3,
  /// Primary dies after a clean commit: nothing to replay, but the
  /// committed transaction must survive the failover.
  kCrashAfterCommit = 4,
};

std::string to_string(ControllerFaultKind kind);

/// Deterministic scenario choice for soak sweeps: seed % 5.
ControllerFaultKind scenario_of(std::uint64_t seed);

/// The deterministic identity of one HA chaos run.
struct HaChaosSpec {
  std::uint64_t seed = 1;
  Workload workload = Workload::kFig10;
  sched::RecoveryPolicy policy = sched::RecoveryPolicy::kRollForward;
  Horizon horizon = Horizon::kShort;
  ControllerFaultKind scenario = ControllerFaultKind::kControllerCrash;
};

/// The fingerprint folds takeover reports, link/standby stats, per-switch
/// epoch counters, final tables, and the final clock.
struct HaChaosResult : RunResult {
  HaChaosSpec spec;
  std::vector<ha::TakeoverReport> takeovers;
  ha::LinkStats link;
  ha::StandbyStats standby;
  ha::HaStats ha;
  /// Sum of per-switch stale-epoch EPERM rejections (the fence working).
  std::uint64_t stale_epoch_rejections = 0;
  /// Final controller epoch (1 + completed takeovers).
  std::uint32_t epoch = 0;
};

/// Execute one HA chaos run. Pure function of the spec.
HaChaosResult run_ha_chaos(const HaChaosSpec& spec);

}  // namespace tango::chaos
