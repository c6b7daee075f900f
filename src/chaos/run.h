// What every seeded chaos harness shares: the fields a run returns, the
// quiet switches it builds its world from, the recovery budget its
// transactions get, and the post-run steps that freeze the world for the
// oracles and fold it into the fingerprint. The wire/misbehavior harness
// (harness.h), the controller-fault harness (ha_harness.h) and the
// multi-tenant harness (tenant_isolation.h) build on these.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/oracles.h"
#include "net/network.h"
#include "scheduler/reconciler.h"
#include "scheduler/transaction.h"
#include "workload/scenarios.h"

namespace tango::chaos {

/// FNV-1a fold primitives used by every chaos fingerprint.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
void fnv_fold(std::uint64_t& h, std::uint64_t v);
void fnv_fold_str(std::uint64_t& h, const std::string& s);

/// The fields every harness run returns.
struct RunResult {
  std::vector<OracleViolation> violations;
  /// FNV-1a over the run's counters, final tables, and final clock (each
  /// harness lists what else it folds).
  std::uint64_t fingerprint = 0;
  /// Virtual time when the run quiesced.
  SimTime end_time{};
  /// Real (wall-clock) nanoseconds the run's network spent advancing its
  /// event loop. Diagnostics only — never folded into the fingerprint, so
  /// two runs with equal fingerprints may carry different wall times.
  std::uint64_t wall_ns = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Oracle names, deduplicated in order — the repro metadata.
  [[nodiscard]] std::vector<std::string> violation_names() const;
};

/// Zero the profile's latency jitter: chaos runs vary the *fault* schedule,
/// not the switch timing, so every divergence is attributable to faults.
switchsim::SwitchProfile quiet_profile(switchsim::SwitchProfile profile);

/// The three-switch testbed of the chaos and HA harnesses: quiet switch1
/// profiles at s1 and s2, a quiet switch3 at s3.
workload::TestbedIds quiet_testbed(net::Network& net);

/// Timeout/retry budget of every harness transaction: a 200 ms request
/// timeout, 6 retries, 5 ms backoff and 6 reconcile rounds. Readbacks use
/// the reconciler's own budget of 200 ms per attempt and 6 retries.
sched::TransactionOptions recovery_budget();

/// Each switch's table, read straight from the simulator.
using Tables = std::map<SwitchId, sched::TableImage>;
Tables capture_tables(net::Network& net, const std::vector<SwitchId>& ids);
void fnv_fold_tables(std::uint64_t& h, const Tables& tables);

/// Quiescent point before the oracles: return the stats of every attached
/// fault injector, then swap in clean injectors (no loss, no windows) so
/// the oracles' readback traffic cannot itself be faulted.
std::map<SwitchId, net::FaultStats> quiesce(net::Network& net,
                                            const std::vector<SwitchId>& ids);

}  // namespace tango::chaos
