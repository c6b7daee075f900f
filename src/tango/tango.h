// TangoController — the facade that ties the framework together (paper
// Fig 4): pattern & score databases, probing engine, and switch inference
// engine. learn() runs the full inference pipeline for one switch and
// caches a SwitchKnowledge record that schedulers and applications consume.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/network.h"
#include "scheduler/transaction.h"
#include "tables/cache_policy.h"
#include "tango/knowledge_health.h"
#include "tango/latency_profiler.h"
#include "tango/pattern.h"
#include "tango/policy_inference.h"
#include "tango/size_inference.h"
#include "tango/width_inference.h"

namespace tango::core {

struct SwitchKnowledge {
  SwitchId switch_id = 0;
  std::string name;
  SizeInferenceResult sizes;
  std::optional<PolicyInferenceResult> policy;
  std::optional<WidthInferenceResult> width;
  OpCostEstimate costs;

  /// Inferred fast-table (level 0) capacity, 0 when unbounded/unknown.
  [[nodiscard]] std::size_t fast_table_size() const;
  [[nodiscard]] std::string summary() const;
};

struct LearnOptions {
  SizeInferenceConfig size;
  LatencyProfileConfig latency;
  /// Policy inference needs a bounded fast table and O(cache) probes; it is
  /// skipped for switches whose fast table looks unbounded or larger than
  /// this (probing cost guard).
  std::size_t max_policy_cache_size = 2048;
  bool infer_policy = true;
  /// TCAM width/mode probing (three full fills: the most expensive
  /// pattern, off by default).
  bool infer_width = false;
};

/// One sentinel decision for one switch (see TangoController::run_sentinel).
struct SentinelAction {
  SwitchId switch_id = 0;
  /// spot_check output (|measured/learned - 1|) when probed; negative when
  /// the probe could not run.
  double drift = -1.0;
  bool probed = false;
  /// Drift confirmed beyond the spot-check tolerance.
  bool confirmed = false;
  /// Targeted re-inference of the stale property ran.
  bool reinferred = false;
  /// Quarantine state after the sentinel acted.
  bool quarantined = false;
};

class TangoController {
 public:
  explicit TangoController(net::Network& network) : network_(network) {}

  /// Run (or return cached) full inference for a switch.
  const SwitchKnowledge& learn(SwitchId id, const LearnOptions& options = {});

  /// Adopt externally supplied knowledge (a previous run, a config file)
  /// without probing. Replaces any cached record; tracked by the health
  /// layer exactly like learned knowledge.
  const SwitchKnowledge& adopt(SwitchKnowledge know);

  /// Cheap online drift check (the "online testing when the switch is
  /// running" mode of §4): time one ascending-add batch of 50 rules and
  /// compare against the learned per-rule cost. Returns
  /// |measured/learned - 1|, or a negative value when the switch has not
  /// been learned yet. The probe rules are cleaned up afterwards.
  double spot_check(SwitchId id);

  /// Drop cached knowledge and re-run inference (e.g. after spot_check
  /// reports drift beyond tolerance).
  const SwitchKnowledge& refresh(SwitchId id, const LearnOptions& options = {});

  /// Targeted re-inference: re-probe only `kind` on a switch whose other
  /// properties are still trusted — a fraction of a full learn(). Falls
  /// back to learn() when the switch is unknown. Like learn(), this clears
  /// the switch's rules (probe workloads need an empty table).
  const SwitchKnowledge& reinfer(SwitchId id, PropertyKind kind,
                                 const LearnOptions& options = {});

  /// Drift sentinel sweep: for every known switch whose accumulated free
  /// signals warrant it (KnowledgeHealth::needs_probe, or all switches when
  /// `force_probe`), pay for a spot_check probe; on confirmed drift run
  /// targeted re-inference of the cost property. Returns one action record
  /// per probed switch.
  std::vector<SentinelAction> run_sentinel(const LearnOptions& options = {},
                                           bool force_probe = false);

  /// Begin a transactional update: snapshot pre-state of every affected
  /// switch, journal each request's intent and inverse, stamp cookies.
  /// Executor cost hints are pre-filled from learned knowledge (a scheduler
  /// built from the same hints sees consistent estimates). The caller picks
  /// the scheduler at commit() time.
  ///
  /// Knowledge-health wiring: quarantined switches get conservative cost
  /// hints (3x the learned costs) and are added to options.readback_verify so
  /// their commits are readback-verified; the executor's cost observations
  /// and the transaction's final report are chained into the health layer
  /// (user-provided callbacks still fire afterwards).
  sched::UpdateTransaction begin_update(sched::RequestDag dag,
                                        sched::TransactionOptions options = {});

  /// Re-entrant begin_update for the intent service: safe to call while
  /// other transactions are mid-commit, provided the footprints are
  /// disjoint (no Match overlap on shared switches) — the construction-time
  /// snapshot pumps the shared event queue, which advances in-flight
  /// commits, and scope_to_footprint (forced on here) keeps each
  /// transaction's world-view and reconciliation inside its own rule space.
  /// Heap allocation gives the transaction the stable address its
  /// phased-commit observers (start_commit .. finish_commit) capture.
  std::unique_ptr<sched::UpdateTransaction> begin_update_concurrent(
      sched::RequestDag dag, sched::TransactionOptions options = {});

  [[nodiscard]] const SwitchKnowledge* knowledge(SwitchId id) const;
  [[nodiscard]] bool knows(SwitchId id) const { return knowledge(id) != nullptr; }

  PatternDb& patterns() { return patterns_; }
  ScoreDb& scores() { return scores_; }
  net::Network& network() { return network_; }
  /// Health/trust bookkeeping for every known switch.
  KnowledgeHealth& health() { return health_; }
  [[nodiscard]] const KnowledgeHealth& health() const { return health_; }

 private:
  net::Network& network_;
  PatternDb patterns_;
  ScoreDb scores_;
  std::map<SwitchId, SwitchKnowledge> knowledge_;
  KnowledgeHealth health_;
};

}  // namespace tango::core
