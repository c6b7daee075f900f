// Knowledge health: per-property confidence tracking, a drift sentinel fed
// on free signals, and quarantine for low-trust switches.
//
// Tango's schedules are only as good as the inferred SwitchKnowledge they
// run on (§4's online-testing mode). This layer keeps that knowledge
// honest without paying for continuous probing:
//
//  * Free signals — executor cost-hint mispredictions and readback
//    mismatches of verified commits — accrue against the responsible
//    property's confidence and the switch's overall trust. They cost
//    nothing: the controller was already measuring.
//  * Escalation — only when cost signals accumulate past a threshold does
//    the sentinel pay for a spot_check() probe; a confirmed drift triggers
//    *targeted* re-inference of the stale property, not a full learn().
//  * Quarantine — when trust or any property confidence falls below the
//    threshold, the switch is quarantined: TangoController::begin_update
//    gives its transactions conservative (inflated) cost estimates and
//    readback-verified commits until trust recovers through clean commits
//    and fresh re-inference.
//
// The thresholds are constants (knowledge_health.cpp): a cost observation
// more than 1.5x (or under 0.5x) its prediction is a signal; each signal
// costs 0.15 of trust and of the property's confidence; three signals make
// a probe due; a spot-check drift above 0.25 confirms drift; trust or
// confidence below 0.5 quarantines; a clean verified commit gives back
// 0.25 of trust.
//
// Deterministic: pure bookkeeping, no RNG, no wall clock.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/types.h"
#include "telemetry/trace.h"

namespace tango::core {

/// The independently inferred (and independently re-inferable) properties
/// of a SwitchKnowledge record.
enum class PropertyKind { kSizes = 0, kPolicy = 1, kCosts = 2, kWidth = 3 };
inline constexpr std::size_t kPropertyKinds = 4;

std::string to_string(PropertyKind kind);

struct PropertyHealth {
  double confidence = 1.0;
  /// Signals accrued against this property since the last refresh.
  std::size_t signals = 0;
};

struct SwitchHealth {
  std::array<PropertyHealth, kPropertyKinds> props;
  /// Overall trust in the switch executing what it acknowledges.
  double trust = 1.0;
  bool quarantined = false;

  // Lifetime counters (deterministic). The chaos fingerprints fold the
  // sentinel's actions, not these.
  std::uint64_t cost_mispredictions = 0;
  std::uint64_t readback_mismatches = 0;
  std::uint64_t spot_checks = 0;
  std::uint64_t drift_confirmed = 0;
  std::uint64_t reinferences = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t quarantine_lifts = 0;

  [[nodiscard]] const PropertyHealth& prop(PropertyKind k) const {
    return props[static_cast<std::size_t>(k)];
  }
  PropertyHealth& prop(PropertyKind k) {
    return props[static_cast<std::size_t>(k)];
  }
};

class KnowledgeHealth {
 public:
  /// Mirror health counters into `t`'s metrics registry under "health.*"
  /// (non-owning; nullptr detaches). Null-checked per signal, so detached
  /// operation costs nothing.
  void set_telemetry(telemetry::Telemetry* t) { telemetry_ = t; }

  /// Start tracking a switch whose knowledge was just learned/adopted:
  /// full confidence, full trust.
  void track(SwitchId id);

  /// Operator-initiated distrust: quarantine `id` immediately (trust is
  /// forced below threshold) until clean commits restore it.
  void suspect(SwitchId id);

  /// Adopt a replicated trust snapshot (HA takeover): track `id` fresh,
  /// then overwrite trust and re-derive quarantine. Lifetime counters
  /// restart — they tallied the dead primary's observations; the
  /// trust/quarantine verdict is the state worth surviving a failover.
  void restore(SwitchId id, double trust, bool quarantined);

  // --- free signals ---------------------------------------------------------
  /// Executor cost observation: relative error beyond the tolerance counts
  /// a signal against kCosts.
  void on_cost_observation(SwitchId id, double actual_ms, double predicted_ms);

  /// Reconciler/commit readback found `mismatches` rules diverging from
  /// the intended image — the switch lied about what it installed.
  void on_readback_mismatch(SwitchId id, std::size_t mismatches);

  /// A readback-verified commit went through clean: trust recovers.
  void on_clean_verified_commit(SwitchId id);

  // --- sentinel -------------------------------------------------------------
  /// True when accumulated kCosts signals warrant paying for a spot_check.
  [[nodiscard]] bool needs_probe(SwitchId id) const;

  /// Record a spot_check probe result (relative drift). Beyond tolerance:
  /// drift confirmed, kCosts confidence collapses (forcing re-inference +
  /// quarantine); within: the accumulated signals are absolved.
  /// Returns true when drift was confirmed.
  bool record_spot_check(SwitchId id, double drift);

  /// Property `kind` was just re-inferred: confidence restored, signals
  /// cleared; quarantine lifts if trust and every confidence recovered.
  void mark_reinferred(SwitchId id, PropertyKind kind);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] bool quarantined(SwitchId id) const;
  [[nodiscard]] const SwitchHealth* health(SwitchId id) const;

 private:
  SwitchHealth& entry(SwitchId id);
  /// Apply a signal's penalty and re-evaluate quarantine.
  void penalize(SwitchHealth& h, SwitchId id, PropertyKind kind, double amount);
  void update_quarantine(SwitchHealth& h, SwitchId id);
  void count(const char* name, std::uint64_t n = 1);

  telemetry::Telemetry* telemetry_ = nullptr;
  std::map<SwitchId, SwitchHealth> switches_;
};

}  // namespace tango::core
