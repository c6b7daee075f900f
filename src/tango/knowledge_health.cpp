#include "tango/knowledge_health.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tango::core {

namespace {

/// Relative error |actual/predicted - 1| above which a cost observation
/// counts as a misprediction signal.
constexpr double kMispredictionTolerance = 0.5;
/// Cost-misprediction signals needed before the sentinel escalates to a
/// spot_check probe.
constexpr std::size_t kEscalateAfter = 3;
/// spot_check relative drift above which drift is *confirmed* (matches
/// TangoController::spot_check's |measured/learned - 1| output).
constexpr double kSpotCheckTolerance = 0.25;
/// Trust / confidence below this quarantines the switch.
constexpr double kQuarantineThreshold = 0.5;
/// Trust and confidence lost per signal.
constexpr double kSignalPenalty = 0.15;
/// Trust regained per clean readback-verified commit.
constexpr double kCleanCommitRecovery = 0.25;

}  // namespace

std::string to_string(PropertyKind kind) {
  switch (kind) {
    case PropertyKind::kSizes: return "sizes";
    case PropertyKind::kPolicy: return "policy";
    case PropertyKind::kCosts: return "costs";
    case PropertyKind::kWidth: return "width";
  }
  return "?";
}

void KnowledgeHealth::count(const char* name, std::uint64_t n) {
  if (telemetry_ != nullptr) telemetry_->metrics.counter(name).inc(n);
}

SwitchHealth& KnowledgeHealth::entry(SwitchId id) { return switches_[id]; }

void KnowledgeHealth::track(SwitchId id) {
  SwitchHealth fresh;
  // Keep lifetime counters across re-tracking (refresh() re-learns).
  if (const auto it = switches_.find(id); it != switches_.end()) {
    const SwitchHealth& old = it->second;
    fresh.cost_mispredictions = old.cost_mispredictions;
    fresh.readback_mismatches = old.readback_mismatches;
    fresh.spot_checks = old.spot_checks;
    fresh.drift_confirmed = old.drift_confirmed;
    fresh.reinferences = old.reinferences;
    fresh.quarantines = old.quarantines;
    fresh.quarantine_lifts = old.quarantine_lifts;
  }
  switches_[id] = fresh;
}

void KnowledgeHealth::restore(SwitchId id, double trust, bool quarantined) {
  SwitchHealth fresh;
  fresh.trust = trust;
  switches_[id] = fresh;
  auto& h = switches_[id];
  if (quarantined) {
    // The snapshot's verdict wins even if the raw trust would not trip the
    // threshold here (the primary may have quarantined on confidence).
    h.trust = std::min(h.trust, kQuarantineThreshold - 0.01);
  }
  update_quarantine(h, id);
}

void KnowledgeHealth::suspect(SwitchId id) {
  auto& h = entry(id);
  h.trust = std::min(h.trust, kQuarantineThreshold - 0.01);
  update_quarantine(h, id);
}

void KnowledgeHealth::penalize(SwitchHealth& h, SwitchId id, PropertyKind kind,
                               double amount) {
  auto& p = h.prop(kind);
  ++p.signals;
  p.confidence = std::max(0.0, p.confidence - amount);
  h.trust = std::max(0.0, h.trust - amount);
  update_quarantine(h, id);
}

void KnowledgeHealth::update_quarantine(SwitchHealth& h, SwitchId id) {
  double min_conf = 1.0;
  for (const auto& p : h.props) min_conf = std::min(min_conf, p.confidence);
  const bool should =
      h.trust < kQuarantineThreshold || min_conf < kQuarantineThreshold;
  if (should && !h.quarantined) {
    h.quarantined = true;
    ++h.quarantines;
    count("health.quarantines");
    log::warn("health: switch " + std::to_string(id) +
              " quarantined (trust " + std::to_string(h.trust) + ")");
  } else if (!should && h.quarantined) {
    h.quarantined = false;
    ++h.quarantine_lifts;
    count("health.quarantine_lifts");
    log::info("health: switch " + std::to_string(id) + " quarantine lifted");
  }
}

void KnowledgeHealth::on_cost_observation(SwitchId id, double actual_ms,
                                          double predicted_ms) {
  if (switches_.count(id) == 0) return;  // not a tracked switch
  if (predicted_ms <= 0.0) return;
  const double rel = std::abs(actual_ms / predicted_ms - 1.0);
  if (rel <= kMispredictionTolerance) return;
  auto& h = entry(id);
  ++h.cost_mispredictions;
  count("health.cost_mispredictions");
  penalize(h, id, PropertyKind::kCosts, kSignalPenalty);
}

void KnowledgeHealth::on_readback_mismatch(SwitchId id,
                                           std::size_t mismatches) {
  if (mismatches == 0 || switches_.count(id) == 0) return;
  auto& h = entry(id);
  h.readback_mismatches += mismatches;
  count("health.readback_mismatches", mismatches);
  // A readback mismatch is direct evidence the switch lies about installs:
  // it discredits trust (not a knowledge property), hard.
  h.trust = std::max(
      0.0, h.trust - kSignalPenalty * static_cast<double>(mismatches));
  update_quarantine(h, id);
}

void KnowledgeHealth::on_clean_verified_commit(SwitchId id) {
  if (switches_.count(id) == 0) return;
  auto& h = entry(id);
  count("health.clean_verified_commits");
  h.trust = std::min(1.0, h.trust + kCleanCommitRecovery);
  update_quarantine(h, id);
}

bool KnowledgeHealth::needs_probe(SwitchId id) const {
  const auto it = switches_.find(id);
  if (it == switches_.end()) return false;
  return it->second.prop(PropertyKind::kCosts).signals >= kEscalateAfter;
}

bool KnowledgeHealth::record_spot_check(SwitchId id, double drift) {
  if (switches_.count(id) == 0) return false;
  auto& h = entry(id);
  ++h.spot_checks;
  count("health.spot_checks");
  auto& costs = h.prop(PropertyKind::kCosts);
  if (std::abs(drift) > kSpotCheckTolerance) {
    ++h.drift_confirmed;
    count("health.drift_confirmed");
    costs.confidence = 0.0;  // forces quarantine until re-inference
    update_quarantine(h, id);
    log::warn("health: switch " + std::to_string(id) +
              " drift confirmed by spot check (" + std::to_string(drift) + ")");
    return true;
  }
  // The accumulated signals were noise: absolve the property.
  costs.signals = 0;
  costs.confidence = 1.0;
  update_quarantine(h, id);
  return false;
}

void KnowledgeHealth::mark_reinferred(SwitchId id, PropertyKind kind) {
  if (switches_.count(id) == 0) return;
  auto& h = entry(id);
  ++h.reinferences;
  count("health.reinferences");
  auto& p = h.prop(kind);
  p.confidence = 1.0;
  p.signals = 0;
  // Fresh knowledge restores faith in the switch's behaviour too.
  h.trust = std::max(h.trust, 1.0 - kSignalPenalty);
  update_quarantine(h, id);
}

bool KnowledgeHealth::quarantined(SwitchId id) const {
  const auto it = switches_.find(id);
  return it != switches_.end() && it->second.quarantined;
}

const SwitchHealth* KnowledgeHealth::health(SwitchId id) const {
  const auto it = switches_.find(id);
  return it != switches_.end() ? &it->second : nullptr;
}

}  // namespace tango::core
