#include "tango/width_inference.h"

#include <cmath>

#include "tango/size_inference.h"

namespace tango::core {

namespace {

/// Relative tolerance when comparing per-shape capacities.
constexpr double kTolerance = 0.15;
constexpr std::uint64_t kSampleSeed = 42;

/// Capacity of the fast table for one rule shape: direct fill when the
/// switch rejects at capacity; size inference (latency clustering) when a
/// software table absorbs the overflow.
double shape_capacity(ProbeEngine& probe, RuleShape shape,
                      const WidthInferenceConfig& config, bool* unbounded) {
  probe.clear_rules();
  std::size_t accepted = 0;
  bool rejected = false;
  for (std::size_t i = 0; i < config.max_rules; ++i) {
    if (!probe.install(static_cast<std::uint32_t>(i), 0x8000, shape)) {
      rejected = true;
      break;
    }
    ++accepted;
    // Warm placement, exactly as Algorithm 1's stage 1 does: guarantees no
    // wasted cache slots and that later samples of this flow hit its
    // steady-state tier (OVS microflows in particular).
    probe.network().probe(probe.switch_id(),
                          ProbeEngine::probe_packet(static_cast<std::uint32_t>(i), shape));
  }
  if (rejected) {
    probe.clear_rules();
    *unbounded = false;
    return static_cast<double>(accepted);
  }

  // No rejection: the overflow went somewhere slower. Probe a sample and
  // use the fast-cluster occupancy estimate (Algorithm 1's machinery with
  // this shape's packets).
  Rng rng(kSampleSeed);
  std::vector<double> rtts;
  const std::size_t samples = std::min(kClusterSamples, 4 * accepted);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.index(accepted));
    rtts.push_back(
        probe.network().probe(probe.switch_id(), ProbeEngine::probe_packet(f, shape))
            .rtt.ms());
  }
  probe.clear_rules();
  const auto clusters = stats::gap_clusters(rtts);
  if (clusters.size() <= 1) {
    *unbounded = true;  // one band: never crossed a boundary
    return static_cast<double>(accepted);
  }
  *unbounded = false;
  // Fast-band fraction of the sample estimates the fast-table share.
  return static_cast<double>(accepted) *
         static_cast<double>(clusters.front().count) /
         static_cast<double>(rtts.size());
}

bool within(double a, double b) {
  if (a == 0 || b == 0) return a == b;
  return std::abs(a - b) / std::max(a, b) <= kTolerance;
}

}  // namespace

WidthInferenceResult infer_width(ProbeEngine& probe,
                                 const WidthInferenceConfig& config) {
  WidthInferenceResult result;
  bool unbounded_l2 = false, unbounded_l3 = false, unbounded_wide = false;
  result.capacity_l2 = shape_capacity(probe, RuleShape::kL2Only, config, &unbounded_l2);
  result.capacity_l3 = shape_capacity(probe, RuleShape::kL3Only, config, &unbounded_l3);
  result.capacity_wide =
      shape_capacity(probe, RuleShape::kL2AndL3, config, &unbounded_wide);

  if (unbounded_l2 && unbounded_l3 && unbounded_wide) {
    result.unbounded = true;
    return result;
  }

  const double narrow = std::max(result.capacity_l2, result.capacity_l3);
  if (result.capacity_wide == 0 || unbounded_wide) {
    // Wide entries rejected outright — or never reached the fast table at
    // all (a software tier silently absorbed every one of them, so their
    // RTTs formed a single slow band): the hardware packs one layer per
    // slot.
    result.mode = tables::TcamMode::kSingleWide;
    result.capacity_wide = 0;
  } else if (within(result.capacity_wide, narrow)) {
    // Every shape costs the same -> all slots are pre-paired.
    result.mode = tables::TcamMode::kDoubleWide;
  } else if (within(result.capacity_wide, narrow / 2)) {
    result.mode = tables::TcamMode::kAdaptive;
  } else {
    // Between the two: closest match wins.
    result.mode = std::abs(result.capacity_wide - narrow) <
                          std::abs(result.capacity_wide - narrow / 2)
                      ? tables::TcamMode::kDoubleWide
                      : tables::TcamMode::kAdaptive;
  }
  return result;
}

}  // namespace tango::core
