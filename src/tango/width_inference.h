// TCAM width / operating-mode inference — an extension Tango pattern.
//
// The paper's conclusion lists "infer other switch capabilities" as future
// work; the clearest gap its own Table 1 exposes is the TCAM *mode*: a
// fixed pool of slots holds 1-slot entries in single-wide mode, charges 2
// slots for everything in double-wide mode, and charges by entry shape in
// adaptive mode (Switch #3). The mode determines how many rules of each
// shape fit, so a scheduler placing L2+L3 rules must know it.
//
// Pattern: fill the switch with L2-only rules (count rejections), then
// L3-only, then L2+L3, clearing in between. Classification:
//
//   wide rules rejected outright            -> single-wide
//   wide capacity == narrow capacity        -> double-wide
//   wide capacity ~= half narrow capacity   -> adaptive
//
// Capacities compare equal within a relative tolerance of 0.15. Switches
// that never reject (software-backed) report their fast-table capacity from
// a latency-clustered sample instead: up to kClusterSamples (1500) probes
// per shape, drawn from an Rng seeded with 42.
#pragma once

#include <cstddef>

#include "tables/tcam.h"
#include "tango/probe_engine.h"

namespace tango::core {

struct WidthInferenceConfig {
  /// Stop filling at this many rules (unbounded-table guard).
  std::size_t max_rules = 6000;
};

struct WidthInferenceResult {
  tables::TcamMode mode = tables::TcamMode::kSingleWide;
  /// Fast-table capacity per shape (rules). 0 = shape unsupported.
  double capacity_l2 = 0;
  double capacity_l3 = 0;
  double capacity_wide = 0;
  /// True when no shape ever hit a boundary (pure software switch); mode
  /// is then meaningless.
  bool unbounded = false;
};

WidthInferenceResult infer_width(ProbeEngine& probe,
                                 const WidthInferenceConfig& config = {});

}  // namespace tango::core
