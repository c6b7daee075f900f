// Cache-replacement-policy inference — the paper's Algorithm 2 (§5.3).
//
// The engine installs 2 * cache_size probe flows and initializes each
// candidate attribute (insertion time, use time, traffic count, priority)
// to an independent permutation of ranks, so that no attribute's top half
// coincides with another's. After a measurement pass (probing in
// most-recently-used-first order, which preserves the relative use-time
// ordering at every measurement instant), the flows whose RTT falls in the
// fastest cluster are the cached set; the attribute whose ranks correlate
// most strongly (positively or negatively) with membership is the policy's
// primary sort key. Non-serial keys (priority, traffic) are then held
// constant and the procedure recurses to find tie-break keys; serial keys
// (insertion, use time) are unique by construction, so recursion stops.
//
// Adjacent ranks are 4 traffic probes and 8 priority values apart, and the
// ranks are drawn from an Rng seeded with 7. Any traffic spacing of 2 or
// more works: every flow gets one use-time probe, and at each measurement
// instant a flow has had at most one measurement probe more than another,
// so adjacent ranks never tie or swap, and a MONOTONE policy reads only the
// order of the counts. A key is accepted only at |correlation| >= 0.6: when
// a traffic-count key has been held constant (equalized), the measurement
// probes themselves perturb the equalized counts, which induces spurious
// weak correlations on the remaining attributes — genuine sort keys show
// |r| near 0.9 under this pattern, so anything far below is noise.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "tables/cache_policy.h"
#include "tango/probe_engine.h"

namespace tango::core {

struct PolicyInferenceConfig {
  /// Ground cache size (level-0 capacity), usually from size inference.
  std::size_t cache_size = 100;
  /// Number of leading RTT clusters treated as "cached" when computing
  /// membership. 1 infers the policy at the fastest-table boundary; k > 1
  /// infers the policy governing the top k tiers of a multi-level cache
  /// (cache_size must then be the combined capacity of those tiers).
  std::size_t cached_clusters = 1;
};

struct PolicyInferenceResult {
  tables::LexCachePolicy policy;
  /// |correlation| achieved per inferred key (diagnostic).
  std::vector<double> correlations;
  /// Number of recursion rounds executed.
  std::size_t rounds = 0;
};

/// Initialized per-flow attribute ranks for one probing round; exposed so
/// the Fig 6 bench can visualize the pattern.
struct AttributeInit {
  std::vector<std::size_t> insertion_rank;  // position in install order
  std::vector<std::size_t> use_rank;        // position in use-time order
  std::vector<std::size_t> traffic_rank;
  std::vector<std::size_t> priority_rank;
};

AttributeInit make_attribute_init(std::size_t flows, Rng& rng);

PolicyInferenceResult infer_policy(ProbeEngine& probe,
                                   const PolicyInferenceConfig& config = {});

}  // namespace tango::core
