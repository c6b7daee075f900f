// One-dimensional clustering of round-trip-time samples.
//
// The Tango size-probing algorithm (paper Algorithm 1, stage 2) clusters the
// RTTs of probe packets to count how many flow-table layers a switch has:
// each latency cluster corresponds to one layer (TCAM fast path, kernel
// table, user-space slow path, control path). The layers are separated by
// large latency multiples, so we use a gap-splitting heuristic with a
// k-means refinement; both pieces are exposed for testing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tango::stats {

struct Cluster {
  double lo = 0;       ///< smallest member
  double hi = 0;       ///< largest member
  double center = 0;   ///< mean of members
  std::size_t count = 0;
};

/// Cluster latency samples into tiers. Over-cluster with k-means (k up to
/// 6), then merge adjacent clusters whose centers are not separated by a
/// factor of at least 1.35 (flow-table tiers differ multiplicatively: TCAM
/// vs software vs controller are ~1.5x apart or more) and by at least 1e-6
/// in absolute terms.
std::vector<Cluster> gap_clusters(std::span<const double> samples);

/// Classic 1-D k-means (Lloyd's) with deterministic quantile seeding.
std::vector<Cluster> kmeans_1d(std::span<const double> samples, std::size_t k,
                               std::size_t max_iters = 64);

/// Index of the cluster whose range (widened by tolerance) contains x;
/// falls back to the nearest center. Returns SIZE_MAX on empty input.
std::size_t classify(const std::vector<Cluster>& clusters, double x);

}  // namespace tango::stats
