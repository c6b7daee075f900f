// Correlation measures used by the cache-policy inference (paper Algorithm 2):
// the engine correlates each flow attribute with the observed cached/evicted
// outcome and picks the attribute with the strongest |correlation| as the
// next key of the lexicographic eviction order.
#pragma once

#include <span>
#include <vector>

namespace tango::stats {

/// Pearson product-moment correlation; 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Point-biserial correlation between a continuous attribute and a binary
/// outcome (cached = 1, evicted = 0). Equivalent to Pearson with 0/1 ys.
double point_biserial(std::span<const double> xs, const std::vector<bool>& cached);

}  // namespace tango::stats
