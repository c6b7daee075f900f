#include "stats/correlation.h"

#include <cassert>
#include <cmath>
#include <vector>

namespace tango::stats {

double pearson(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) { mx += xs[i]; my += ys[i]; }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

double point_biserial(std::span<const double> xs, const std::vector<bool>& cached) {
  assert(xs.size() == cached.size());
  std::vector<double> ys(cached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) ys[i] = cached[i] ? 1.0 : 0.0;
  return pearson(xs, ys);
}

}  // namespace tango::stats
