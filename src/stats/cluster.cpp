#include "stats/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tango::stats {

namespace {

/// Least ratio between adjacent tier centers.
constexpr double kMinCenterRatio = 1.35;
/// Least absolute gap between adjacent tier centers.
constexpr double kMinGapAbs = 1e-6;

}  // namespace

std::vector<Cluster> gap_clusters(std::span<const double> samples) {
  std::vector<Cluster> out;
  if (samples.empty()) return out;

  // Over-cluster, then merge neighbours that are not tier-separated.
  const std::size_t k = std::min<std::size_t>(6, samples.size());
  auto fine = kmeans_1d(samples, k);

  out.push_back(fine[0]);
  for (std::size_t i = 1; i < fine.size(); ++i) {
    Cluster& prev = out.back();
    const Cluster& cur = fine[i];
    const double lo = std::max(prev.center, kMinGapAbs);
    const bool separated = cur.center >= lo * kMinCenterRatio &&
                           cur.center - prev.center >= kMinGapAbs;
    if (separated) {
      out.push_back(cur);
    } else {
      // Merge cur into prev.
      const double total = static_cast<double>(prev.count + cur.count);
      prev.center = (prev.center * static_cast<double>(prev.count) +
                     cur.center * static_cast<double>(cur.count)) /
                    total;
      prev.lo = std::min(prev.lo, cur.lo);
      prev.hi = std::max(prev.hi, cur.hi);
      prev.count += cur.count;
    }
  }
  return out;
}

std::vector<Cluster> kmeans_1d(std::span<const double> samples, std::size_t k,
                               std::size_t max_iters) {
  std::vector<Cluster> out;
  if (samples.empty() || k == 0) return out;
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  k = std::min(k, v.size());

  // Seed centers at evenly spaced quantiles.
  std::vector<double> centers(k);
  for (std::size_t j = 0; j < k; ++j) {
    centers[j] = v[(v.size() - 1) * (2 * j + 1) / (2 * k)];
  }

  std::vector<std::size_t> assign(v.size(), 0);
  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t j = 0; j < k; ++j) {
        const double d = std::abs(v[i] - centers[j]);
        if (d < best_d) { best_d = d; best = j; }
      }
      if (assign[i] != best) { assign[i] = best; changed = true; }
    }
    std::vector<double> sum(k, 0);
    std::vector<std::size_t> cnt(k, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      sum[assign[i]] += v[i];
      ++cnt[assign[i]];
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (cnt[j] > 0) centers[j] = sum[j] / static_cast<double>(cnt[j]);
    }
    if (!changed) break;
  }

  for (std::size_t j = 0; j < k; ++j) {
    Cluster c;
    c.lo = std::numeric_limits<double>::max();
    c.hi = std::numeric_limits<double>::lowest();
    double s = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (assign[i] != j) continue;
      c.lo = std::min(c.lo, v[i]);
      c.hi = std::max(c.hi, v[i]);
      s += v[i];
      ++c.count;
    }
    if (c.count == 0) continue;  // empty cluster: drop
    c.center = s / static_cast<double>(c.count);
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const Cluster& a, const Cluster& b) { return a.center < b.center; });
  return out;
}

std::size_t classify(const std::vector<Cluster>& clusters, double x) {
  if (clusters.empty()) return std::numeric_limits<std::size_t>::max();
  // Containment first (with a small relative widening), then nearest center.
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    const double width = std::max(clusters[j].hi - clusters[j].lo,
                                  0.25 * clusters[j].center);
    if (x >= clusters[j].lo - width * 0.5 && x <= clusters[j].hi + width * 0.5) {
      return j;
    }
  }
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t j = 0; j < clusters.size(); ++j) {
    const double d = std::abs(x - clusters[j].center);
    if (d < best_d) { best_d = d; best = j; }
  }
  return best;
}

}  // namespace tango::stats
