#include "tango/size_inference.h"

#include <algorithm>
#include <cmath>

#include "stats/estimators.h"

namespace tango::core {

namespace {

/// k: sampling trials per layer in stage 3.
constexpr std::size_t kTrialsPerLevel = 200;

}  // namespace

SizeInferenceResult infer_sizes(ProbeEngine& probe,
                                const SizeInferenceConfig& config) {
  SizeInferenceResult result;
  Rng rng(config.seed);
  const auto stats_before = probe.overhead();
  const std::size_t losses_before =
      probe.lost_probes() + probe.abandoned_probes();

  // --- Stage 1: doubling installs, one warming probe per rule -------------
  bool cache_full = false;
  std::size_t x = 1;
  std::size_t installed = 0;
  while (!cache_full && installed < config.max_rules) {
    const std::size_t target = std::min(x, config.max_rules);
    for (std::size_t i = installed; i < target; ++i) {
      if (!probe.install(static_cast<std::uint32_t>(i))) {
        cache_full = true;
        break;
      }
      ++installed;
      probe.probe_flow(static_cast<std::uint32_t>(i));
    }
    x *= 2;
  }
  result.installed = installed;
  result.hit_rule_cap = !cache_full;
  if (installed == 0) return result;
  const std::size_t m = installed;

  // --- Stage 2: cluster sampled RTTs into layers ---------------------------
  std::vector<double> rtts_ms;
  rtts_ms.reserve(kClusterSamples);
  for (std::size_t i = 0; i < kClusterSamples; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.index(m));
    rtts_ms.push_back(probe.probe_flow(f).ms());
  }
  result.clusters = stats::gap_clusters(rtts_ms);
  const std::size_t n_levels = result.clusters.size();

  // Every probe of a uniformly random installed flow is an iid draw whose
  // layer is Bernoulli(n_level / m): pool stage-2 samples and every stage-3
  // probe into per-layer counts for a lower-variance final estimate (the
  // per-trial run lengths still drive the paper's NB-MLE, kept as a
  // cross-check in `runs`).
  std::vector<std::size_t> level_counts(n_levels, 0);
  std::size_t pooled_probes = 0;
  for (double rtt : rtts_ms) {
    const std::size_t level = stats::classify(result.clusters, rtt);
    if (level < n_levels) {
      ++level_counts[level];
      ++pooled_probes;
    }
  }

  // --- Stage 3: per-layer Negative-Binomial run sampling -------------------
  result.layer_sizes.assign(n_levels, 0.0);
  std::vector<double> nb_only(n_levels, 0.0);
  for (std::size_t level = 0; level + 1 < n_levels; ++level) {
    std::vector<std::size_t> runs;
    runs.reserve(kTrialsPerLevel);
    for (std::size_t trial = 0; trial < kTrialsPerLevel; ++trial) {
      std::size_t j = 0;
      auto f = static_cast<std::uint32_t>(rng.index(m));
      double rtt = probe.probe_flow(f).ms();
      {
        const std::size_t at = stats::classify(result.clusters, rtt);
        if (at < n_levels) {
          ++level_counts[at];
          ++pooled_probes;
        }
      }
      while (stats::classify(result.clusters, rtt) == level && j < m) {
        ++j;
        f = static_cast<std::uint32_t>(rng.index(m));
        rtt = probe.probe_flow(f).ms();
        const std::size_t at = stats::classify(result.clusters, rtt);
        if (at < n_levels) {
          ++level_counts[at];
          ++pooled_probes;
        }
      }
      if (j == m) break;  // practically everything lives in this layer
      runs.push_back(j);
    }
    nb_only[level] = stats::estimate_layer_size(m, runs);
  }

  double accounted = 0;
  for (std::size_t level = 0; level + 1 < n_levels; ++level) {
    if (config.pooled_estimator) {
      result.layer_sizes[level] =
          pooled_probes == 0
              ? 0.0
              : static_cast<double>(m) *
                    static_cast<double>(level_counts[level]) /
                    static_cast<double>(pooled_probes);
    } else {
      result.layer_sizes[level] = nb_only[level];
    }
    accounted += result.layer_sizes[level];
  }
  if (n_levels > 0) {
    // Slowest layer: the remainder. Exact when stage 1 hit a rejection.
    result.layer_sizes[n_levels - 1] =
        std::max(0.0, static_cast<double>(m) - accounted);
  }

  const auto stats_after = probe.overhead();
  result.messages_used =
      stats_after.messages_to_switch - stats_before.messages_to_switch;
  result.probe_packets = stats_after.packets_out - stats_before.packets_out;
  result.probe_losses =
      probe.lost_probes() + probe.abandoned_probes() - losses_before;

  // 95% CI per layer from the pooled Bernoulli estimate, inflated by
  // sqrt(1 + loss_rate) when the channel lost probes along the way.
  result.layer_ci_halfwidth.assign(n_levels, 0.0);
  if (pooled_probes > 0) {
    const double total_attempts =
        static_cast<double>(pooled_probes + result.probe_losses);
    const double loss_rate =
        total_attempts > 0 ? static_cast<double>(result.probe_losses) / total_attempts
                           : 0.0;
    const double widen = std::sqrt(1.0 + loss_rate);
    double others = 0.0;
    for (std::size_t level = 0; level + 1 < n_levels; ++level) {
      const double p = static_cast<double>(level_counts[level]) /
                       static_cast<double>(pooled_probes);
      const double se = std::sqrt(p * (1.0 - p) /
                                  static_cast<double>(pooled_probes));
      result.layer_ci_halfwidth[level] =
          1.96 * static_cast<double>(m) * se * widen;
      others += result.layer_ci_halfwidth[level];
    }
    // The remainder layer inherits the combined uncertainty of the others.
    result.layer_ci_halfwidth[n_levels - 1] = others;
  }
  return result;
}

}  // namespace tango::core
