// Flow-table size inference — the paper's Algorithm 1 (§5.2).
//
// Stage 1: insert probe rules in doubling batches, sending one probe packet
//          per inserted rule (so the caches contain no wasted slots), until
//          the switch rejects an insert or the configured cap is reached.
//          Every rule gets ProbeEngine::install's priority 0x8000: one
//          constant priority keeps the probing itself cheap and does not
//          bias priority-sensitive caches.
// Stage 2: probe kClusterSamples (1500) installed rules and cluster the
//          RTTs — one cluster per flow-table layer.
// Stage 3: for each layer except the slowest, k = 200 times sample a random
//          rule and count consecutive probes that stay inside the layer's
//          RTT cluster. The run lengths are Negative-Binomial; the MLE
//          p_hat = sum(X)/(k + sum(X)) gives layer size n_hat = m * p_hat.
//
// The procedure is asymptotically optimal: O(n) rule installs in
// O(log n) batches and O(n) probe packets.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "stats/cluster.h"
#include "tango/probe_engine.h"

namespace tango::core {

/// Stage-2 sample size (probes clustered into latency bands). Width
/// inference samples at most this many probes per rule shape.
inline constexpr std::size_t kClusterSamples = 1500;

struct SizeInferenceConfig {
  /// Cap on installed rules for switches that never reject (software
  /// tables are "virtually unlimited"; we stop probing at this point).
  std::size_t max_rules = 8192;
  /// true (default): pool every probe observation into per-layer counts —
  /// a lower-variance refinement of the same statistic. false: use the
  /// paper's literal per-trial Negative-Binomial MLE only (compare both
  /// with bench_ablation_estimator).
  bool pooled_estimator = true;
  std::uint64_t seed = 42;
};

struct SizeInferenceResult {
  /// m: rules successfully installed.
  std::size_t installed = 0;
  /// True when stage 1 ended at max_rules rather than a rejection —
  /// i.e. the deepest table is effectively unbounded.
  bool hit_rule_cap = false;
  /// RTT clusters, fastest first (one per flow-table layer observed).
  std::vector<stats::Cluster> clusters;
  /// Estimated layer sizes, fastest first. The slowest layer's size is
  /// reported as the remainder m - sum(previous) (exact when the switch
  /// rejected at capacity; "unbounded" when hit_rule_cap).
  std::vector<double> layer_sizes;
  /// Probing overhead: messages sent to the switch during inference.
  std::uint64_t messages_used = 0;
  std::uint64_t probe_packets = 0;
  /// Probe packets lost (and re-sent by the engine) during inference.
  /// Non-zero only under fault injection.
  std::size_t probe_losses = 0;
  /// 95% confidence half-width per layer estimate (same indexing as
  /// layer_sizes; the slowest layer, being a remainder, gets the sum of
  /// the others). Widened by sqrt(1 + loss_rate) when probes were lost:
  /// re-sent probes are fresh iid draws, but loss correlates weakly with
  /// channel state, so the interval is inflated rather than trusted.
  std::vector<double> layer_ci_halfwidth;
};

SizeInferenceResult infer_sizes(ProbeEngine& probe,
                                const SizeInferenceConfig& config = {});

}  // namespace tango::core
