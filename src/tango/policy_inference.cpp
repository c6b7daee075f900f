#include "tango/policy_inference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/cluster.h"
#include "stats/correlation.h"

namespace tango::core {

namespace {

using tables::Attribute;
using tables::Direction;
using tables::PolicyKey;

/// Traffic-count spacing between adjacent ranks.
constexpr std::size_t kTrafficSpacing = 4;
/// Priority spacing between adjacent ranks.
constexpr std::uint16_t kPrioritySpacing = 8;
/// |correlation| below this is treated as "no further signal".
constexpr double kMinCorrelation = 0.6;
constexpr std::uint64_t kSeed = 7;

bool contains(const std::vector<PolicyKey>& keys, Attribute attr) {
  return std::any_of(keys.begin(), keys.end(),
                     [&](const PolicyKey& k) { return k.attr == attr; });
}

}  // namespace

AttributeInit make_attribute_init(std::size_t flows, Rng& rng) {
  AttributeInit init;
  init.insertion_rank = rng.permutation(flows);
  init.use_rank = rng.permutation(flows);
  init.traffic_rank = rng.permutation(flows);
  init.priority_rank = rng.permutation(flows);
  return init;
}

PolicyInferenceResult infer_policy(ProbeEngine& probe,
                                   const PolicyInferenceConfig& config) {
  PolicyInferenceResult result;
  Rng rng(kSeed);
  const std::size_t s = 2 * config.cache_size;

  std::vector<PolicyKey> policy;
  for (std::size_t round = 0; round < 4; ++round) {
    ++result.rounds;
    const AttributeInit init = make_attribute_init(s, rng);

    // --- fresh slate ------------------------------------------------------
    probe.clear_rules();

    // --- install in insertion-rank order ----------------------------------
    // Flow with insertion_rank r is the r-th installed (higher rank=newer).
    std::vector<std::uint32_t> by_insert(s);
    for (std::size_t f = 0; f < s; ++f) by_insert[init.insertion_rank[f]] =
        static_cast<std::uint32_t>(f);
    const bool priority_held = contains(policy, Attribute::kPriority);
    for (std::size_t r = 0; r < s; ++r) {
      const std::uint32_t f = by_insert[r];
      const std::uint16_t priority =
          priority_held
              ? static_cast<std::uint16_t>(0x4000)
              : static_cast<std::uint16_t>(
                    1000 + kPrioritySpacing * init.priority_rank[f]);
      probe.install(f, priority);
    }

    // --- traffic-count initialization --------------------------------------
    // Target count for rank r is 2 + spacing*r (equalized when held). The
    // later use-time and measurement passes add exactly one probe to every
    // flow each, preserving the spacing (MONOTONE needs only the sign).
    const bool traffic_held = contains(policy, Attribute::kTrafficCount);
    for (std::size_t f = 0; f < s; ++f) {
      const std::size_t target =
          traffic_held ? 2 : 2 + kTrafficSpacing * init.traffic_rank[f];
      for (std::size_t i = 0; i < target; ++i) {
        probe.probe_flow(static_cast<std::uint32_t>(f));
      }
    }

    // --- use-time initialization -------------------------------------------
    // Probe once per flow, oldest-use rank first, so final use order equals
    // use_rank.
    std::vector<std::uint32_t> by_use(s);
    for (std::size_t f = 0; f < s; ++f) by_use[init.use_rank[f]] =
        static_cast<std::uint32_t>(f);
    for (std::size_t r = 0; r < s; ++r) probe.probe_flow(by_use[r]);

    // --- measurement pass: MRU-first keeps relative use order intact -------
    std::vector<double> rtt_ms(s, 0);
    for (std::size_t r = s; r-- > 0;) {
      const std::uint32_t f = by_use[r];
      rtt_ms[f] = probe.probe_flow(f).ms();
    }

    // --- cached set = the fastest `cached_clusters` RTT bands --------------
    const auto clusters = stats::gap_clusters(rtt_ms);
    std::vector<bool> cached(s, false);
    for (std::size_t f = 0; f < s; ++f) {
      cached[f] = stats::classify(clusters, rtt_ms[f]) < config.cached_clusters;
    }

    // --- correlate each free attribute with membership ---------------------
    struct Candidate {
      Attribute attr;
      const std::vector<std::size_t>* ranks;
    };
    std::vector<Candidate> candidates;
    if (!contains(policy, Attribute::kInsertionTime)) {
      candidates.push_back({Attribute::kInsertionTime, &init.insertion_rank});
    }
    if (!contains(policy, Attribute::kUseTime)) {
      candidates.push_back({Attribute::kUseTime, &init.use_rank});
    }
    if (!traffic_held) {
      candidates.push_back({Attribute::kTrafficCount, &init.traffic_rank});
    }
    if (!priority_held) {
      candidates.push_back({Attribute::kPriority, &init.priority_rank});
    }
    if (candidates.empty()) break;

    double best_corr = 0;
    Attribute best_attr = Attribute::kInsertionTime;
    for (const auto& c : candidates) {
      std::vector<double> xs(s);
      for (std::size_t f = 0; f < s; ++f) xs[f] = static_cast<double>((*c.ranks)[f]);
      const double corr = stats::point_biserial(xs, cached);
      if (std::abs(corr) > std::abs(best_corr)) {
        best_corr = corr;
        best_attr = c.attr;
      }
    }

    if (std::abs(best_corr) < kMinCorrelation) break;  // no signal left

    policy.push_back(PolicyKey{
        best_attr,
        best_corr > 0 ? Direction::kPreferHigh : Direction::kPreferLow});
    result.correlations.push_back(std::abs(best_corr));

    if (tables::is_serial_attribute(best_attr)) break;  // unique values: done
  }

  probe.clear_rules();
  result.policy = tables::LexCachePolicy::lex(std::move(policy));
  return result;
}

}  // namespace tango::core
