#include "tango/latency_profiler.h"

#include <algorithm>

namespace tango::core {

namespace {

/// Rules per timed batch on an unbounded table.
constexpr std::size_t kBatchSize = 500;
/// Rules preinstalled before each timed add batch on an unbounded table.
constexpr std::size_t kPreinstalled = 1000;
/// Lowest priority of the preinstalled rules.
constexpr std::uint16_t kPreinstallBase = 1000;
constexpr std::uint64_t kSeed = 11;
/// Descending/ascending add-cost ratio from which priority order matters.
constexpr double kPrioritySensitiveRatio = 1.5;

}  // namespace

double OpCostEstimate::best_add_ms() const {
  return std::min({add_ascending_ms, add_same_priority_ms});
}

bool OpCostEstimate::priority_sensitive() const {
  if (add_ascending_ms <= 0) return false;
  return add_descending_ms / add_ascending_ms >= kPrioritySensitiveRatio;
}

std::vector<of::FlowMod> make_add_batch(std::uint32_t first_index,
                                        std::size_t count,
                                        const std::vector<std::uint16_t>& priorities) {
  std::vector<of::FlowMod> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ProbeEngine::probe_add(first_index + static_cast<std::uint32_t>(i),
                                         priorities[i % priorities.size()]));
  }
  return out;
}

std::vector<std::uint16_t> ascending_priorities(std::size_t count,
                                                std::uint16_t base) {
  std::vector<std::uint16_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<std::uint16_t>(base + i);
  }
  return out;
}

std::vector<std::uint16_t> descending_priorities(std::size_t count,
                                                 std::uint16_t base) {
  auto out = ascending_priorities(count, base);
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<std::uint16_t> constant_priorities(std::size_t count, std::uint16_t value) {
  return std::vector<std::uint16_t>(count, value);
}

std::vector<std::uint16_t> random_priorities(std::size_t count, Rng& rng,
                                             std::uint16_t base) {
  auto out = ascending_priorities(count, base);
  rng.shuffle(out);
  return out;
}

namespace {

/// Time an add batch against a fresh slate with `preinstalled` random-
/// priority rules in place, then clean up. Returns ms per rule.
double timed_add_run(ProbeEngine& probe, std::size_t preinstalled,
                     const std::vector<std::uint16_t>& priorities, Rng& rng,
                     ScoreDb* scores, const std::string& name) {
  probe.clear_rules();
  auto pre = random_priorities(preinstalled, rng, kPreinstallBase);
  probe.timed_batch(make_add_batch(0, preinstalled, pre));

  TangoPattern pattern;
  pattern.name = name;
  pattern.commands = make_add_batch(static_cast<std::uint32_t>(preinstalled),
                                    priorities.size(), priorities);
  const auto m = probe.apply(pattern, scores);
  return m.install_time.ms() / static_cast<double>(priorities.size());
}

}  // namespace

OpCostEstimate profile_op_costs(ProbeEngine& probe, std::size_t capacity,
                                ScoreDb* scores) {
  OpCostEstimate est;
  Rng rng(kSeed);
  std::size_t batch = kBatchSize;
  std::size_t preinstalled = kPreinstalled;
  if (capacity > 0) {
    preinstalled = std::min(preinstalled, capacity / 2);
    batch = std::min(batch, std::max<std::size_t>(1, capacity / 3));
  }

  // Priority ranges relative to the preinstalled rules expose the TCAM
  // physics: ascending/same-priority batches append above everything (no
  // shifts); the descending batch sinks below every preinstalled entry
  // (maximal shifts); the random batch lands amid them (about half).
  static_assert(kBatchSize + 1 < kPreinstallBase);
  const auto asc_base =
      static_cast<std::uint16_t>(kPreinstallBase + preinstalled + 100);
  const auto desc_base = static_cast<std::uint16_t>(kPreinstallBase - batch - 1);
  est.add_ascending_ms =
      timed_add_run(probe, preinstalled, ascending_priorities(batch, asc_base),
                    rng, scores, "add.ascending");
  est.add_descending_ms = timed_add_run(
      probe, preinstalled, descending_priorities(batch, desc_base), rng, scores,
      "add.descending");
  est.add_same_priority_ms =
      timed_add_run(probe, preinstalled, constant_priorities(batch), rng,
                    scores, "add.same_priority");
  est.add_random_ms = timed_add_run(
      probe, preinstalled, random_priorities(batch, rng, kPreinstallBase), rng,
      scores, "add.random");

  // Modify / delete: against the random-order table left by the last run.
  {
    std::vector<of::FlowMod> mods;
    mods.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      auto fm = ProbeEngine::probe_add(
          static_cast<std::uint32_t>(preinstalled + i), 0x8000);
      fm.command = of::FlowModCommand::kModify;
      fm.actions = of::output_to(3);
      mods.push_back(std::move(fm));
    }
    TangoPattern pattern;
    pattern.name = "mod.existing";
    pattern.commands = std::move(mods);
    est.mod_ms = probe.apply(pattern, scores).install_time.ms() /
                 static_cast<double>(batch);
  }
  {
    std::vector<of::FlowMod> dels;
    dels.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      auto fm = ProbeEngine::probe_add(
          static_cast<std::uint32_t>(preinstalled + i), 0x8000);
      fm.command = of::FlowModCommand::kDelete;
      dels.push_back(std::move(fm));
    }
    TangoPattern pattern;
    pattern.name = "del.existing";
    pattern.commands = std::move(dels);
    est.del_ms = probe.apply(pattern, scores).install_time.ms() /
                 static_cast<double>(batch);
  }

  probe.clear_rules();
  return est;
}

}  // namespace tango::core
