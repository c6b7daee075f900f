#include "tango/tango.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace tango::core {

std::size_t SwitchKnowledge::fast_table_size() const {
  if (sizes.layer_sizes.empty()) return 0;
  if (sizes.clusters.size() == 1 && sizes.hit_rule_cap) return 0;  // unbounded
  return static_cast<std::size_t>(std::llround(sizes.layer_sizes.front()));
}

std::string SwitchKnowledge::summary() const {
  std::string out = name + ": layers=[";
  for (std::size_t i = 0; i < sizes.layer_sizes.size(); ++i) {
    if (i > 0) out += ", ";
    const bool last_unbounded = sizes.hit_rule_cap && i + 1 == sizes.layer_sizes.size();
    if (last_unbounded) {
      out += ">" + std::to_string(static_cast<long long>(sizes.layer_sizes[i]));
    } else {
      out += std::to_string(static_cast<long long>(std::llround(sizes.layer_sizes[i])));
    }
  }
  out += "]";
  if (policy.has_value()) {
    out += " policy={" + policy->policy.describe() + "}";
  }
  if (width.has_value() && !width->unbounded) {
    out += " tcam=" + tables::to_string(width->mode);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                " add[asc %.3f, desc %.3f, same %.3f, rand %.3f] mod %.3f del "
                "%.3f (ms/rule)",
                costs.add_ascending_ms, costs.add_descending_ms,
                costs.add_same_priority_ms, costs.add_random_ms, costs.mod_ms,
                costs.del_ms);
  out += buf;
  return out;
}

namespace {

/// Rules a spot_check() probe installs and removes.
constexpr std::size_t kSpotCheckBatch = 50;
/// Cost-hint inflation for a quarantined switch (conservative fallback).
constexpr double kConservativeFactor = 3.0;

/// Infer property `kind` of `know` over `probe`, leaving the probe rules in
/// place. learn() runs this step for each property it infers, reinfer()
/// for one.
void infer_property(ProbeEngine& probe, SwitchKnowledge& know,
                    PropertyKind kind, const LearnOptions& options,
                    ScoreDb& scores) {
  switch (kind) {
    case PropertyKind::kSizes:
      know.sizes = infer_sizes(probe, options.size);
      break;
    case PropertyKind::kPolicy: {
      const std::size_t fast = [&]() -> std::size_t {
        if (know.sizes.layer_sizes.empty()) return 0;
        if (know.sizes.clusters.size() <= 1) return 0;
        return static_cast<std::size_t>(
            std::llround(know.sizes.layer_sizes.front()));
      }();
      if (fast > 0 && fast <= options.max_policy_cache_size) {
        PolicyInferenceConfig pc;
        pc.cache_size = fast;
        know.policy = infer_policy(probe, pc);
      }
      break;
    }
    case PropertyKind::kCosts: {
      // Size the profiling batches to the switch: the probe workload must
      // fit inside a bounded table or every measurement would just be
      // rejections.
      auto latency_config = options.latency;
      std::size_t total_capacity = 0;
      if (!know.sizes.hit_rule_cap) total_capacity = know.sizes.installed;
      if (total_capacity > 0) {
        latency_config.preinstalled =
            std::min(latency_config.preinstalled, total_capacity / 2);
        latency_config.batch_size =
            std::min(latency_config.batch_size,
                     std::max<std::size_t>(1, total_capacity / 3));
      }
      know.costs = profile_op_costs(probe, latency_config, &scores);
      break;
    }
    case PropertyKind::kWidth: {
      WidthInferenceConfig wc;
      wc.size = options.size;
      wc.max_rules = std::max<std::size_t>(options.size.max_rules, 256);
      know.width = infer_width(probe, wc);
      break;
    }
  }
}

}  // namespace

const SwitchKnowledge& TangoController::learn(SwitchId id,
                                              const LearnOptions& options) {
  if (const auto it = knowledge_.find(id); it != knowledge_.end()) {
    return it->second;
  }
  SwitchKnowledge know;
  know.switch_id = id;
  know.name = network_.sw(id).profile().name;

  // Policy and cost inference read the inferred sizes, so sizes go first.
  ProbeEngine probe(network_, id);
  probe.clear_rules();
  infer_property(probe, know, PropertyKind::kSizes, options, scores_);
  probe.clear_rules();
  if (options.infer_policy) {
    infer_property(probe, know, PropertyKind::kPolicy, options, scores_);
  }
  probe.clear_rules();
  infer_property(probe, know, PropertyKind::kCosts, options, scores_);
  probe.clear_rules();
  if (options.infer_width) {
    infer_property(probe, know, PropertyKind::kWidth, options, scores_);
    probe.clear_rules();
  }

  auto [it, _] = knowledge_.emplace(id, std::move(know));
  health_.set_telemetry(network_.telemetry());
  health_.track(id);
  return it->second;
}

const SwitchKnowledge& TangoController::adopt(SwitchKnowledge know) {
  const SwitchId id = know.switch_id;
  auto [it, _] = knowledge_.insert_or_assign(id, std::move(know));
  health_.set_telemetry(network_.telemetry());
  health_.track(id);
  return it->second;
}

const SwitchKnowledge& TangoController::reinfer(SwitchId id, PropertyKind kind,
                                                const LearnOptions& options) {
  const auto it = knowledge_.find(id);
  if (it == knowledge_.end()) return learn(id, options);
  SwitchKnowledge& know = it->second;

  ProbeEngine probe(network_, id);
  probe.clear_rules();
  infer_property(probe, know, kind, options, scores_);
  probe.clear_rules();
  health_.mark_reinferred(id, kind);
  return know;
}

std::vector<SentinelAction> TangoController::run_sentinel(
    const LearnOptions& options, bool force_probe) {
  health_.set_telemetry(network_.telemetry());
  std::vector<SentinelAction> actions;
  for (auto& [id, know] : knowledge_) {
    if (!force_probe && !health_.needs_probe(id)) continue;
    SentinelAction act;
    act.switch_id = id;
    act.drift = spot_check(id);
    if (act.drift < 0) {
      // No usable learned cost to compare against; nothing to record.
      act.quarantined = health_.quarantined(id);
      actions.push_back(act);
      continue;
    }
    act.probed = true;
    act.confirmed = health_.record_spot_check(id, act.drift);
    if (act.confirmed) {
      reinfer(id, PropertyKind::kCosts, options);
      act.reinferred = true;
    }
    act.quarantined = health_.quarantined(id);
    actions.push_back(act);
  }
  return actions;
}

double TangoController::spot_check(SwitchId id) {
  const auto it = knowledge_.find(id);
  if (it == knowledge_.end()) return -1.0;
  const double learned_ms = it->second.costs.add_ascending_ms;
  if (learned_ms <= 0) return -1.0;

  ProbeEngine probe(network_, id);
  // A fresh high-priority band so the batch appends (ascending regime) and
  // is trivially removable afterwards.
  const auto priorities = ascending_priorities(kSpotCheckBatch, 0x7000);
  const std::uint32_t first = 0x00f00000;  // away from workload flow ids
  const auto elapsed =
      probe.timed_batch(make_add_batch(first, kSpotCheckBatch, priorities));
  // Clean up the probe rules only.
  std::vector<of::FlowMod> dels;
  for (std::size_t i = 0; i < kSpotCheckBatch; ++i) {
    auto fm = ProbeEngine::probe_add(first + static_cast<std::uint32_t>(i));
    fm.command = of::FlowModCommand::kDelete;
    dels.push_back(std::move(fm));
  }
  probe.timed_batch(dels);

  // The delete batch travels over the same lossy channel as everything
  // else: under an active fault injector some deletes can vanish after the
  // barrier reply made it back, leaking probe rules into the workload's
  // table. Verify by readback and re-issue deletes for survivors.
  using ProbeRules =
      std::unordered_map<sched::RuleKey, std::uint32_t, sched::RuleKeyHash>;
  ProbeRules expect;
  for (std::size_t i = 0; i < kSpotCheckBatch; ++i) {
    const auto idx = first + static_cast<std::uint32_t>(i);
    expect.emplace(sched::RuleKey(ProbeEngine::probe_match(idx), priorities[i]),
                   idx);
  }
  for (std::size_t round = 0; round < 8 && !expect.empty(); ++round) {
    const auto reply = network_.try_flow_stats(id, of::Match::any(), millis(200));
    if (!reply.has_value()) continue;  // readback lost; try again
    ProbeRules survivors;
    std::vector<of::FlowMod> redel;
    for (const auto& entry : reply->entries) {
      const auto hit = expect.find(sched::RuleKey(entry.match, entry.priority));
      if (hit == expect.end()) continue;
      survivors.insert(*hit);
      auto fm = ProbeEngine::probe_add(hit->second);
      fm.command = of::FlowModCommand::kDelete;
      redel.push_back(std::move(fm));
    }
    expect = std::move(survivors);  // absent from readback = already gone
    if (!expect.empty()) probe.timed_batch(redel);
  }

  const double measured_ms =
      elapsed.ms() / static_cast<double>(kSpotCheckBatch);
  return std::abs(measured_ms / learned_ms - 1.0);
}

const SwitchKnowledge& TangoController::refresh(SwitchId id,
                                                const LearnOptions& options) {
  knowledge_.erase(id);
  return learn(id, options);
}

const SwitchKnowledge* TangoController::knowledge(SwitchId id) const {
  const auto it = knowledge_.find(id);
  return it == knowledge_.end() ? nullptr : &it->second;
}

sched::UpdateTransaction TangoController::begin_update(
    sched::RequestDag dag, sched::TransactionOptions options) {
  health_.set_telemetry(network_.telemetry());
  for (const auto& [id, know] : knowledge_) {
    if (health_.quarantined(id)) {
      // Conservative fallback for a switch we no longer trust: inflate the
      // cost estimates (schedulers pace themselves accordingly) and require
      // a readback-verified commit. Overrides caller-supplied hints — a
      // quarantine is not negotiable.
      OpCostEstimate conservative = know.costs;
      conservative.add_ascending_ms *= kConservativeFactor;
      conservative.add_descending_ms *= kConservativeFactor;
      conservative.add_same_priority_ms *= kConservativeFactor;
      conservative.add_random_ms *= kConservativeFactor;
      conservative.mod_ms *= kConservativeFactor;
      conservative.del_ms *= kConservativeFactor;
      options.exec.cost_hints.insert_or_assign(id, conservative);
      options.readback_verify.insert(id);
    } else {
      options.exec.cost_hints.emplace(id, know.costs);
    }
  }

  // Chain the executor's cost observations into the health layer. The
  // predicted value fed to health is recomputed from the TRUE learned
  // costs, not the (possibly inflated) hints the executor saw — otherwise
  // a quarantined switch behaving normally would look like it drifted.
  auto user_obs = options.exec.on_cost_observation;
  options.exec.on_cost_observation =
      [this, user_obs](SwitchId loc, sched::RequestType type, double actual_ms,
                       double predicted_ms) {
        double true_predicted = predicted_ms;
        if (const auto it = knowledge_.find(loc); it != knowledge_.end()) {
          switch (type) {
            case sched::RequestType::kAdd:
              true_predicted = it->second.costs.add_ascending_ms;
              break;
            case sched::RequestType::kMod:
              true_predicted = it->second.costs.mod_ms;
              break;
            case sched::RequestType::kDel:
              true_predicted = it->second.costs.del_ms;
              break;
          }
        }
        health_.on_cost_observation(loc, actual_ms, true_predicted);
        if (user_obs) user_obs(loc, type, actual_ms, predicted_ms);
      };

  // Chain the final report: readback mismatches discredit, clean verified
  // commits rehabilitate.
  auto user_report = options.on_report;
  options.on_report = [this, user_report, verified = options.readback_verify](
                          const sched::TransactionReport& rep) {
    for (const auto& [sw, n] : rep.readback_mismatches) {
      health_.on_readback_mismatch(sw, n);
    }
    if (rep.committed) {
      for (const SwitchId sw : verified) {
        if (rep.readback_mismatches.count(sw) == 0 &&
            rep.unreconciled.count(sw) == 0) {
          health_.on_clean_verified_commit(sw);
        }
      }
    }
    if (user_report) user_report(rep);
  };

  return sched::UpdateTransaction(network_, std::move(dag), std::move(options));
}

std::unique_ptr<sched::UpdateTransaction>
TangoController::begin_update_concurrent(sched::RequestDag dag,
                                         sched::TransactionOptions options) {
  options.scope_to_footprint = true;
  return std::make_unique<sched::UpdateTransaction>(
      begin_update(std::move(dag), std::move(options)));
}

}  // namespace tango::core
