// Reference (oracle) update schedulers for the differential property suite
// and the scheduler microbenchmark.
//
// These are the sort-based order() bodies the production schedulers had
// before each round became a few linear passes, kept verbatim in test-land:
// the Tango pattern loop calling a map-based pattern_score once per pattern,
// apply_pattern's std::stable_sort over the pool, and Dionysus's
// std::stable_sort on downstream_depth. sched::DionysusScheduler and
// sched::BasicTangoScheduler must return exactly what these return for
// every pool; see ExecutorProperties.SchedulerOutputsArePermutations in
// tests/test_properties.cpp.
//
// One deliberate gap: the ADD comparator below treats an ADD without a
// priority as equal to every prioritized ADD, which is not a strict weak
// order, so its output for a pool mixing the two is unspecified. The
// production scheduler defines that case (prioritized ADDs in the pattern's
// direction, then unprioritized ADDs in pool order); differential tests
// skip mixed pools.
//
// RoundPathScheduler is the reference for the executor's keyed path: it
// forwards only order(), so the executor re-orders the whole pool on every
// scheduling round even for a scheduler that has issue_keys(); see
// ExecutorProperties.KeyedQueuesMatchRoundPath and bench_micro_scheduler.
#pragma once

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scheduler/request.h"
#include "scheduler/schedulers.h"
#include "tango/latency_profiler.h"

namespace tango::sched::testing {

class RoundPathScheduler final : public UpdateScheduler {
 public:
  explicit RoundPathScheduler(UpdateScheduler& inner) : inner_(inner) {}
  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    return inner_.order(dag, std::move(ready));
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  UpdateScheduler& inner_;
};

class ReferenceDionysusScheduler : public UpdateScheduler {
 public:
  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    std::stable_sort(ready.begin(), ready.end(),
                     [&](std::size_t a, std::size_t b) {
                       return dag.downstream_depth(a) > dag.downstream_depth(b);
                     });
    return ready;
  }
  [[nodiscard]] std::string name() const override { return "Dionysus"; }
};

class ReferenceTangoScheduler : public UpdateScheduler {
 public:
  ReferenceTangoScheduler(std::map<SwitchId, core::OpCostEstimate> costs,
                          TangoSchedulerOptions options = {})
      : costs_(std::move(costs)), options_(options) {
    using RT = RequestType;
    patterns_ = {
        {"DEL MOD ASCEND_ADD", {RT::kDel, RT::kMod, RT::kAdd}, true},
        {"DEL MOD DESCEND_ADD", {RT::kDel, RT::kMod, RT::kAdd}, false},
        {"DEL ASCEND_ADD MOD", {RT::kDel, RT::kAdd, RT::kMod}, true},
        {"MOD DEL ASCEND_ADD", {RT::kMod, RT::kDel, RT::kAdd}, true},
        {"MOD ASCEND_ADD DEL", {RT::kMod, RT::kAdd, RT::kDel}, true},
        {"ASCEND_ADD DEL MOD", {RT::kAdd, RT::kDel, RT::kMod}, true},
        {"ASCEND_ADD MOD DEL", {RT::kAdd, RT::kMod, RT::kDel}, true},
    };
  }

  [[nodiscard]] std::string name() const override { return "Tango"; }

  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    // orderingTangoOracle: pick the best-scoring pattern.
    double best_score = -1e300;
    const OrderingPattern* best = nullptr;
    for (const auto& pattern : patterns_) {
      const double score = pattern_score(dag, ready, pattern);
      if (score > best_score) {
        best_score = score;
        best = &pattern;
      }
    }
    assert(best != nullptr);
    auto ordered = apply_pattern(dag, std::move(ready), *best);

    if (options_.deadline_first) {
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](std::size_t a, std::size_t b) {
                         const auto& da = dag.request(a).deadline;
                         const auto& db = dag.request(b).deadline;
                         if (da.has_value() != db.has_value()) return da.has_value();
                         if (da && db) return *da < *db;
                         return false;
                       });
    }

    if (options_.prefix_lookahead && ordered.size() > 4) {
      const double full_cost = estimate_makespan_ms(dag, ordered);
      for (const std::size_t prefix_len :
           {ordered.size() / 4, ordered.size() / 2}) {
        if (prefix_len == 0) continue;
        std::vector<std::size_t> prefix(
            ordered.begin(), ordered.begin() + static_cast<long>(prefix_len));
        std::vector<std::size_t> unlocked;
        for (std::size_t id : prefix) {
          for (std::size_t succ : dag.successors(id)) {
            const auto& preds = dag.predecessors(succ);
            const bool all_in_prefix = std::all_of(
                preds.begin(), preds.end(), [&](std::size_t p) {
                  return std::find(prefix.begin(), prefix.end(), p) != prefix.end();
                });
            if (all_in_prefix) unlocked.push_back(succ);
          }
        }
        if (unlocked.empty()) continue;
        std::vector<std::size_t> combined = prefix;
        combined.insert(combined.end(), unlocked.begin(), unlocked.end());
        const double staged_cost = estimate_makespan_ms(dag, combined);
        if (staged_cost < full_cost * 0.9) {
          return prefix;
        }
      }
    }
    return ordered;
  }

  [[nodiscard]] double pattern_score(const RequestDag& dag,
                                     const std::vector<std::size_t>& ready,
                                     const OrderingPattern& pattern) const {
    std::map<SwitchId, double> per_switch;
    for (std::size_t id : ready) {
      const auto& req = dag.request(id);
      per_switch[req.location] +=
          op_cost_ms(req.location, req.type, pattern.adds_ascending);
    }
    double worst = 0;
    for (const auto& [sw, ms] : per_switch) worst = std::max(worst, ms);
    return -worst;
  }

 private:
  [[nodiscard]] double op_cost_ms(SwitchId sw, RequestType type,
                                  bool adds_ascending) const {
    const auto it = costs_.find(sw);
    if (it == costs_.end()) {
      switch (type) {
        case RequestType::kDel: return 10;
        case RequestType::kMod: return 1;
        case RequestType::kAdd: return adds_ascending ? 20 : 40;
      }
    }
    const auto& c = it->second;
    switch (type) {
      case RequestType::kDel: return c.del_ms;
      case RequestType::kMod: return c.mod_ms;
      case RequestType::kAdd:
        return adds_ascending ? c.add_ascending_ms : c.add_descending_ms;
    }
    return 1;
  }

  std::vector<std::size_t> apply_pattern(const RequestDag& dag,
                                         std::vector<std::size_t> ready,
                                         const OrderingPattern& pattern) const {
    auto type_rank = [&](RequestType t) {
      for (int i = 0; i < 3; ++i) {
        if (pattern.sequence[i] == t) return i;
      }
      return 3;
    };
    std::stable_sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
      const auto& ra = dag.request(a);
      const auto& rb = dag.request(b);
      const int ta = type_rank(ra.type);
      const int tb = type_rank(rb.type);
      if (ta != tb) return ta < tb;
      if (options_.sort_priorities && ra.type == RequestType::kAdd &&
          ra.priority.has_value() && rb.priority.has_value() &&
          *ra.priority != *rb.priority) {
        return pattern.adds_ascending ? *ra.priority < *rb.priority
                                      : *ra.priority > *rb.priority;
      }
      return false;
    });
    return ready;
  }

  [[nodiscard]] double estimate_makespan_ms(
      const RequestDag& dag, const std::vector<std::size_t>& order) const {
    std::map<SwitchId, double> per_switch;
    for (std::size_t id : order) {
      const auto& req = dag.request(id);
      per_switch[req.location] += op_cost_ms(req.location, req.type, true);
    }
    double worst = 0;
    for (const auto& [sw, ms] : per_switch) worst = std::max(worst, ms);
    return worst;
  }

  std::map<SwitchId, core::OpCostEstimate> costs_;
  TangoSchedulerOptions options_;
  std::vector<OrderingPattern> patterns_;
};

}  // namespace tango::sched::testing
