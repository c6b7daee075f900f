#include "scheduler/schedulers.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace tango::sched {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

constexpr std::size_t index_of(RequestType t) { return static_cast<std::size_t>(t); }

/// Stable sort of (16-bit priority << 32 | pool position) keys on the
/// priority: one counting pass per byte, low byte first.
void stable_sort_by_priority(std::vector<std::uint64_t>& keys,
                             std::vector<std::uint64_t>& scratch) {
  scratch.resize(keys.size());
  for (const int shift : {32, 40}) {
    std::size_t next[257] = {};
    for (const std::uint64_t k : keys) ++next[((k >> shift) & 0xFF) + 1];
    for (std::size_t b = 1; b < 257; ++b) next[b] += next[b - 1];
    for (const std::uint64_t k : keys) scratch[next[(k >> shift) & 0xFF]++] = k;
    keys.swap(scratch);
  }
}

}  // namespace

std::vector<std::size_t> DionysusScheduler::order(const RequestDag& dag,
                                                  std::vector<std::size_t> ready) {
  // Deepest remaining path first, ties in pool order. Each depth is read
  // once; a counting sort runs when the pool spans fewer depths than it
  // holds requests, which is every pool of a shallow DAG.
  const std::size_t n = ready.size();
  depth_.resize(n);
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    depth_[i] = dag.downstream_depth(ready[i]);
    lo = std::min(lo, depth_[i]);
    hi = std::max(hi, depth_[i]);
  }
  if (n < 2 || lo == hi) return ready;
  out_.resize(n);
  if (hi - lo < n) {
    // Bucket b holds depth hi - b; count_[b] becomes its next output slot.
    count_.assign(hi - lo + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++count_[hi - depth_[i]];
    std::size_t next = 0;
    for (auto& c : count_) next += std::exchange(c, next);
    for (std::size_t i = 0; i < n; ++i) out_[count_[hi - depth_[i]]++] = ready[i];
  } else {
    std::iota(out_.begin(), out_.end(), std::size_t{0});
    std::stable_sort(out_.begin(), out_.end(),
                     [&](std::size_t a, std::size_t b) { return depth_[a] > depth_[b]; });
    for (auto& at : out_) at = ready[at];
  }
  ready.swap(out_);
  return ready;
}

BasicTangoScheduler::BasicTangoScheduler(
    std::map<SwitchId, core::OpCostEstimate> costs, TangoSchedulerOptions options)
    : costs_(std::move(costs)), options_(options) {
  using RT = RequestType;
  // The candidate rewrite patterns from the TangoPatterns table of
  // Algorithm 3, extended with the remaining type permutations.
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

double BasicTangoScheduler::op_cost_ms(SwitchId sw, RequestType type,
                                       bool adds_ascending) const {
  const auto it = costs_.find(sw);
  if (it == costs_.end()) {
    // Unprofiled switch: neutral weights (the paper's static fallback).
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
    case RequestType::kAdd: return adds_ascending ? c.add_ascending_ms : c.add_descending_ms;
  }
  return 1;
}

std::uint32_t BasicTangoScheduler::slot_of(std::size_t id, SwitchId sw) const {
  std::uint32_t& cached = request_slot_[id];
  if (cached != kNoSlot && slot_switch_[cached] == sw) return cached;
  const auto [it, added] = slot_index_.try_emplace(
      sw, static_cast<std::uint32_t>(slot_switch_.size()));
  if (added) {
    SlotCosts costs{};
    for (const RequestType t :
         {RequestType::kAdd, RequestType::kMod, RequestType::kDel}) {
      costs.ascending[index_of(t)] = op_cost_ms(sw, t, true);
      costs.descending[index_of(t)] = op_cost_ms(sw, t, false);
    }
    slot_switch_.push_back(sw);
    slot_costs_.push_back(costs);
    slot_sums_.push_back({0, 0});
    slot_touched_.push_back(0);
  }
  cached = it->second;
  return cached;
}

void BasicTangoScheduler::load_keys(const RequestDag& dag,
                                    const std::vector<std::size_t>& ready) const {
  if (request_slot_.size() < dag.size()) request_slot_.resize(dag.size(), kNoSlot);
  keys_.resize(ready.size());
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const std::size_t id = ready[i];
    const auto& req = dag.request(id);
    keys_[i] = {id, slot_of(id, req.location), req.type,
                req.priority.has_value(), req.priority.value_or(0)};
  }
}

BasicTangoScheduler::Scores BasicTangoScheduler::score_keys() const {
  // Score = negated estimated cost; per-switch queues run in parallel, so
  // the estimate is the max over switches of their serial cost. Each
  // switch's sums add up in pool order, as a per-pattern sum would, so the
  // scores and the near-ties between directions come out bit-equal.
  for (const auto& key : keys_) {
    if (slot_touched_[key.slot] == 0) {
      slot_touched_[key.slot] = 1;
      touched_.push_back(key.slot);
    }
    const auto& costs = slot_costs_[key.slot];
    auto& sums = slot_sums_[key.slot];
    sums.ascending += costs.ascending[index_of(key.type)];
    sums.descending += costs.descending[index_of(key.type)];
  }
  double worst_ascending = 0;
  double worst_descending = 0;
  for (const std::uint32_t slot : touched_) {
    worst_ascending = std::max(worst_ascending, slot_sums_[slot].ascending);
    worst_descending = std::max(worst_descending, slot_sums_[slot].descending);
    slot_sums_[slot] = {0, 0};
    slot_touched_[slot] = 0;
  }
  touched_.clear();
  return {-worst_ascending, -worst_descending};
}

double BasicTangoScheduler::pattern_score(const RequestDag& dag,
                                          const std::vector<std::size_t>& ready,
                                          const OrderingPattern& pattern) const {
  load_keys(dag, ready);
  const Scores scores = score_keys();
  return pattern.adds_ascending ? scores.ascending : scores.descending;
}

void BasicTangoScheduler::apply_pattern(const OrderingPattern& pattern,
                                        std::vector<std::size_t>& out) {
  // Stable bucket pass on type rank (a type's first place in the pattern).
  std::size_t rank[3] = {3, 3, 3};
  for (std::size_t i = 3; i-- > 0;) rank[index_of(pattern.sequence[i])] = i;
  std::size_t next[5] = {};
  for (const auto& key : keys_) ++next[rank[index_of(key.type)] + 1];
  for (std::size_t r = 1; r < 5; ++r) next[r] += next[r - 1];
  const std::size_t add_begin = next[rank[index_of(RequestType::kAdd)]];
  for (const auto& key : keys_) out[next[rank[index_of(key.type)]]++] = key.id;
  if (!options_.sort_priorities) return;

  // The ADD bucket: prioritized ADDs by priority in the pattern's
  // direction, ties in pool order, then ADDs without a priority in pool
  // order.
  add_keys_.clear();
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const auto& key = keys_[i];
    if (key.type != RequestType::kAdd || !key.has_priority) continue;
    const std::uint64_t priority =
        pattern.adds_ascending ? key.priority : 0xFFFFu - key.priority;
    add_keys_.push_back(priority << 32 | i);
  }
  stable_sort_by_priority(add_keys_, add_scratch_);
  std::size_t at = add_begin;
  for (const std::uint64_t k : add_keys_) out[at++] = keys_[k & 0xFFFFFFFFu].id;
  for (const auto& key : keys_) {
    if (key.type == RequestType::kAdd && !key.has_priority) out[at++] = key.id;
  }
}

std::vector<std::size_t> BasicTangoScheduler::order(const RequestDag& dag,
                                                    std::vector<std::size_t> ready) {
  load_keys(dag, ready);
  const Scores scores = score_keys();

  // orderingTangoOracle: pick the best-scoring pattern.
  double best_score = -1e300;
  const OrderingPattern* best = nullptr;
  for (const auto& pattern : patterns_) {
    const double score =
        pattern.adds_ascending ? scores.ascending : scores.descending;
    if (score > best_score) {
      best_score = score;
      best = &pattern;
    }
  }
  assert(best != nullptr);
  auto& ordered = ready;
  apply_pattern(*best, ordered);

  if (options_.deadline_first) {
    // Deadline-carrying requests jump the pattern order, earliest first;
    // the pattern still governs everything behind them.
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
    // Non-greedy batching extension: compare "issue everything" against
    // "issue a prefix, then the batch its completion unlocks". We estimate
    // with serial per-switch costs; the executor re-invokes order() when
    // the prefix completes, so truncating here is sufficient.
    const double full_cost = estimate_makespan_ms(dag, ordered);
    if (in_prefix_.size() < dag.size()) in_prefix_.resize(dag.size(), 0);
    for (const std::size_t prefix_len : {ordered.size() / 4, ordered.size() / 2}) {
      if (prefix_len == 0) continue;
      std::vector<std::size_t> prefix(ordered.begin(),
                                      ordered.begin() + static_cast<long>(prefix_len));
      // Requests unlocked once the prefix completes (all preds inside).
      for (std::size_t id : prefix) in_prefix_[id] = 1;
      std::vector<std::size_t> unlocked;
      for (std::size_t id : prefix) {
        for (std::size_t succ : dag.successors(id)) {
          const auto& preds = dag.predecessors(succ);
          const bool all_in_prefix =
              std::all_of(preds.begin(), preds.end(),
                          [&](std::size_t p) { return in_prefix_[p] != 0; });
          if (all_in_prefix) unlocked.push_back(succ);
        }
      }
      for (std::size_t id : prefix) in_prefix_[id] = 0;
      if (unlocked.empty()) continue;
      std::vector<std::size_t> combined = prefix;
      combined.insert(combined.end(), unlocked.begin(), unlocked.end());
      const double staged_cost = estimate_makespan_ms(dag, combined);
      if (staged_cost < full_cost * 0.9) {
        return prefix;  // issue only the prefix; executor will call again
      }
    }
  }
  return ordered;
}

double BasicTangoScheduler::estimate_makespan_ms(
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

std::size_t BasicTangoScheduler::enforce_priorities(RequestDag& dag,
                                                    std::uint16_t base_priority,
                                                    std::uint16_t step) {
  const auto levels = dag.levels();
  std::size_t assigned = 0;
  for (std::size_t id = 0; id < dag.size(); ++id) {
    auto& req = dag.request(id);
    if (req.priority.has_value()) continue;
    // Requests at the same DAG level share one priority (same-priority
    // appends — the cheapest add), and later levels get strictly higher
    // values, so the per-switch installation sequence is ascending and
    // never shifts existing TCAM entries.
    const std::uint16_t priority =
        static_cast<std::uint16_t>(base_priority + step * levels[id]);
    req.priority = priority;
    ++assigned;
  }
  return assigned;
}

}  // namespace tango::sched
