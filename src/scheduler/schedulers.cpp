#include "scheduler/schedulers.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace tango::sched {

namespace {

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// A radix word is a 16-bit sort key above a request id. Ids index the
/// DAG's request vector, so they fit below the key.
constexpr int kIdBits = 48;
constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;

template <typename Enum>
constexpr std::size_t index_of(Enum e) {
  return static_cast<std::size_t>(e);
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

bool DionysusScheduler::issue_keys(const RequestDag& dag,
                                   std::vector<std::uint64_t>& keys) const {
  keys.resize(dag.size());
  for (std::size_t id = 0; id < dag.size(); ++id) {
    keys[id] = ~std::uint64_t{dag.downstream_depth(id)};
  }
  return true;
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
  descending_can_win_ = std::any_of(costs_.begin(), costs_.end(), [](const auto& entry) {
    return !(entry.second.add_descending_ms >= entry.second.add_ascending_ms);
  });
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

BasicTangoScheduler::PoolEntry BasicTangoScheduler::classify(
    const SwitchRequest& req) const {
  if (req.type == RequestType::kDel) return {PoolClass::kDel, 0};
  if (req.type == RequestType::kMod) return {PoolClass::kMod, 0};
  if (options_.sort_priorities && req.priority.has_value()) {
    return {PoolClass::kSortedAdd, *req.priority};
  }
  return {PoolClass::kPoolOrderAdd, 0};
}

BasicTangoScheduler::Scores BasicTangoScheduler::read_pool(
    const RequestDag& dag, const std::vector<std::size_t>& ready, bool score) const {
  entries_.resize(ready.size());
  std::fill(std::begin(class_count_), std::end(class_count_), 0);
  std::fill(std::begin(low_bytes_), std::end(low_bytes_), 0);
  std::fill(std::begin(high_bytes_), std::end(high_bytes_), 0);
  if (score && request_slot_.size() < dag.size()) {
    request_slot_.resize(dag.size(), kNoSlot);
  }
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const std::size_t id = ready[i];
    const auto& req = dag.request(id);
    const PoolEntry entry = classify(req);
    if (entry.cls == PoolClass::kSortedAdd) {
      ++low_bytes_[entry.priority & 0xFF];
      ++high_bytes_[entry.priority >> 8];
    }
    entries_[i] = entry;
    ++class_count_[index_of(entry.cls)];
    if (!score) continue;
    // Each switch's sums add up in pool order, as a per-pattern sum would,
    // so the scores and the near-ties between directions come out
    // bit-equal.
    const std::uint32_t slot = slot_of(id, req.location);
    if (slot_touched_[slot] == 0) {
      slot_touched_[slot] = 1;
      touched_.push_back(slot);
    }
    const auto& costs = slot_costs_[slot];
    auto& sums = slot_sums_[slot];
    sums.ascending += costs.ascending[index_of(req.type)];
    sums.descending += costs.descending[index_of(req.type)];
  }
  // Score = negated estimated cost; per-switch queues run in parallel, so
  // the estimate is the max over switches of their serial cost.
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
  const Scores scores = read_pool(dag, ready, /*score=*/true);
  return pattern.adds_ascending ? scores.ascending : scores.descending;
}

void BasicTangoScheduler::place(const std::vector<std::size_t>& ready,
                                const OrderingPattern& pattern) {
  // Each class's next output position: the types in the pattern's order,
  // the sorted ADDs first in the ADD bucket, then the pool-order ADDs.
  std::size_t next[4] = {};
  std::size_t at = 0;
  std::size_t sorted_begin = 0;
  for (const RequestType t : pattern.sequence) {
    if (t == RequestType::kAdd) {
      sorted_begin = at;
      at += class_count_[index_of(PoolClass::kSortedAdd)];
    }
    const PoolClass cls = t == RequestType::kDel   ? PoolClass::kDel
                          : t == RequestType::kMod ? PoolClass::kMod
                                                   : PoolClass::kPoolOrderAdd;
    next[index_of(cls)] = at;
    at += class_count_[index_of(cls)];
  }

  // Counting-sort cursors by key byte. A descending key is 0xFFFF -
  // priority, whose bytes are 0xFF minus the priority's: read the
  // histograms backwards.
  const bool ascending = pattern.adds_ascending;
  std::size_t low_next[256];
  std::size_t high_next[256];
  std::size_t low_at = 0;
  std::size_t high_at = sorted_begin;
  for (std::size_t b = 0; b < 256; ++b) {
    const std::size_t from = ascending ? b : 255 - b;
    low_next[b] = low_at;
    low_at += low_bytes_[from];
    high_next[b] = high_at;
    high_at += high_bytes_[from];
  }

  // The scatter pass; sorted ADDs go to radix_ by their key's low byte.
  out_.resize(ready.size());
  radix_.resize(class_count_[index_of(PoolClass::kSortedAdd)]);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const PoolEntry entry = entries_[i];
    if (entry.cls != PoolClass::kSortedAdd) {
      out_[next[index_of(entry.cls)]++] = ready[i];
      continue;
    }
    const std::uint64_t key =
        ascending ? entry.priority : 0xFFFFu - entry.priority;
    radix_[low_next[key & 0xFF]++] = key << kIdBits | ready[i];
  }
  // The high-byte pass, stable, so equal keys keep pool order.
  for (const std::uint64_t word : radix_) {
    out_[high_next[word >> (kIdBits + 8)]++] = word & kIdMask;
  }
}

std::vector<std::size_t> BasicTangoScheduler::order(const RequestDag& dag,
                                                    std::vector<std::size_t> ready) {
  // Without descending_can_win_ both scores read 0 and the first pattern
  // wins; with the sums it would too (see the top of schedulers.h).
  const Scores scores = read_pool(dag, ready, descending_can_win_);

  // orderingTangoOracle: start from the first pattern and move only to a
  // strictly higher score, so some pattern wins even when every score is
  // -inf.
  const OrderingPattern* best = &patterns_.front();
  double best_score = best->adds_ascending ? scores.ascending : scores.descending;
  for (const auto& pattern : patterns_) {
    const double score =
        pattern.adds_ascending ? scores.ascending : scores.descending;
    if (score > best_score) {
      best_score = score;
      best = &pattern;
    }
  }
  place(ready, *best);
  ready.swap(out_);
  auto& ordered = ready;

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

bool BasicTangoScheduler::issue_keys(const RequestDag& dag,
                                     std::vector<std::uint64_t>& keys) const {
  if (descending_can_win_ || options_.prefix_lookahead || options_.deadline_first) {
    return false;
  }
  // Then order() always places by the first pattern, DEL MOD ASCEND_ADD:
  // the classes in PoolClass order, the sorted ADDs by ascending priority.
  assert(patterns_.front().adds_ascending &&
         patterns_.front().sequence[0] == RequestType::kDel &&
         patterns_.front().sequence[1] == RequestType::kMod);
  keys.resize(dag.size());
  for (std::size_t id = 0; id < dag.size(); ++id) {
    const PoolEntry entry = classify(dag.request(id));
    keys[id] = std::uint64_t{index_of(entry.cls)} << 16 | entry.priority;
  }
  return true;
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
