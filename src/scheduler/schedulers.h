// Update schedulers: the Dionysus-style critical-path baseline and the
// Basic Tango Scheduler (paper Algorithm 3) with its extensions.
//
// Both operate round-by-round: the executor presents the set of currently
// ready (dependency-free) requests; the scheduler returns them in issue
// order. Per-switch command queues are FIFO, so issue order *is* execution
// order on each switch.
//
// The Tango scheduler's orderingTangoOracle scores candidate rewrite
// patterns — permutations of {DEL, MOD, ADD} with an add-priority ordering —
// using the per-op costs measured by the latency profiler, and issues the
// ready set in the best pattern's order. With priority enforcement enabled
// it additionally overwrites application-unspecified priorities with
// DAG-level-derived ones so that adds become same-priority appends.
//
// A pattern's score depends only on its add direction: the type sequence
// changes issue order, not the per-switch cost sums. So each round sums
// both directions per switch in one pass over the pool, then orders the
// pool with a bucket pass on type rank plus one sort of the ADD bucket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "scheduler/request.h"
#include "tango/latency_profiler.h"

namespace tango::sched {

class UpdateScheduler {
 public:
  virtual ~UpdateScheduler() = default;

  /// Order the ready set for issue. Called once per scheduling round.
  virtual std::vector<std::size_t> order(const RequestDag& dag,
                                         std::vector<std::size_t> ready) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Dionysus: schedule the independent request on the longest remaining
/// dependency path first; oblivious to op-type and priority diversity.
class DionysusScheduler : public UpdateScheduler {
 public:
  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  [[nodiscard]] std::string name() const override { return "Dionysus"; }

 private:
  // Per-round scratch, kept to reuse its capacity.
  std::vector<std::size_t> depth_;
  std::vector<std::size_t> count_;
  std::vector<std::size_t> out_;
};

struct TangoSchedulerOptions {
  /// Sort the ADD group by priority in the winning pattern's direction.
  /// ADDs without a priority follow the prioritized ones, in pool order.
  bool sort_priorities = true;
  /// Evaluate issuing a prefix of the batch first (non-greedy batching
  /// extension): prefixes that unlock cheaper successors can win.
  bool prefix_lookahead = false;
  /// Hoist requests that carry install_by deadlines to the front of the
  /// batch (earliest-deadline-first among themselves). Trades some pattern
  /// efficiency for deadline compliance.
  bool deadline_first = false;
};

/// One candidate rewrite pattern: an op-type permutation plus add ordering.
struct OrderingPattern {
  std::string name;
  RequestType sequence[3];
  bool adds_ascending = true;
};

class BasicTangoScheduler : public UpdateScheduler {
 public:
  BasicTangoScheduler(std::map<SwitchId, core::OpCostEstimate> costs,
                      TangoSchedulerOptions options = {});

  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  [[nodiscard]] std::string name() const override { return "Tango"; }

  /// Estimated makespan (max over switches of serial cost) of issuing the
  /// given requests in order. Exposed for the lookahead extension & tests.
  [[nodiscard]] double estimate_makespan_ms(const RequestDag& dag,
                                            const std::vector<std::size_t>& order) const;

  /// computePatternScore (Algorithm 3): higher is better.
  [[nodiscard]] double pattern_score(const RequestDag& dag,
                                     const std::vector<std::size_t>& ready,
                                     const OrderingPattern& pattern) const;

  /// Overwrite unspecified priorities from DAG levels: requests at the same
  /// level share one priority, deeper (must-install-first) levels get
  /// higher values, so per-level installation is same-priority appends in
  /// ascending order ("priority enforcement", §7.2).
  static std::size_t enforce_priorities(RequestDag& dag,
                                        std::uint16_t base_priority = 1000,
                                        std::uint16_t step = 10);

  [[nodiscard]] const std::vector<OrderingPattern>& patterns() const {
    return patterns_;
  }

 private:
  /// One pool entry, read from the DAG once per round.
  struct PoolKey {
    std::size_t id;
    std::uint32_t slot;
    RequestType type;
    bool has_priority;
    std::uint16_t priority;
  };
  /// Per-op costs of one switch, indexed by RequestType.
  struct SlotCosts {
    double ascending[3];
    double descending[3];
  };
  struct Scores {
    double ascending;
    double descending;
  };

  [[nodiscard]] double op_cost_ms(SwitchId sw, RequestType type,
                                  bool adds_ascending) const;
  /// Fill keys_ for `ready`, giving each switch a dense slot.
  void load_keys(const RequestDag& dag, const std::vector<std::size_t>& ready) const;
  [[nodiscard]] std::uint32_t slot_of(std::size_t id, SwitchId sw) const;
  /// Negated max per-switch cost of keys_ for either add direction.
  [[nodiscard]] Scores score_keys() const;
  /// Write keys_ into `out` in the pattern's order.
  void apply_pattern(const OrderingPattern& pattern,
                     std::vector<std::size_t>& out);

  std::map<SwitchId, core::OpCostEstimate> costs_;
  TangoSchedulerOptions options_;
  std::vector<OrderingPattern> patterns_;

  // Dense per-switch slots and their costs, which never change: costs_ is
  // fixed at construction. request_slot_ caches each request id's slot and
  // is re-checked against the request's location on every use, so one
  // scheduler may serve any number of DAGs. Like the per-round scratch
  // below, these are reused across calls (pattern_score() included); a
  // scheduler is not shared between threads.
  mutable std::unordered_map<SwitchId, std::uint32_t> slot_index_;
  mutable std::vector<SwitchId> slot_switch_;
  mutable std::vector<SlotCosts> slot_costs_;
  mutable std::vector<std::uint32_t> request_slot_;
  mutable std::vector<Scores> slot_sums_;
  mutable std::vector<std::uint8_t> slot_touched_;
  mutable std::vector<std::uint32_t> touched_;
  mutable std::vector<PoolKey> keys_;
  std::vector<std::uint64_t> add_keys_;
  std::vector<std::uint64_t> add_scratch_;
  std::vector<std::uint8_t> in_prefix_;
};

}  // namespace tango::sched
