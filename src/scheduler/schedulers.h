// Update schedulers: the Dionysus-style critical-path baseline and the
// Basic Tango Scheduler (paper Algorithm 3) with its extensions.
//
// A scheduler orders the executor's pool of ready (dependency-free)
// requests for issue; per-switch command queues are FIFO, so issue order
// *is* execution order on each switch. Where a scheduler's order is the
// pool stably sorted by a key fixed per request, issue_keys() hands the
// executor those keys once, and the executor keeps each switch's ready
// requests in a heap instead of re-ordering the pool as requests finish.
// Dionysus always does (deepest remaining path first); Tango does on the
// path that skips its score sums, unless prefix lookahead or
// deadline-first is on. Otherwise the executor calls order() on the whole
// pool each time it changed (a scheduling round).
//
// The Tango scheduler's orderingTangoOracle scores candidate rewrite
// patterns — permutations of {DEL, MOD, ADD} with an add-priority ordering —
// using the per-op costs measured by the latency profiler, and issues the
// ready set in the best pattern's order. With priority enforcement enabled
// it additionally overwrites application-unspecified priorities with
// DAG-level-derived ones so that adds become same-priority appends.
//
// A pattern's score depends only on its add direction: the type sequence
// changes issue order, not the per-switch cost sums. Each round reads every
// pool request once, recording its class (DEL, MOD, ADD to sort by
// priority, ADD kept in pool order) and priority, counting the classes and
// building the low- and high-byte histograms of the priorities to sort;
// the same pass sums both directions per switch, in pool order. One
// scatter pass then puts every DEL, MOD and pool-order ADD at its final
// position and the ADDs to sort into a scratch array by the low byte of
// their key (the priority, or 0xFFFF - priority for descending adds); a
// last pass places those by the high byte.
//
// The sums are skipped when no switch in the cost table has cheaper
// descending adds (unprofiled switches use 20 ascending, 40 descending):
// DEL and MOD cost the same in both directions and rounded addition is
// monotone, so term by term every switch's descending sum is at least its
// ascending one, and descending adds can never score strictly higher.
// (Where a descending sum turns NaN, the ascending one turns -inf or NaN
// and stays so; neither raises a max that starts at 0.)
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

  /// Set keys[id] for every request of `dag` and return true to promise
  /// that every order() of `dag` returns its pool stably sorted by
  /// keys[id] (ascending), so the executor may skip order() altogether.
  /// `dag` must be acyclic. The default promises nothing.
  [[nodiscard]] virtual bool issue_keys(const RequestDag& /*dag*/,
                                        std::vector<std::uint64_t>& /*keys*/) const {
    return false;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Dionysus: schedule the independent request on the longest remaining
/// dependency path first; oblivious to op-type and priority diversity.
class DionysusScheduler : public UpdateScheduler {
 public:
  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  /// The negated downstream depth (~depth).
  [[nodiscard]] bool issue_keys(const RequestDag& dag,
                                std::vector<std::uint64_t>& keys) const override;
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
  /// The first pattern's rank of each request's class, then its priority
  /// (sorted ADDs) — the order every round takes when descending adds
  /// cannot win. False when they can, or with prefix_lookahead or
  /// deadline_first.
  [[nodiscard]] bool issue_keys(const RequestDag& dag,
                                std::vector<std::uint64_t>& keys) const override;
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
  /// How a pool entry is placed: by type, with the ADDs split into those
  /// sorted by priority and those kept in pool order.
  enum class PoolClass : std::uint8_t { kDel, kMod, kSortedAdd, kPoolOrderAdd };
  /// One pool entry, read from the DAG once per round.
  struct PoolEntry {
    PoolClass cls;
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
  /// The entry `req` takes in a pool (priority 0 unless a sorted ADD).
  [[nodiscard]] PoolEntry classify(const SwitchRequest& req) const;
  [[nodiscard]] std::uint32_t slot_of(std::size_t id, SwitchId sw) const;
  /// The read pass: fill entries_, class_count_ and the priority
  /// histograms for `ready`. With `score`, also return the negated max
  /// per-switch cost for either add direction; without it, {0, 0}.
  Scores read_pool(const RequestDag& dag, const std::vector<std::size_t>& ready,
                   bool score) const;
  /// The scatter and radix passes: write `ready` into out_ in the
  /// pattern's order.
  void place(const std::vector<std::size_t>& ready, const OrderingPattern& pattern);

  std::map<SwitchId, core::OpCostEstimate> costs_;
  TangoSchedulerOptions options_;
  std::vector<OrderingPattern> patterns_;
  /// Some switch in costs_ has !(add_descending_ms >= add_ascending_ms)
  /// (a NaN counts), so the descending pattern can score higher and
  /// order() must compute the sums.
  bool descending_can_win_ = false;

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
  mutable std::vector<PoolEntry> entries_;
  mutable std::size_t class_count_[4] = {};
  /// Low- and high-byte counts of the priorities of kSortedAdd entries.
  mutable std::uint32_t low_bytes_[256] = {};
  mutable std::uint32_t high_bytes_[256] = {};
  /// kSortedAdd entries after the low-byte pass, as key << 48 | request id.
  std::vector<std::uint64_t> radix_;
  std::vector<std::size_t> out_;
  std::vector<std::uint8_t> in_prefix_;
};

}  // namespace tango::sched
