// Rule-operation latency profiling (the "rewriting patterns" of §4/§6).
//
// Measures, per switch, the barrier-timed cost of: additions in ascending /
// descending / constant / random priority order, modifications, and
// deletions. The resulting per-op cost estimates are what the Tango
// scheduler's pattern scores are computed from — so the same scheduler
// adapts to each switch's measured behaviour instead of hardcoded weights.
//
// Each timed batch adds 500 rules on top of 1000 preinstalled rules of
// random priority in [1000, 2000) (fewer of both on a small table, see
// profile_op_costs), mirroring the paper's Fig 3 methodology to expose
// shift costs at depth; the random priorities come from an Rng seeded
// with 11.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "tango/pattern.h"
#include "tango/probe_engine.h"

namespace tango::core {

/// Per-operation average costs (milliseconds per rule), measured.
struct OpCostEstimate {
  double add_ascending_ms = 0;
  double add_descending_ms = 0;
  double add_same_priority_ms = 0;
  double add_random_ms = 0;
  double mod_ms = 0;
  double del_ms = 0;

  /// Cheapest measured way to add rules (the priority pattern the
  /// scheduler should rewrite toward).
  [[nodiscard]] double best_add_ms() const;
  /// True when priority order measurably matters (hardware TCAMs):
  /// descending adds cost at least 1.5x ascending ones.
  [[nodiscard]] bool priority_sensitive() const;
};

/// Measure the six per-rule costs. `capacity` is the switch's total table
/// capacity in rules, 0 when unbounded. The probe workload must fit a
/// bounded table, or every measurement would just be rejections: there at
/// most capacity/2 rules are preinstalled, and a timed batch holds at most
/// max(1, capacity/3) rules.
OpCostEstimate profile_op_costs(ProbeEngine& probe, std::size_t capacity,
                                ScoreDb* scores = nullptr);

/// Helper used by the profiler and the Fig 3 benches: build an add-batch of
/// `count` probe rules with the given priority sequence.
std::vector<of::FlowMod> make_add_batch(std::uint32_t first_index, std::size_t count,
                                        const std::vector<std::uint16_t>& priorities);

/// Priority sequences for the four orderings. `base` is the lowest value in
/// the range; descending runs from base+count-1 down to base.
std::vector<std::uint16_t> ascending_priorities(std::size_t count,
                                                std::uint16_t base = 100);
std::vector<std::uint16_t> descending_priorities(std::size_t count,
                                                 std::uint16_t base = 100);
std::vector<std::uint16_t> constant_priorities(std::size_t count,
                                               std::uint16_t value = 0x8000);
std::vector<std::uint16_t> random_priorities(std::size_t count, Rng& rng,
                                             std::uint16_t base = 100);

}  // namespace tango::core
