// The Figure 12 update: a max-min fair traffic-engineering reallocation on
// B4 after a traffic-matrix change, as a switch-request DAG. Shared by
// bench_fig12_b4_te (2,200 demands) and bench_micro_scheduler (550).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "scheduler/request.h"
#include "workload/maxmin.h"

namespace tango::bench {

inline sched::RequestDag b4_te_update(net::Network& net,
                                      const std::vector<SwitchId>& sites,
                                      std::size_t demands, Rng& rng) {
  auto& topo = net.topology();
  auto before_demands = workload::random_demands(topo, demands, rng);
  const auto before = workload::maxmin_allocate(topo, before_demands);

  // Traffic-matrix change: ~30% of demands change rate, ~15% disappear,
  // ~15% are new, and a link failure reroutes everything crossing it.
  auto after_demands = before_demands;
  std::vector<workload::Demand> next;
  for (auto& d : after_demands) {
    if (rng.chance(0.15)) continue;  // demand gone
    if (rng.chance(0.30)) d.requested_gbps = rng.uniform_real(0.05, 1.0);
    next.push_back(d);
  }
  for (std::size_t i = 0; i < demands * 3 / 20; ++i) {
    workload::Demand d;
    d.src = rng.index(topo.node_count());
    do {
      d.dst = rng.index(topo.node_count());
    } while (d.dst == d.src);
    d.requested_gbps = rng.uniform_real(0.05, 1.0);
    d.flow_id = static_cast<std::uint32_t>(demands + i);
    next.push_back(d);
  }
  topo.set_link_state(3, false);  // perturb routing
  const auto after = workload::maxmin_allocate(topo, next);
  topo.set_link_state(3, true);

  return workload::te_update_dag(before, after, sites, rng);
}

}  // namespace tango::bench
