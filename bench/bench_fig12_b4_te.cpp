// Figure 12 reproduction: traffic-engineering update on Google's B4
// topology (12 sites, OVS switches, Mininet in the paper), driven by a
// max-min fair reallocation after a traffic-matrix change; Dionysus vs
// Tango. OVS is priority-insensitive, so the ~8% gain comes from rule-type
// grouping alone.
#include <map>

#include "bench/b4_te_update.h"
#include "bench/bench_util.h"
#include "net/b4.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"

namespace {

using namespace tango;

constexpr std::size_t kDemands = 2200;

}  // namespace

int main() {
  bench::print_header(
      "Figure 12: B4 traffic-engineering update (2200 end-to-end demands, "
      "OVS switches)",
      "Tango ~8% faster than Dionysus (type patterns only; priority has no "
      "effect on OVS)");

  // Learn OVS costs once.
  std::map<SwitchId, core::OpCostEstimate> costs;
  {
    net::Network net;
    const auto id = net.add_switch(switchsim::profiles::ovs());
    core::TangoController tango(net);
    core::LearnOptions options;
    options.size.max_rules = 512;
    options.infer_policy = false;
    const auto& know = tango.learn(id, options);
    for (SwitchId s = 1; s <= 12; ++s) costs[s] = know.costs;
  }

  double dionysus_s = 0, tango_s = 0;
  std::size_t n_requests = 0;
  {
    net::Network net;
    const auto sites = net::build_b4(net, switchsim::profiles::ovs());
    Rng rng(2200);
    auto dag = bench::b4_te_update(net, sites, kDemands, rng);
    n_requests = dag.size();
    sched::DionysusScheduler sched;
    dionysus_s = sched::execute(net, dag, sched).makespan.sec();
  }
  {
    net::Network net;
    const auto sites = net::build_b4(net, switchsim::profiles::ovs());
    Rng rng(2200);
    auto dag = bench::b4_te_update(net, sites, kDemands, rng);
    sched::BasicTangoScheduler sched(costs);
    tango_s = sched::execute(net, dag, sched).makespan.sec();
  }

  std::printf("update size: %zu switch requests across 12 sites\n", n_requests);
  std::printf("  Dionysus : %.3f s\n", dionysus_s);
  std::printf("  Tango    : %.3f s\n", tango_s);
  std::printf("  improvement: %.1f%%  (paper: ~8%%)\n",
              100.0 * (1.0 - tango_s / dionysus_s));
  bench::BenchReport report("fig12_b4_te");
  report.json().set_result("n_requests", static_cast<double>(n_requests));
  report.json().set_result("dionysus_s", dionysus_s);
  report.json().set_result("tango_s", tango_s);
  report.json().set_result("improvement_pct",
                           100.0 * (1.0 - tango_s / dionysus_s));
  bench::print_footer();
  return 0;
}
