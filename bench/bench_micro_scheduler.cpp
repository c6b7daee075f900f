// Scheduler microbenchmark: replays the ready pools of two real updates
// through the production schedulers and through the sort-based reference
// order() bodies (tests/reference_scheduler.h), checks that both return the
// same order for every pool, and records the machine-independent speedup
// ratios in BENCH_micro_scheduler.json. It also commits each update with
// sched::execute twice per production scheduler: on the executor's keyed
// path (the scheduler's issue_keys()) and on its round path
// (RoundPathScheduler, order() on every changed pool). Every report field
// and every switch's final table must match; speedup_execute_* is the
// round path's wall time over the keyed path's.
//
// Pools are recorded by a wrapper scheduler during one fault-free execute()
// of each update: a 550-demand Figure 12 B4 TE update on OVS sites, and a
// network-wide reroute of 500 flows on the 1024-switch fat-tree. Each
// scheduler's pools are recorded under that scheduler, so they are the
// rounds it really sees. The fig12 update is also replayed with one site's
// descending adds at 0.4x its ascending ones (tango_fig12_desc), the only
// case in which the Tango scheduler sums its pattern scores. The
// speedup_order_* and speedup_execute_* results are the CI perf gate
// (tools/bench_compare.py --tolerance 0.5 against
// bench/baselines/BENCH_micro_scheduler.json, a floor at half the ratio
// measured when the baseline was recorded); the *_ms results are
// informational — they track the host, not the code.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/b4_te_update.h"
#include "bench/bench_util.h"
#include "net/b4.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"
#include "tests/reference_scheduler.h"
#include "workload/topology_gen.h"

namespace {

using namespace tango;

using Costs = std::map<SwitchId, core::OpCostEstimate>;
using Pools = std::vector<std::vector<std::size_t>>;

/// Passes every round through to `inner`, keeping a copy of its pool.
class RecordingScheduler final : public sched::UpdateScheduler {
 public:
  explicit RecordingScheduler(sched::UpdateScheduler& inner) : inner_(inner) {}
  std::vector<std::size_t> order(const sched::RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    pools.push_back(ready);
    return inner_.order(dag, std::move(ready));
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  Pools pools;

 private:
  sched::UpdateScheduler& inner_;
};

/// One update: a fresh network builder and the DAG it is committed on.
struct Update {
  std::string name;
  sched::RequestDag dag;
  /// Builds the update's network, fresh for each recording run.
  std::function<void(net::Network&)> build;
};

Pools record_pools(const Update& update, sched::UpdateScheduler& scheduler) {
  net::Network net;
  update.build(net);
  RecordingScheduler recorder(scheduler);
  sched::execute(net, update.dag, recorder);
  return std::move(recorder.pools);
}

/// The results key of a scheduler's case on an update, in lower case.
std::string result_key(const sched::UpdateScheduler& scheduler,
                       const Update& update, const std::string& suffix) {
  std::string key = scheduler.name() + "_" + update.name + suffix;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return key;
}

volatile std::size_t g_sink = 0;

/// Best-of-3 wall time of one pass ordering every pool.
double order_ms(sched::UpdateScheduler& scheduler, const sched::RequestDag& dag,
                const Pools& pools) {
  using clock = std::chrono::steady_clock;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t sink = 0;
    const auto start = clock::now();
    for (const auto& pool : pools) sink += scheduler.order(dag, pool).size();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count();
    g_sink = sink;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// Times reference vs production over the pools the production scheduler
/// saw; false if any pool orders differently. `suffix` tells apart cases
/// that replay one update under different costs.
bool compare(bench::BenchReport& report, const Update& update,
             const std::string& suffix, sched::UpdateScheduler& production,
             sched::UpdateScheduler& reference) {
  const Pools pools = record_pools(update, production);
  for (const auto& pool : pools) {
    if (production.order(update.dag, pool) != reference.order(update.dag, pool)) {
      std::printf("  %s %s: production and reference orders differ\n",
                  update.name.c_str(), production.name().c_str());
      return false;
    }
  }
  std::size_t pooled = 0;
  for (const auto& pool : pools) pooled += pool.size();
  const double ref_ms = order_ms(reference, update.dag, pools);
  const double new_ms = order_ms(production, update.dag, pools);
  const std::string key = result_key(production, update, suffix);
  report.json().set_result("rounds_" + key, static_cast<double>(pools.size()));
  report.json().set_result(
      "pool_mean_" + key,
      pools.empty() ? 0.0 : static_cast<double>(pooled) / pools.size());
  report.json().set_result("ref_order_" + key + "_ms", ref_ms);
  report.json().set_result("new_order_" + key + "_ms", new_ms);
  report.json().set_result("speedup_order_" + key,
                           new_ms > 0 ? ref_ms / new_ms : 0);
  std::printf("  %-18s %5zu rounds, pool %6.1f   ref %9.2f ms   new %8.2f ms"
              "   speedup %6.1fx\n",
              key.c_str(), pools.size(),
              pools.empty() ? 0.0 : static_cast<double>(pooled) / pools.size(),
              ref_ms, new_ms, new_ms > 0 ? ref_ms / new_ms : 0);
  return true;
}

/// What one commit leaves behind, and its wall time.
struct Commit {
  sched::ExecutionReport report;
  std::vector<of::FlowStatsReply> tables;
  double ms = 0;
};

Commit commit(const Update& update, sched::UpdateScheduler& scheduler) {
  using clock = std::chrono::steady_clock;
  net::Network net;
  update.build(net);
  Commit out;
  const auto start = clock::now();
  out.report = sched::execute(net, update.dag, scheduler);
  out.ms = std::chrono::duration<double, std::milli>(clock::now() - start).count();
  for (SwitchId sw = 1; sw <= net.switch_count(); ++sw) {
    out.tables.push_back(net.sw(sw).flow_stats(of::Match::any()));
  }
  return out;
}

/// Times execute() on the keyed path against the round path, best of 3
/// fresh commits each; false if the scheduler has no keys or any commit's
/// report or final tables differ between the paths.
bool compare_execute(bench::BenchReport& report, const Update& update,
                     sched::UpdateScheduler& production) {
  std::vector<std::uint64_t> keys;
  if (!production.issue_keys(update.dag, keys)) {
    std::printf("  %s %s: no issue keys, the keyed path is not taken\n",
                update.name.c_str(), production.name().c_str());
    return false;
  }
  sched::testing::RoundPathScheduler round_path(production);
  double keyed_ms = 0;
  double round_ms = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const Commit keyed = commit(update, production);
    const Commit round = commit(update, round_path);
    if (!(keyed.report == round.report) || keyed.tables != round.tables) {
      std::printf("  %s %s: keyed and round-path commits differ\n",
                  update.name.c_str(), production.name().c_str());
      return false;
    }
    keyed_ms = rep == 0 ? keyed.ms : std::min(keyed_ms, keyed.ms);
    round_ms = rep == 0 ? round.ms : std::min(round_ms, round.ms);
  }
  const std::string key = result_key(production, update, "");
  report.json().set_result("round_execute_" + key + "_ms", round_ms);
  report.json().set_result("keyed_execute_" + key + "_ms", keyed_ms);
  report.json().set_result("speedup_execute_" + key,
                           keyed_ms > 0 ? round_ms / keyed_ms : 0);
  std::printf("  %-18s execute: round path %9.2f ms   keyed %8.2f ms"
              "   speedup %6.1fx\n",
              key.c_str(), round_ms, keyed_ms, keyed_ms > 0 ? round_ms / keyed_ms : 0);
  return true;
}

core::OpCostEstimate learn_ovs_costs() {
  net::Network net;
  const auto id = net.add_switch(switchsim::profiles::ovs());
  core::TangoController tango(net);
  core::LearnOptions options;
  options.size.max_rules = 512;
  options.infer_policy = false;
  return tango.learn(id, options).costs;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_scheduler: one-pass scheduling rounds vs sort-based "
      "reference, keyed ready heaps vs round path",
      "order() over the ready pools of a fig12 TE update and a 1024-switch "
      "fabric reroute, and execute() of both on the keyed and round paths; "
      "outputs identical (tests/test_properties.cpp), only the cost changes");
  bench::BenchReport report("micro_scheduler");
  const core::OpCostEstimate ovs = learn_ovs_costs();

  std::vector<Update> updates;
  {
    Update fig12{"fig12", {}, [](net::Network& net) {
                   net::build_b4(net, switchsim::profiles::ovs());
                 }};
    net::Network net;
    const auto sites = net::build_b4(net, switchsim::profiles::ovs());
    Rng rng(550);
    fig12.dag = bench::b4_te_update(net, sites, 550, rng);
    updates.push_back(std::move(fig12));
  }
  {
    workload::FatTreeSpec spec;
    spec.k = 16;
    spec.pods = 60;
    Update fabric{"fabric", {}, [spec](net::Network& net) {
                    workload::build_fat_tree(net, spec, switchsim::profiles::ovs());
                  }};
    net::Network net;
    const auto nodes =
        workload::build_fat_tree(net, spec, switchsim::profiles::ovs());
    workload::FabricUpdateSpec us;
    us.n_flows = 500;
    Rng rng(7);
    fabric.dag = workload::fabric_update_scenario(net.topology(), nodes, us, rng);
    updates.push_back(std::move(fabric));
  }

  bool same = true;
  for (const auto& update : updates) {
    Costs costs;
    for (std::size_t id = 0; id < update.dag.size(); ++id) {
      costs[update.dag.request(id).location] = ovs;
    }
    std::printf("%s: %zu requests on %zu switches\n", update.name.c_str(),
                update.dag.size(), costs.size());
    sched::BasicTangoScheduler tango(costs);
    sched::testing::ReferenceTangoScheduler ref_tango(costs);
    same = compare(report, update, "", tango, ref_tango) && same;
    same = compare_execute(report, update, tango) && same;
    if (&update == &updates.front()) {
      // OVS descending adds are dearer, so the cases above never sum the
      // pattern scores; one fig12 site with cheaper descending adds keeps
      // that path timed.
      auto& site = costs.begin()->second;
      site.add_descending_ms = 0.4 * site.add_ascending_ms;
      sched::BasicTangoScheduler scored(costs);
      sched::testing::ReferenceTangoScheduler ref_scored(costs);
      same = compare(report, update, "_desc", scored, ref_scored) && same;
    }
    sched::DionysusScheduler dionysus;
    sched::testing::ReferenceDionysusScheduler ref_dionysus;
    same = compare(report, update, "", dionysus, ref_dionysus) && same;
    same = compare_execute(report, update, dionysus) && same;
  }

  bench::print_footer();
  return same ? 0 : 1;
}
