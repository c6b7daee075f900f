// Verifier microbenchmark: walks the verifier oracle's flows over two
// committed chaos workloads with sched::ConsistencyVerifier (one table
// snapshot per visited switch per verify() call) and with the per-hop
// reference walk (tests/reference_verifier.h), checks that both return the
// same report, and records the machine-independent speedup ratios in
// BENCH_micro_verifier.json.
//
// acl and te are the long-horizon chaos ACL and traffic-engineering
// workloads, built on the chaos testbed with chaos::build_workload and
// committed fault-free. The flows are the ones the verifier oracle walks
// (chaos::verifier_flows): one per uniquely matched forwarding rule of each
// affected switch's desired image. The speedup_verify_* results are the CI
// perf gate (tools/bench_compare.py --tolerance 0.5 against
// bench/baselines/BENCH_micro_verifier.json, a floor at half the ratio
// measured when the baseline was recorded); the *_ms results are
// informational — they track the host, not the code.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/harness.h"
#include "chaos/oracles.h"
#include "scheduler/schedulers.h"
#include "scheduler/verifier.h"
#include "tests/reference_verifier.h"

namespace {

using namespace tango;

/// Verify() calls per timed sample: one call takes well under a
/// millisecond, too short to time alone.
constexpr int kCallsPerSample = 20;

volatile std::size_t g_sink = 0;

/// Best-of-7 wall times of two verifiers, taken in alternation so a slow
/// spell of the host hits both.
template <typename A, typename B>
std::pair<double, double> best_ms(const A& a, const B& b) {
  using clock = std::chrono::steady_clock;
  const auto time = [](const auto& verify) {
    const auto start = clock::now();
    for (int i = 0; i < kCallsPerSample; ++i) {
      g_sink = verify().violations.size();
    }
    return std::chrono::duration<double, std::milli>(clock::now() - start)
               .count() /
           kCallsPerSample;
  };
  double best_a = 0;
  double best_b = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const double ms_a = time(a);
    const double ms_b = time(b);
    if (rep == 0 || ms_a < best_a) best_a = ms_a;
    if (rep == 0 || ms_b < best_b) best_b = ms_b;
  }
  return {best_a, best_b};
}

/// Commits the spec's workload fault-free, then times reference vs
/// production over the oracle's flows; false if their reports differ.
bool compare(bench::BenchReport& report, const std::string& name,
             chaos::Workload workload) {
  chaos::ChaosSpec spec;
  spec.workload = workload;
  spec.horizon = chaos::Horizon::kLong;
  net::Network net;
  const auto tb = chaos::quiet_testbed(net);
  sched::RequestDag dag;
  const bool cookie_checks = chaos::build_workload(spec, net, tb, dag);
  auto topts = chaos::recovery_budget();
  topts.txn_id = 1;
  sched::UpdateTransaction txn(net, std::move(dag), topts);
  sched::DionysusScheduler scheduler;
  txn.commit(scheduler);
  net.run_all();

  const auto flows = chaos::verifier_flows(txn, cookie_checks);
  const auto production = [&] {
    return sched::ConsistencyVerifier(net).verify(flows);
  };
  const auto reference = [&] {
    return sched::testing::reference_verify(net, flows);
  };
  const std::string diff =
      sched::testing::verifier_difference(production(), reference());
  if (!diff.empty()) {
    std::printf("  %s: production and reference reports differ: %s\n",
                name.c_str(), diff.c_str());
    return false;
  }
  std::size_t rules = 0;
  for (const SwitchId s : {tb.s1, tb.s2, tb.s3}) rules += net.sw(s).total_rules();
  const auto [ref_ms, new_ms] = best_ms(reference, production);
  report.json().set_result("flows_" + name, static_cast<double>(flows.size()));
  report.json().set_result("table_rules_" + name, static_cast<double>(rules));
  report.json().set_result("ref_verify_" + name + "_ms", ref_ms);
  report.json().set_result("new_verify_" + name + "_ms", new_ms);
  report.json().set_result("speedup_verify_" + name,
                           new_ms > 0 ? ref_ms / new_ms : 0);
  std::printf("  %-4s %5zu flows, %5zu table rules   ref %7.3f ms"
              "   new %7.3f ms   speedup %6.1fx\n",
              name.c_str(), flows.size(), rules, ref_ms, new_ms,
              new_ms > 0 ? ref_ms / new_ms : 0);
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_verifier: snapshot verifier walk vs per-hop reference",
      "the verifier oracle's flows over committed long-horizon chaos ACL and "
      "TE workloads; reports identical (tests/test_properties.cpp), only the "
      "cost of the walk changes");
  bench::BenchReport report("micro_verifier");
  bool same = compare(report, "acl", chaos::Workload::kAcl);
  same = compare(report, "te", chaos::Workload::kTrafficEngineering) && same;
  bench::print_footer();
  return same ? 0 : 1;
}
