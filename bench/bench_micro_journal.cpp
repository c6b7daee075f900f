// Journal microbenchmark: builds the write-ahead journal of two updates with
// sched::build_journal (indexed post images, typed rule keys) and with the
// scan-based reference loop (tests/reference_journal.h), checks that both
// return the same entries, post images and attribution, and records the
// machine-independent speedup ratios in BENCH_micro_journal.json.
//
// fig12 is the 550-demand Figure 12 B4 TE update (bench/b4_te_update.h)
// journaled against the fresh sites' tables, the journal perfbench's
// te_update builds in TangoController::begin_update. Its MODIFYs and
// DELETEs hit the rules earlier ADDs of the same update installed. acl is a
// ClassBench update over a switch that already holds a 989-rule ACL: a
// MODIFY or DELETE through an installed rule's match or a wider filter,
// each hitting the rules it subsumes at their several priorities, and
// ADDs of a second ACL. The speedup_journal_* results are the CI perf gate
// (tools/bench_compare.py --tolerance 0.5 against
// bench/baselines/BENCH_micro_journal.json, a floor at half the ratio
// measured when the baseline was recorded); the *_ms results are
// informational — they track the host, not the code.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "bench/b4_te_update.h"
#include "bench/bench_util.h"
#include "net/b4.h"
#include "scheduler/reconciler.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tests/reference_journal.h"
#include "workload/classbench.h"

namespace {

using namespace tango;

using Images = std::map<SwitchId, sched::TableImage>;

constexpr std::uint16_t kDefaultPriority = 0x8000;

/// One update to journal: its DAG, cookies stamped, and the pre images.
struct Update {
  std::string name;
  sched::RequestDag dag;
  Images pre;
};

void stamp_cookies(sched::RequestDag& dag) {
  for (std::size_t i = 0; i < dag.size(); ++i) {
    dag.request(i).cookie = (std::uint64_t{1} << 32) | i;
  }
}

Update fig12_update() {
  Update u{"fig12", {}, {}};
  net::Network net;
  const auto sites = net::build_b4(net, switchsim::profiles::ovs());
  Rng rng(550);
  u.dag = bench::b4_te_update(net, sites, 550, rng);
  stamp_cookies(u.dag);
  for (const SwitchId s : sites) {
    u.pre[s] = sched::image_of(net.sw(s).flow_stats(of::Match::any()));
  }
  return u;
}

Update acl_update() {
  Update u{"acl", {}, {}};
  constexpr SwitchId kSwitch = 1;
  const auto installed = workload::generate_classbench(workload::cb2());
  auto& image = u.pre[kSwitch];
  for (const auto& rule : installed) {
    of::FlowMod fm;
    fm.match = rule.match;
    fm.priority = static_cast<std::uint16_t>(10000 - rule.original_index);
    fm.actions = of::output_to(2);
    sched::apply_to_image(image, fm);
  }

  Rng rng(989);
  const auto request = [&](sched::RequestType type, const of::Match& match,
                           std::uint16_t priority) {
    sched::SwitchRequest req;
    req.location = kSwitch;
    req.type = type;
    req.match = match;
    req.priority = priority;
    req.actions = of::output_to(static_cast<std::uint16_t>(3 + rng.index(4)));
    u.dag.add(req);
  };
  for (std::size_t i = 0; i < 600; ++i) {
    const auto& rule = installed[rng.index(installed.size())];
    of::Match filter = rule.match;
    if (rng.chance(0.3)) {
      filter.wildcards |= of::kWildcardTpDst | of::kWildcardNwProto;
    }
    request(rng.chance(0.7) ? sched::RequestType::kMod : sched::RequestType::kDel,
            filter, kDefaultPriority);
  }
  auto added = workload::cb3();
  added.n_rules = 400;
  for (const auto& rule : workload::generate_classbench(added)) {
    request(sched::RequestType::kAdd, rule.match,
            static_cast<std::uint16_t>(20000 - rule.original_index));
  }
  stamp_cookies(u.dag);
  return u;
}

volatile std::size_t g_sink = 0;

/// Best-of-7 wall times of two journal builds, taken in alternation so a
/// slow spell of the host hits both.
template <typename A, typename B>
std::pair<double, double> best_ms(const A& a, const B& b) {
  using clock = std::chrono::steady_clock;
  const auto time = [](const auto& build) {
    const auto start = clock::now();
    g_sink = build().entries.size();
    return std::chrono::duration<double, std::milli>(clock::now() - start)
        .count();
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

/// Times reference vs production on one update; false if they differ.
bool compare(bench::BenchReport& report, const Update& u) {
  const auto production = [&u] {
    return sched::build_journal(u.dag, u.pre);
  };
  const auto reference = [&u] {
    return sched::testing::reference_build_journal(u.dag, u.pre);
  };
  const std::string diff =
      sched::testing::journal_difference(production(), reference());
  if (!diff.empty()) {
    std::printf("  %s: production and reference journals differ: %s\n",
                u.name.c_str(), diff.c_str());
    return false;
  }
  std::size_t pre_rules = 0;
  for (const auto& [sw, image] : u.pre) pre_rules += image.size();
  const auto [ref_ms, new_ms] = best_ms(reference, production);
  report.json().set_result("requests_" + u.name, static_cast<double>(u.dag.size()));
  report.json().set_result("pre_rules_" + u.name, static_cast<double>(pre_rules));
  report.json().set_result("ref_journal_" + u.name + "_ms", ref_ms);
  report.json().set_result("new_journal_" + u.name + "_ms", new_ms);
  report.json().set_result("speedup_journal_" + u.name,
                           new_ms > 0 ? ref_ms / new_ms : 0);
  std::printf("  %-6s %5zu requests, %5zu pre-image rules   ref %8.2f ms"
              "   new %7.2f ms   speedup %6.1fx\n",
              u.name.c_str(), u.dag.size(), pre_rules, ref_ms, new_ms,
              new_ms > 0 ? ref_ms / new_ms : 0);
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_journal: indexed transaction journal vs scan-based reference",
      "journal + post images of a fig12 TE update and a ClassBench ACL "
      "update; outputs identical (tests/test_properties.cpp), only the cost "
      "of building them changes");
  bench::BenchReport report("micro_journal");
  bool same = true;
  for (const Update& u : {fig12_update(), acl_update()}) {
    same = compare(report, u) && same;
  }
  bench::print_footer();
  return same ? 0 : 1;
}
