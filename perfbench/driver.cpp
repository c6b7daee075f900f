// End-to-end benchmark driver: runs one workload against the Tango library
// in a closed loop (one client; each op starts when the previous one
// returned) and prints the raw measurements as one JSON document on stdout.
// perfbench/run.py builds this program, turns the raw data into metrics and
// compares outputs with the recorded ones; perfbench/README.md explains the
// workloads.
//
//   perfbench_driver --workload te_update|switch_inference|chaos_recovery
//                    --seed N (--seconds S | --ops N) [--trace 0|1]
//                    [--trace-out FILE]
//
// Every number is taken from outside the library: wall time around public
// calls, plus counters read from public reports (Network::stats,
// Network::wall_ns, TransactionReport, ChaosResult). With --trace 1 the run
// alternates an untraced and a traced pass over the same fixed ops; the
// traced pass wraps the scheduler to time every order() call and records
// one span per library call, from which the per-layer figures are derived.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "common/logging.h"
#include "net/b4.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/knowledge_io.h"
#include "tango/tango.h"
#include "telemetry/json_util.h"
#include "telemetry/trace.h"
#include "workload/maxmin.h"

namespace {

using namespace tango;
namespace profiles = switchsim::profiles;

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Independent input seed for op `index` of a run seeded with `seed`.
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(splitmix64(seed) + index);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A FLOW_STATS reply over this many single-action rules overflows the
/// 16-bit OpenFlow length field and the readback path aborts; no table the
/// benchmark leaves behind may grow past it.
constexpr std::size_t kStatsReplyRuleLimit = 682;

// --- tracing -----------------------------------------------------------------

/// Wall-clock spans around the benchmark's calls into the library. Spans sit
/// in memory in a TraceCollector, stamped with wall ns since the tracer
/// started in place of simulated time, and are exported as a Chrome trace.
class Tracer {
 public:
  Tracer() : epoch_(wall_now_ns()) { trace_.set_process_name("perfbench"); }

  void set_enabled(bool on) { enabled_ = on; }

  void record(const char* cat, const char* name, std::int64_t begin,
              std::int64_t end) {
    if (!enabled_) return;
    trace_.span(cat, name, telemetry::TraceCollector::kControllerLane,
                SimTime{begin - epoch_}, SimTime{end - epoch_});
  }

  struct Totals {
    std::int64_t total_ns = 0;
    /// Span time not covered by the span's direct children.
    std::int64_t self_ns = 0;
    std::size_t count = 0;
  };

  /// Per span name: summed duration and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    const auto& events = trace_.events();
    std::vector<std::size_t> order(events.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].begin != events[b].begin) {
        return events[a].begin < events[b].begin;
      }
      return events[a].dur > events[b].dur;  // parent before child
    });
    std::vector<std::int64_t> child_ns(events.size(), 0);
    std::vector<std::size_t> open;
    for (const std::size_t i : order) {
      const auto begin = events[i].begin;
      while (!open.empty() &&
             events[open.back()].begin + events[open.back()].dur <= begin) {
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += events[i].dur.ns();
      open.push_back(i);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
      auto& t = out[events[i].name];
      t.total_ns += events[i].dur.ns();
      t.self_ns += events[i].dur.ns() - child_ns[i];
      ++t.count;
    }
    return out;
  }

  [[nodiscard]] const telemetry::TraceCollector& collector() const {
    return trace_;
  }

 private:
  std::int64_t epoch_;
  bool enabled_ = false;
  telemetry::TraceCollector trace_;
};

/// Times one call; records it as a span when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, const char* cat, const char* name)
      : tracer_(tracer), cat_(cat), name_(name), begin_(wall_now_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Ends the span (idempotent); returns its duration in ns.
  std::int64_t stop() {
    if (!stopped_) {
      stopped_ = true;
      end_ = wall_now_ns();
      tracer_.record(cat_, name_, begin_, end_);
    }
    return end_ - begin_;
  }

 private:
  Tracer& tracer_;
  const char* cat_;
  const char* name_;
  std::int64_t begin_;
  std::int64_t end_ = 0;
  bool stopped_ = false;
};

/// Delegating scheduler that times every order() call (traced pass only;
/// the untraced pass hands the bare scheduler to the transaction).
class TimedScheduler final : public sched::UpdateScheduler {
 public:
  TimedScheduler(sched::UpdateScheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<std::size_t> order(const sched::RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    ++rounds;
    ready_sum += ready.size();
    ready_max = std::max(ready_max, ready.size());
    Span span(tracer_, "scheduler", "schedulers.order");
    return inner_.order(dag, std::move(ready));
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::size_t rounds = 0;
  std::size_t ready_sum = 0;
  std::size_t ready_max = 0;

 private:
  sched::UpdateScheduler& inner_;
  Tracer& tracer_;
};

// --- per-op results and per-layer sums ---------------------------------------

struct OpRecord {
  std::uint64_t index = 0;
  /// Identity of the op's input (expected outputs are recorded per key).
  std::string key;
  bool traced = false;
  /// Wall time of the op itself (what the e2e latency metrics use).
  std::int64_t ns = 0;
  /// Units of useful work: requests committed, messages exchanged, runs.
  double work = 0;
  /// Output digest compared against the recorded expected outputs.
  std::string digest;
  /// Empty when every self-check passed.
  std::string error;
};

/// Per-op quantities summed over the traced ops ("max" keys keep maxima).
class LayerSums {
 public:
  void add(const std::string& key, double v) { sums_[key] += v; }
  void max(const std::string& key, double v) {
    sums_[key] = std::max(sums_[key], v);
  }
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> sums_;
};

net::ChannelStats total_stats(net::Network& net) {
  net::ChannelStats sum;
  for (SwitchId id = 1; id <= net.switch_count(); ++id) {
    const auto& s = net.stats(id);
    sum.messages_to_switch += s.messages_to_switch;
    sum.bytes_to_switch += s.bytes_to_switch;
    sum.messages_to_controller += s.messages_to_controller;
    sum.bytes_to_controller += s.bytes_to_controller;
    sum.flow_mods += s.flow_mods;
    sum.packets_out += s.packets_out;
  }
  return sum;
}

void add_net_deltas(LayerSums& sums, const net::ChannelStats& before,
                    const net::ChannelStats& after) {
  sums.add("messages", static_cast<double>(
                           (after.messages_to_switch - before.messages_to_switch) +
                           (after.messages_to_controller -
                            before.messages_to_controller)));
  sums.add("bytes",
           static_cast<double>((after.bytes_to_switch - before.bytes_to_switch) +
                               (after.bytes_to_controller -
                                before.bytes_to_controller)));
  sums.add("flow_mods", static_cast<double>(after.flow_mods - before.flow_mods));
  sums.add("packets_out",
           static_cast<double>(after.packets_out - before.packets_out));
}

void add_txn_report(LayerSums& sums, const sched::TransactionReport& r) {
  sums.add("issued", static_cast<double>(r.exec.issued));
  sums.add("retries", static_cast<double>(r.exec.retries));
  sums.add("timeouts", static_cast<double>(r.exec.timeouts));
  sums.add("readbacks", static_cast<double>(r.readback_requests));
  sums.add("readback_lost", static_cast<double>(r.readback_lost));
  sums.add("reconciled", r.reconciled ? 1.0 : 0.0);
  sums.add("reconcile_rounds", static_cast<double>(r.reconcile_rounds));
  sums.add("repairs", static_cast<double>(r.repairs_issued));
  sums.add("stale_removed", static_cast<double>(r.stale_rules_removed));
}

/// FNV-1a digest of a switch's table as the fingerprints fold it.
void fold_table(std::uint64_t& h, SwitchId id, const sched::TableImage& image) {
  chaos::fnv_fold(h, id);
  for (const auto& [key, rule] : image) {
    chaos::fnv_fold_str(h, key);
    chaos::fnv_fold(h, rule.cookie);
    chaos::fnv_fold(h, rule.priority);
    chaos::fnv_fold(h, rule.actions.size());
    chaos::fnv_fold(h, of::output_port(rule.actions));
  }
}

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// A run ends only on a multiple of this many ops, so every run of a
  /// workload sees the same mix of op kinds.
  [[nodiscard]] virtual std::size_t cycle() const = 0;
  /// Ops the traced run repeats (fixed, so its counts repeat exactly).
  [[nodiscard]] virtual std::size_t traced_ops() const = 0;
  /// One set-up from nothing: the worlds and inputs of the first cycle's
  /// ops (the ops rebuild their own, untimed, as they go).
  virtual void setup(Tracer& tracer) = 0;
  /// Run op `index`. Input generation and output checks stay outside the
  /// op's timed region. `sums` is non-null on the traced pass.
  virtual OpRecord run(std::uint64_t index, Tracer& tracer, LayerSums* sums) = 0;
  /// Largest flow table any op left behind.
  std::size_t max_table_rules = 0;
};

// te_update: one B4 traffic-engineering update per op, committed through
// TangoController::begin_update + UpdateTransaction::commit with the Basic
// Tango Scheduler, on a fresh network whose 12 OVS sites adopt one learned
// OVS cost record.
class TeUpdate final : public Workload {
 public:
  explicit TeUpdate(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::size_t cycle() const override { return 1; }
  [[nodiscard]] std::size_t traced_ops() const override { return 4; }

  void setup(Tracer& tracer) override {
    Span span(tracer, "setup", "setup");
    {
      Span learn(tracer, "tango", "tango.cost_learn");
      net::Network net;
      const auto id = net.add_switch(profiles::ovs());
      core::TangoController tango(net);
      core::LearnOptions options;
      options.size.max_rules = 512;
      options.infer_policy = false;
      ovs_ = tango.learn(id, options);
    }
    prepare(0, tracer);
  }

  OpRecord run(std::uint64_t index, Tracer& tracer, LayerSums* sums) override {
    auto world = prepare(index, tracer);
    auto& net = *world.net;

    std::map<SwitchId, core::OpCostEstimate> costs;
    for (const auto s : world.sites) costs[s] = ovs_.costs;
    sched::BasicTangoScheduler bare(costs);
    TimedScheduler timed(bare, tracer);
    sched::UpdateScheduler& scheduler =
        sums != nullptr ? static_cast<sched::UpdateScheduler&>(timed) : bare;

    sched::TransactionOptions topts;
    topts.txn_id = 1;  // fresh network per op: pinned so cookies replay

    OpRecord rec;
    rec.index = index;
    rec.key = std::to_string(seed_) + ":" + std::to_string(index);
    rec.work = static_cast<double>(world.dag.size());
    const auto stats_before = total_stats(net);
    const auto loop_before = net.wall_ns();
    Span op(tracer, "te_update", "te_update.update");
    Span begin(tracer, "transaction", "transaction.begin");
    auto txn = world.tango->begin_update(std::move(world.dag), topts);
    begin.stop();
    Span commit(tracer, "transaction", "transaction.commit");
    const sched::TransactionReport* report = &txn.commit(scheduler);
    commit.stop();
    rec.ns = op.stop();

    // Output checks: a clean commit, every site at its post image, no table
    // over the stats-reply limit.
    std::uint64_t h = chaos::kFnvOffsetBasis;
    chaos::fnv_fold(h, static_cast<std::uint64_t>(report->exec.makespan.ns()));
    chaos::fnv_fold(h, report->exec.issued);
    std::set<SwitchId> affected;
    for (const auto& entry : txn.journal()) affected.insert(entry.location);
    if (!report->committed) rec.error = "update not committed";
    if (report->exec.rejected != 0 || report->exec.failed_requests != 0) {
      rec.error = "update had rejected or failed requests";
    }
    for (const auto s : world.sites) {
      const auto image = sched::image_of(net.sw(s).flow_stats(of::Match::any()));
      max_table_rules = std::max(max_table_rules, image.size());
      if (image.size() > kStatsReplyRuleLimit) {
        rec.error = "site " + std::to_string(s) + " holds " +
                    std::to_string(image.size()) + " rules";
      }
      if (affected.count(s) != 0 && image != txn.post_image(s)) {
        rec.error = "site " + std::to_string(s) + " differs from its post image";
      }
      fold_table(h, s, image);
    }
    rec.digest = hex64(h);

    if (sums != nullptr) {
      sums->add("ops", 1);
      sums->add("op_ns", static_cast<double>(rec.ns));
      sums->add("rounds", static_cast<double>(timed.rounds));
      sums->add("ready_sum", static_cast<double>(timed.ready_sum));
      sums->max("ready_max", static_cast<double>(timed.ready_max));
      sums->add("loop_ns", static_cast<double>(net.wall_ns() - loop_before));
      add_net_deltas(*sums, stats_before, total_stats(net));
      add_txn_report(*sums, *report);
    }
    return rec;
  }

 private:
  struct World {
    std::unique_ptr<net::Network> net;
    std::vector<SwitchId> sites;
    std::unique_ptr<core::TangoController> tango;
    sched::RequestDag dag;
  };

  static constexpr std::size_t kDemands = 550;

  /// bench_fig12_b4_te's update at a quarter of its demands: a max-min
  /// reallocation after a traffic-matrix change and a link failure.
  static sched::RequestDag build_update(net::Network& net,
                                        const std::vector<SwitchId>& sites,
                                        Rng& rng) {
    auto& topo = net.topology();
    auto before_demands = workload::random_demands(topo, kDemands, rng);
    const auto before = workload::maxmin_allocate(topo, before_demands);

    auto after_demands = before_demands;
    std::vector<workload::Demand> next;
    for (auto& d : after_demands) {
      if (rng.chance(0.15)) continue;  // demand gone
      if (rng.chance(0.30)) d.requested_gbps = rng.uniform_real(0.05, 1.0);
      next.push_back(d);
    }
    for (std::size_t i = 0; i < kDemands * 3 / 20; ++i) {
      workload::Demand d;
      d.src = rng.index(topo.node_count());
      do {
        d.dst = rng.index(topo.node_count());
      } while (d.dst == d.src);
      d.requested_gbps = rng.uniform_real(0.05, 1.0);
      d.flow_id = static_cast<std::uint32_t>(kDemands + i);
      next.push_back(d);
    }
    topo.set_link_state(3, false);  // perturb routing
    const auto after = workload::maxmin_allocate(topo, next);
    topo.set_link_state(3, true);
    return workload::te_update_dag(before, after, sites, rng);
  }

  World prepare(std::uint64_t index, Tracer& tracer) {
    Span span(tracer, "workload", "workload.generate");
    World w;
    w.net = std::make_unique<net::Network>();
    w.sites = net::build_b4(*w.net, profiles::ovs());
    w.tango = std::make_unique<core::TangoController>(*w.net);
    for (const auto s : w.sites) {
      auto know = ovs_;
      know.switch_id = s;
      w.tango->adopt(std::move(know));
    }
    Rng rng(op_seed(seed_, index));
    w.dag = build_update(*w.net, w.sites, rng);
    return w;
  }

  std::uint64_t seed_;
  core::SwitchKnowledge ovs_;
};

// switch_inference: one TangoController::learn() of a fresh switch per op,
// cycling through the paper's four switches and six policy caches.
class SwitchInference final : public Workload {
 public:
  explicit SwitchInference(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::size_t cycle() const override { return fleet().size(); }
  [[nodiscard]] std::size_t traced_ops() const override { return cycle(); }

  void setup(Tracer& tracer) override {
    Span span(tracer, "setup", "setup");
    for (std::uint64_t i = 0; i < cycle(); ++i) prepare(i, tracer);
  }

  OpRecord run(std::uint64_t index, Tracer& tracer, LayerSums* sums) override {
    auto world = prepare(index, tracer);
    auto& net = *world.net;
    core::LearnOptions options;
    options.size.max_rules = 4096;
    // HW switch #1's 2047-entry TCAM would otherwise qualify for policy
    // inference: 44 s and 32M messages for one learn, against an
    // architecture that has no eviction policy to find (it never evicts).
    options.max_policy_cache_size = 1024;

    OpRecord rec;
    rec.index = index;
    rec.key = std::to_string(seed_) + ":" + std::to_string(index);
    const auto stats_before = total_stats(net);
    const auto loop_before = net.wall_ns();
    const core::SwitchKnowledge* know = nullptr;
    {
      Span learn(tracer, "tango", "tango.learn");
      know = &world.tango->learn(world.id, options);
      rec.ns = learn.stop();
    }
    const auto stats_after = total_stats(net);
    rec.work = static_cast<double>(
        (stats_after.messages_to_switch - stats_before.messages_to_switch) +
        (stats_after.messages_to_controller - stats_before.messages_to_controller));

    // Output checks: the inferred policy leads with the configured keys.
    std::ostringstream text;
    core::write_knowledge(text, know->name, *know);
    std::uint64_t h = chaos::kFnvOffsetBasis;
    chaos::fnv_fold_str(h, text.str());
    rec.digest = hex64(h);
    const auto& profile = net.sw(world.id).profile();
    if (profile.arch == switchsim::Architecture::kPolicyCache) {
      const auto& want = profile.policy.keys();
      if (!know->policy.has_value()) {
        rec.error = know->name + ": no policy inferred";
      } else if (const auto& got = know->policy->policy.keys();
                 got.size() < want.size() ||
                 !std::equal(want.begin(), want.end(), got.begin())) {
        rec.error = know->summary() + ": policy != configured " +
                    profile.policy.describe();
      }
    } else if (know->policy.has_value()) {
      rec.error = know->name + ": policy inferred on a switch without one";
    }
    max_table_rules =
        std::max(max_table_rules, net.sw(world.id).total_rules());

    if (sums != nullptr) {
      sums->add("ops", 1);
      sums->add("op_ns", static_cast<double>(rec.ns));
      sums->add("loop_ns", static_cast<double>(net.wall_ns() - loop_before));
      sums->add("policy_rounds",
                know->policy.has_value()
                    ? static_cast<double>(know->policy->rounds)
                    : 0.0);
      add_net_deltas(*sums, stats_before, stats_after);
    }
    return rec;
  }

 private:
  struct World {
    std::unique_ptr<net::Network> net;
    SwitchId id = 0;
    std::unique_ptr<core::TangoController> tango;
  };

  static const std::vector<switchsim::SwitchProfile>& fleet() {
    static const std::vector<switchsim::SwitchProfile> kFleet = [] {
      using tables::Attribute;
      using tables::Direction;
      using tables::LexCachePolicy;
      auto out = profiles::paper_fleet();
      auto cache = [&](const char* name, std::size_t size, LexCachePolicy policy) {
        out.push_back(profiles::policy_cache(name, {size}, std::move(policy)));
      };
      // LRU-60 and FIFO-180 are there for steady statistics: with them the
      // median learn falls in the middle of two kinds of like cost (LRU-60,
      // FIFO-100) instead of in the gap between two kinds, where it moved
      // by 20-30% between runs, and the tail falls among ~30 learns of like
      // work (FIFO-180 and priority->use-time-120, ~205k messages each)
      // instead of ~17, where how many the host slowed decided it.
      cache("lru-60", 60, LexCachePolicy::lru());
      cache("fifo-100", 100, LexCachePolicy::fifo());
      cache("lru-100", 100, LexCachePolicy::lru());
      cache("lfu-100", 100, LexCachePolicy::lfu());
      cache("fifo-180", 180, LexCachePolicy::fifo());
      cache("prio-use-120", 120,
            LexCachePolicy::lex({{Attribute::kPriority, Direction::kPreferHigh},
                                 {Attribute::kUseTime, Direction::kPreferHigh}}));
      return out;
    }();
    return kFleet;
  }

  World prepare(std::uint64_t index, Tracer& tracer) {
    Span span(tracer, "net", "net.build");
    World w;
    w.net = std::make_unique<net::Network>();
    w.id = w.net->add_switch(fleet()[index % fleet().size()],
                             op_seed(seed_, index));
    w.tango = std::make_unique<core::TangoController>(*w.net);
    return w;
  }

  std::uint64_t seed_;
};

// chaos_recovery: one chaos::run_chaos(generate_schedule(spec)) per op over
// the long-horizon, wire-fault grid {fig10, te, acl} x {roll-forward,
// rollback}. Chaos seeds are consecutive from the workload seed, wrapped
// into 1..100 — the range whose 600 runs are recorded clean.
class ChaosRecovery final : public Workload {
 public:
  explicit ChaosRecovery(std::uint64_t seed) : seed_(seed) {}

  /// One pass over the whole grid: every run measures the same 600 inputs,
  /// each once per pass and on another CPU in every pass, and set-up time
  /// does not depend on the seed (six schedules took 13-19 us by seed).
  [[nodiscard]] std::size_t cycle() const override { return 6 * kSeedSpan; }
  [[nodiscard]] std::size_t traced_ops() const override { return 6; }

  void setup(Tracer& tracer) override {
    Span span(tracer, "setup", "setup");
    for (std::uint64_t i = 0; i < cycle(); ++i) schedule_of(i, tracer);
  }

  OpRecord run(std::uint64_t index, Tracer& tracer, LayerSums* sums) override {
    const auto schedule = schedule_of(index, tracer);
    OpRecord rec;
    rec.index = index;
    rec.key = std::to_string(schedule.spec.seed) + ":" +
              chaos::to_string(schedule.spec.workload) + ":" +
              sched::to_string(schedule.spec.policy);
    rec.work = 1;
    chaos::ChaosResult result;
    {
      Span run(tracer, "chaos", "chaos.run");
      result = chaos::run_chaos(schedule);
      rec.ns = run.stop();
    }
    rec.digest = hex64(result.fingerprint);
    if (!result.ok()) {
      rec.error = "oracle " + result.violations.front().oracle + ": " +
                  result.violations.front().detail;
    }
    if (sums != nullptr) {
      sums->add("ops", 1);
      sums->add("op_ns", static_cast<double>(rec.ns));
      sums->add("loop_ns", static_cast<double>(result.wall_ns));
      add_txn_report(*sums, result.report);
      for (const auto& [id, fs] : result.fault_stats) {
        sums->add("crashes", static_cast<double>(fs.crashes));
        sums->add("partitions", static_cast<double>(fs.partitions));
        sums->add("frames_dropped", static_cast<double>(fs.dropped_to_switch +
                                                        fs.dropped_to_controller));
      }
      sums->add("violations", static_cast<double>(result.violations.size()));
    }
    return rec;
  }

 private:
  static constexpr std::uint64_t kSeedSpan = 100;

  [[nodiscard]] chaos::ChaosSpec spec_of(std::uint64_t index) const {
    static constexpr chaos::Workload kWorkloads[] = {
        chaos::Workload::kFig10, chaos::Workload::kTrafficEngineering,
        chaos::Workload::kAcl};
    chaos::ChaosSpec spec;
    spec.seed = 1 + (seed_ + kSeedSpan - 1 + index / 6) % kSeedSpan;
    spec.workload = kWorkloads[(index % 6) / 2];
    spec.policy = index % 2 == 0 ? sched::RecoveryPolicy::kRollForward
                                 : sched::RecoveryPolicy::kRollBack;
    spec.horizon = chaos::Horizon::kLong;
    return spec;
  }

  chaos::ChaosSchedule schedule_of(std::uint64_t index, Tracer& tracer) const {
    Span span(tracer, "chaos", "chaos.schedule");
    return chaos::generate_schedule(spec_of(index));
  }

  std::uint64_t seed_;
};

// --- per-layer metrics ---------------------------------------------------------

/// Every per-layer metric, on every workload (0 where a layer is idle).
std::map<std::string, double> layer_metrics(
    const LayerSums& s, const std::map<std::string, Tracer::Totals>& spans,
    double overhead_ms, double untraced_p50_ms) {
  const double ops = std::max(1.0, s.get("ops"));
  auto span_ms = [&](const char* name, bool self) {
    const auto it = spans.find(name);
    if (it == spans.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns : it->second.total_ns) /
           1e6;
  };
  auto span_mean_ms = [&](const char* name) {
    const auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) / 1e6 /
           static_cast<double>(it->second.count);
  };
  auto per_op = [&](const char* key) { return s.get(key) / ops; };
  auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };

  const double op_ms = s.get("op_ns") / 1e6;
  const double loop_ms = s.get("loop_ns") / 1e6;
  const double order_ms = span_ms("schedulers.order", false);
  const double learn_ms = span_ms("tango.learn", false);
  const double messages = s.get("messages");

  std::map<std::string, double> m;
  m["schedulers.order_ms"] = order_ms / ops;
  m["schedulers.order_share"] = share(order_ms, op_ms);
  m["schedulers.rounds"] = per_op("rounds");
  m["schedulers.ready_mean"] = share(s.get("ready_sum"), s.get("rounds"));
  m["schedulers.ready_max"] = s.get("ready_max");
  m["executor.self_ms"] = span_ms("transaction.commit", true) / ops;
  m["executor.issued"] = per_op("issued");
  m["executor.retries"] = per_op("retries");
  m["executor.timeouts"] = per_op("timeouts");
  m["executor.retry_share"] = share(s.get("retries"), s.get("issued"));
  m["transaction.begin_ms"] = span_ms("transaction.begin", false) / ops;
  m["transaction.readbacks"] = per_op("readbacks");
  m["transaction.readback_lost"] = per_op("readback_lost");
  m["transaction.reconciled_share"] = per_op("reconciled");
  m["reconciler.rounds"] = per_op("reconcile_rounds");
  m["reconciler.repairs"] = per_op("repairs");
  m["reconciler.stale_removed"] = per_op("stale_removed");
  m["sim.loop_ms"] = loop_ms / ops;
  m["sim.loop_share"] = share(loop_ms, op_ms);
  // Only where the event loop carries every message (learn() pumps the
  // queue through Network; the executor and run_chaos step it themselves).
  m["net.ns_per_message"] =
      learn_ms > 0 && messages > 0 ? s.get("loop_ns") / messages : 0.0;
  m["net.messages"] = per_op("messages");
  m["net.bytes"] = per_op("bytes");
  m["net.flow_mods"] = per_op("flow_mods");
  m["net.packets_out"] = per_op("packets_out");
  m["net.crashes"] = per_op("crashes");
  m["net.partitions"] = per_op("partitions");
  m["net.frames_dropped"] = per_op("frames_dropped");
  m["tango.self_ms"] = learn_ms > 0 ? (learn_ms - loop_ms) / ops : 0.0;
  m["tango.policy_rounds"] = per_op("policy_rounds");
  m["tango.cost_learn_ms"] = span_mean_ms("tango.cost_learn");
  m["chaos.violations"] = per_op("violations");
  m["chaos.schedule_ms"] = span_mean_ms("chaos.schedule");
  m["workload.gen_ms"] = span_mean_ms("workload.generate");
  m["trace.overhead_ms"] = overhead_ms;
  m["trace.overhead_share"] = share(overhead_ms, untraced_p50_ms);
  return m;
}

double median_ms(std::vector<std::int64_t> ns) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const std::size_t n = ns.size();
  const double mid = n % 2 == 1 ? static_cast<double>(ns[n / 2])
                                : (static_cast<double>(ns[n / 2 - 1]) +
                                   static_cast<double>(ns[n / 2])) /
                                      2.0;
  return mid / 1e6;
}

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Moves the process to another CPU it may run on before every op and every
/// set-up. On a shared host a CPU can run 1.3-1.8x slower for seconds on
/// end, so a process that stays put measures whichever spell it lands in.
/// Measured on a 4-vCPU VM, 6 interleaved 8 s runs per variant: te_update
/// p50 spread (IQR/median) 0.04 moving before every op, 0.17 moving every
/// 10 ms from a helper thread; chaos_recovery 0.03 moving before every op,
/// 0.07 moving every 100 ms, 0.36 never moving. Every op starts on cold
/// caches; that cost is part of what is measured, the same on every run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  /// Move to the CPU for op `index` of a workload whose ops come in
  /// cycles of `cycle` kinds: consecutive ops go to consecutive CPUs, and
  /// each cycle starts one CPU further on, so every op kind visits every
  /// CPU (plain round robin would pin kind k of an 8-op cycle to one CPU).
  void move_for(std::uint64_t index, std::uint64_t cycle) {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[(index % cycle + index / cycle) % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
};

// --- output ------------------------------------------------------------------

void append_key(std::string& out, const std::string& key) {
  telemetry::append_quoted(out, key);
  out += ':';
}

std::string to_json(const std::string& workload, std::uint64_t seed, bool trace,
                    const std::vector<std::int64_t>& setup_ns,
                    const std::vector<OpRecord>& ops,
                    const std::map<std::string, double>& layers,
                    std::size_t max_table_rules, std::uint64_t rss_kb) {
  using telemetry::append_number;
  using telemetry::append_quoted;
  std::string out = "{";
  append_key(out, "workload");
  append_quoted(out, workload);
  out += ',';
  append_key(out, "seed");
  append_number(out, static_cast<double>(seed));
  out += ',';
  append_key(out, "trace");
  out += trace ? "1" : "0";
  out += ',';
  append_key(out, "setup_ns");
  out += '[';
  for (std::size_t i = 0; i < setup_ns.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, static_cast<double>(setup_ns[i]));
  }
  out += "],";
  append_key(out, "ops");
  out += "[\n";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    if (i > 0) out += ",\n";
    out += '{';
    append_key(out, "index");
    append_number(out, static_cast<double>(op.index));
    out += ',';
    append_key(out, "key");
    append_quoted(out, op.key);
    out += ',';
    append_key(out, "traced");
    out += op.traced ? "true" : "false";
    out += ',';
    append_key(out, "ns");
    append_number(out, static_cast<double>(op.ns));
    out += ',';
    append_key(out, "work");
    append_number(out, op.work);
    out += ',';
    append_key(out, "digest");
    append_quoted(out, op.digest);
    out += ',';
    append_key(out, "error");
    append_quoted(out, op.error);
    out += '}';
  }
  out += "],\n";
  append_key(out, "layers");
  out += '{';
  bool first = true;
  for (const auto& [name, v] : layers) {
    if (!first) out += ',';
    first = false;
    append_key(out, name);
    append_number(out, v);
  }
  out += "},";
  append_key(out, "max_table_rules");
  append_number(out, static_cast<double>(max_table_rules));
  out += ',';
  append_key(out, "peak_rss_kb");
  append_number(out, static_cast<double>(rss_kb));
  out += "}\n";
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "te_update|switch_inference|chaos_recovery --seed N "
               "(--seconds S | --ops N) [--trace 0|1] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 0;
  std::uint64_t fixed_ops = 0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--ops") {
      fixed_ops = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (seconds <= 0 && fixed_ops == 0) return usage("need --seconds or --ops");

  std::unique_ptr<Workload> workload;
  if (workload_name == "te_update") {
    workload = std::make_unique<TeUpdate>(seed);
  } else if (workload_name == "switch_inference") {
    workload = std::make_unique<SwitchInference>(seed);
  } else if (workload_name == "chaos_recovery") {
    workload = std::make_unique<ChaosRecovery>(seed);
  } else {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }

  // Chaos sweeps log hundreds of recovery warnings; none of that I/O may
  // land inside a timed op.
  log::set_threshold(log::Level::kOff);

  Tracer tracer;
  // Set up repeatedly (at least 5 times, for at least a quarter second)
  // so the median of even a microsecond-scale set-up is steady. Only the
  // first five are traced, which keeps the trace small.
  constexpr std::size_t kMinSetups = 5;
  CpuRotation cpus;
  std::vector<std::int64_t> setup_ns;
  for (std::int64_t spent = 0;
       setup_ns.size() < kMinSetups ||
       (spent < 250'000'000 && setup_ns.size() < 1000);) {
    tracer.set_enabled(trace && setup_ns.size() < kMinSetups);
    cpus.move_for(setup_ns.size(), 1);
    const auto t0 = wall_now_ns();
    workload->setup(tracer);
    setup_ns.push_back(wall_now_ns() - t0);
    spent += setup_ns.back();
  }
  std::vector<OpRecord> ops;
  std::map<std::string, double> layers;
  const auto loop_begin = wall_now_ns();
  auto elapsed_s = [&] {
    return static_cast<double>(wall_now_ns() - loop_begin) / 1e9;
  };
  if (!trace) {
    for (std::uint64_t i = 0;; ++i) {
      cpus.move_for(i, workload->cycle());
      ops.push_back(workload->run(i, tracer, nullptr));
      const bool cycle_end = (i + 1) % workload->cycle() == 0;
      if (fixed_ops != 0 ? i + 1 >= fixed_ops : cycle_end && elapsed_s() >= seconds) {
        break;
      }
    }
  } else {
    // Alternate untraced and traced passes over the same fixed ops until
    // the time is up: the traced pass yields the per-layer figures, the
    // pair the tracing overhead.
    LayerSums sums;
    std::vector<std::int64_t> untraced_ns;
    std::vector<std::int64_t> traced_ns;
    const std::size_t n = workload->traced_ops();
    for (std::size_t round = 0;; ++round) {
      tracer.set_enabled(false);
      for (std::uint64_t i = 0; i < n; ++i) {
        cpus.move_for(round * n + i, n);
        ops.push_back(workload->run(i, tracer, nullptr));
        untraced_ns.push_back(ops.back().ns);
      }
      tracer.set_enabled(true);
      for (std::uint64_t i = 0; i < n; ++i) {
        cpus.move_for(round * n + i, n);
        ops.push_back(workload->run(i, tracer, &sums));
        ops.back().traced = true;
        traced_ns.push_back(ops.back().ns);
      }
      if (fixed_ops != 0 ? (round + 1) * n >= fixed_ops : elapsed_s() >= seconds) {
        break;
      }
    }
    const double untraced_p50 = median_ms(untraced_ns);
    layers = layer_metrics(sums, tracer.totals(),
                           median_ms(traced_ns) - untraced_p50, untraced_p50);
    if (!trace_out.empty() && !tracer.collector().write_chrome_json(trace_out)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }

  // Read before the output is built: a 3,000-op document is a few hundred
  // KB and would add its op-count-dependent size to the peak.
  const auto rss_kb = peak_rss_kb();
  const std::string json = to_json(workload_name, seed, trace, setup_ns, ops,
                                   layers, workload->max_table_rules, rss_kb);
  std::fwrite(json.data(), 1, json.size(), stdout);
  return 0;
}
