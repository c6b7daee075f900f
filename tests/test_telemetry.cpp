// Telemetry subsystem tests: metrics instruments (bucket edge cases),
// trace collection and Chrome-JSON export (validated with a mini JSON
// parser), run-report schema, the log sink bridge, and the two properties
// the subsystem promises the rest of the repo:
//   - determinism: two same-seed fault-injected runs export byte-identical
//     traces (wall-clock stamping off);
//   - zero overhead: attaching telemetry does not change simulated
//     behaviour — makespan and every report counter are identical with the
//     collector on and off.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "telemetry/log_bridge.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/trace.h"
#include "workload/scenarios.h"

namespace tango::telemetry {
namespace {

namespace profiles = switchsim::profiles;

// ---------------------------------------------------------------------------
// Mini JSON validator (syntax only) — enough to prove exported documents
// parse, without pulling in a JSON dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics instruments
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterIncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(MetricsTest, HistogramBucketEdges) {
  // Upper-inclusive buckets: (-inf,1], (1,2], (2,5], (5,inf).
  Histogram h({1.0, 2.0, 5.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);

  h.observe(1.0);   // exactly on first bound -> bucket 0
  h.observe(2.0);   // exactly on second bound -> bucket 1
  h.observe(5.0);   // exactly on last bound -> bucket 2
  h.observe(5.0000001);  // just above last bound -> overflow
  h.observe(0.25);  // below first bound -> bucket 0
  h.observe(-3.0);  // negative still lands in the first bucket
  h.observe(1e12);  // far overflow

  EXPECT_EQ(h.bucket_counts()[0], 3u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  EXPECT_NEAR(h.sum(), 1.0 + 2.0 + 5.0 + 5.0000001 + 0.25 - 3.0 + 1e12, 1e-3);
}

TEST(MetricsTest, EmptyHistogramReportsZeroMinMax) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricsTest, RegistryGetOrCreateIsStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.hits");
  Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);  // same instrument, stable address

  // First caller wins on histogram bounds.
  Histogram& h1 = reg.histogram("x.lat", {1.0, 2.0});
  Histogram& h2 = reg.histogram("x.lat", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);

  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.find_counter("x.hits"), &a);

  // Ordered iteration: names come back sorted.
  reg.counter("a.first");
  auto it = reg.counters().begin();
  EXPECT_EQ(it->first, "a.first");
  ++it;
  EXPECT_EQ(it->first, "x.hits");
}

// ---------------------------------------------------------------------------
// Trace collector + Chrome export
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsSpansAndInstants) {
  TraceCollector tc;
  tc.span("cat", "work", 1, SimTime{100}, SimTime{300},
          {arg("n", std::uint64_t{7})});
  tc.instant("cat", "tick", TraceCollector::kControllerLane,
             SimTime{150});
  ASSERT_EQ(tc.events().size(), 2u);
  EXPECT_EQ(tc.events()[0].phase, TraceEvent::Phase::kSpan);
  EXPECT_EQ(tc.events()[0].dur.ns(), 200);
  EXPECT_EQ(tc.events()[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(tc.events()[1].dur.ns(), 0);
  EXPECT_EQ(tc.dropped_events(), 0u);

  tc.clear();
  EXPECT_TRUE(tc.events().empty());
}

TEST(TraceTest, CapacityDropsInsteadOfGrowing) {
  TraceCollector tc;
  tc.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    tc.instant("c", "e", 0, SimTime{i});
  }
  EXPECT_EQ(tc.events().size(), 2u);
  EXPECT_EQ(tc.dropped_events(), 3u);
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  TraceCollector tc;
  tc.set_process_name("test proc");
  tc.set_lane_name(3, "switch \"three\"\n");  // needs escaping
  tc.span("exec", "span", 3, SimTime{1500}, SimTime{4500},
          {arg("ok", true),
           arg_str("note", "quote\" backslash\\ ctrl\x01 done")});
  tc.instant("fault", "crash", 3, SimTime{2000});

  const std::string json = tc.to_chrome_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  // Structural landmarks of the trace-event format.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Simulated ns -> fractional us.
  EXPECT_NE(json.find("\"ts\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
}

TEST(TraceTest, RunReportJsonIsWellFormedAndComplete) {
  Telemetry t;
  t.metrics.counter("a.count").inc(3);
  t.metrics.gauge("a.level").set(0.5);
  t.metrics.histogram("a.lat", {1.0, 10.0}).observe(4.0);
  t.trace.span("exec", "run", 0, SimTime{0}, SimTime{10});
  t.trace.span("other", "skipme", 0, SimTime{0}, SimTime{5});

  RunReport report("unit \"test\"");
  report.set_result("score", 1.25);
  report.set_result("label", "li\"ne\n2");
  report.add_row().col("k", 1.0).col("s", "v");
  report.add_metrics(t.metrics);
  report.add_spans(t.trace, {"exec"});

  const std::string json = report.to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  for (const char* key :
       {"\"schema\"", "\"name\"", "\"results\"", "\"rows\"", "\"counters\"",
        "\"gauges\"", "\"histograms\"", "\"spans\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("tango.run_report.v1"), std::string::npos);
  // Category filter applied.
  EXPECT_NE(json.find("\"run\""), std::string::npos);
  EXPECT_EQ(json.find("skipme"), std::string::npos);
}

TEST(TraceTest, EmptyReportStillHasAllKeys) {
  RunReport report("empty");
  const std::string json = report.to_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  for (const char* key :
       {"\"results\"", "\"rows\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"spans\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// Log sink bridge
// ---------------------------------------------------------------------------

TEST(LogBridgeTest, TeesPassedLinesIntoTraceAndMetrics) {
  Telemetry t;
  SimTime fake_now{777};
  log::set_sink(tee_log_sink(t, [&fake_now] { return fake_now; }));
  const auto prev = log::threshold();
  log::set_threshold(log::Level::kWarn);

  log::warn("something odd");
  log::info("below threshold — must not record");

  log::set_sink({});
  log::set_threshold(prev);

  ASSERT_EQ(t.trace.events().size(), 1u);
  EXPECT_EQ(t.trace.events()[0].cat, "log");
  EXPECT_EQ(t.trace.events()[0].name, "warn");
  EXPECT_EQ(t.trace.events()[0].begin.ns(), 777);
  ASSERT_NE(t.metrics.find_counter("log.warn"), nullptr);
  EXPECT_EQ(t.metrics.find_counter("log.warn")->value(), 1u);
  EXPECT_EQ(t.metrics.find_counter("log.info"), nullptr);
}

// ---------------------------------------------------------------------------
// Determinism + zero overhead on a fault-injected execution
// ---------------------------------------------------------------------------

struct ScenarioRun {
  sched::ExecutionReport report;
  std::string trace_json;
  std::uint64_t flow_mods = 0;
  std::uint64_t retries = 0;
};

/// A small link-failure update on the fig10 triangle under 4% loss: enough
/// recovery activity to exercise spans, instants, and fault counters.
ScenarioRun run_scenario(bool with_telemetry) {
  ScenarioRun out;
  net::Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());

  Telemetry tele;
  if (with_telemetry) net.set_telemetry(&tele);

  for (const auto id : {ids.s1, ids.s2, ids.s3}) {
    net::FaultConfig cfg;
    cfg.drop_to_switch = 0.04;
    cfg.drop_to_controller = 0.04;
    cfg.seed = 51 + id;
    net.enable_faults(id, cfg);
  }

  Rng rng(7);
  const auto dag = workload::link_failure_scenario(ids, 60, rng, 0);
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(50);
  opts.max_retries = 5;
  opts.backoff_base = millis(2);
  out.report = execute(net, dag, sched, opts);

  if (with_telemetry) {
    out.trace_json = tele.trace.to_chrome_json();
    if (const auto* c = tele.metrics.find_counter("switch.flow_mods")) {
      out.flow_mods = c->value();
    }
    if (const auto* c = tele.metrics.find_counter("executor.retries")) {
      out.retries = c->value();
    }
  }
  return out;
}

TEST(TelemetryDeterminismTest, SameSeedRunsExportIdenticalTraces) {
  const auto a = run_scenario(true);
  const auto b = run_scenario(true);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);  // byte-for-byte
  EXPECT_EQ(a.report.makespan.ns(), b.report.makespan.ns());
}

TEST(TelemetryDeterminismTest, AttachingTelemetryIsZeroOverhead) {
  const auto on = run_scenario(true);
  const auto off = run_scenario(false);
  // Virtual time and every behavioural counter must be bit-identical:
  // recording never touches the event queue or any RNG.
  EXPECT_EQ(on.report.makespan.ns(), off.report.makespan.ns());
  EXPECT_EQ(on.report.issued, off.report.issued);
  EXPECT_EQ(on.report.retries, off.report.retries);
  EXPECT_EQ(on.report.timeouts, off.report.timeouts);
  EXPECT_EQ(on.report.echo_probes, off.report.echo_probes);
  EXPECT_EQ(on.report.failed_requests, off.report.failed_requests);
  EXPECT_EQ(on.report.scheduling_rounds, off.report.scheduling_rounds);
}

TEST(TelemetryDeterminismTest, ReportCountersMatchRegistry) {
  const auto run = run_scenario(true);
  // The run publishes its report's tallies to the registry once, at
  // finish(); a lone run's counters equal its report.
  EXPECT_EQ(run.report.retries, run.retries);
  EXPECT_GT(run.flow_mods, 0u);
  EXPECT_GE(run.flow_mods, run.report.issued);
  const std::string& json = run.trace_json;
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  // Per-switch lanes present by name.
  EXPECT_NE(json.find("controller"), std::string::npos);
  EXPECT_NE(json.find("s1"), std::string::npos);
}

/// Two fig10 link-failure updates on disjoint testbeds of one network, with
/// 4% drops on every switch so timeouts and retries are non-zero.
std::vector<sched::RequestDag> twin_link_failures(net::Network& net) {
  Rng rng(11);
  std::vector<sched::RequestDag> dags;
  for (int t = 0; t < 2; ++t) {
    workload::TestbedIds ids;
    ids.s1 = net.add_switch(profiles::switch1());
    ids.s2 = net.add_switch(profiles::switch1());
    ids.s3 = net.add_switch(profiles::switch3());
    for (const auto id : {ids.s1, ids.s2, ids.s3}) {
      net::FaultConfig cfg;
      cfg.drop_to_switch = 0.04;
      cfg.drop_to_controller = 0.04;
      cfg.seed = 51 + id;
      net.enable_faults(id, cfg);
    }
    dags.push_back(workload::link_failure_scenario(ids, 60, rng, 0));
  }
  return dags;
}

TEST(TelemetryDeterminismTest, InterleavedRunsPublishTheirOwnCounts) {
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(50);
  opts.max_retries = 5;
  opts.backoff_base = millis(2);

  // A: the two updates one after the other through execute().
  net::Network net_a;
  Telemetry tele_a;
  net_a.set_telemetry(&tele_a);
  const auto dags_a = twin_link_failures(net_a);
  sched::DionysusScheduler sched_a;
  std::vector<sched::ExecutionReport> serial;
  for (const auto& dag : dags_a) serial.push_back(execute(net_a, dag, sched_a, opts));

  // B: both at once through execute_async(), one event queue pumping both;
  // each is finished as soon as it is done, as execute() does.
  net::Network net_b;
  Telemetry tele_b;
  net_b.set_telemetry(&tele_b);
  const auto dags_b = twin_link_failures(net_b);
  sched::DionysusScheduler sched_b[2];
  sched::AsyncExecution runs[2] = {
      sched::execute_async(net_b, dags_b[0], sched_b[0], opts),
      sched::execute_async(net_b, dags_b[1], sched_b[1], opts)};
  std::vector<sched::ExecutionReport> interleaved(2);
  bool finished[2] = {false, false};
  for (bool more = true; more;) {
    for (int t = 0; t < 2; ++t) {
      if (!finished[t] && runs[t].done()) {
        interleaved[t] = runs[t].finish();
        finished[t] = true;
      }
    }
    more = !(finished[0] && finished[1]) && net_b.events().step();
  }
  ASSERT_TRUE(finished[0] && finished[1]);

  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE("update " + std::to_string(t));
    const auto& a = serial[static_cast<std::size_t>(t)];
    const auto& b = interleaved[static_cast<std::size_t>(t)];
    EXPECT_GT(a.retries, 0u);
    EXPECT_GT(a.timeouts, 0u);
    EXPECT_EQ(a.makespan.ns(), b.makespan.ns());
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.rejected_retryable, b.rejected_retryable);
    EXPECT_EQ(a.rejected_fatal, b.rejected_fatal);
    EXPECT_EQ(a.scheduling_rounds, b.scheduling_rounds);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.per_switch_busy, b.per_switch_busy);
    EXPECT_EQ(a.total_queueing_delay.ns(), b.total_queueing_delay.ns());
    EXPECT_EQ(a.max_queueing_delay.ns(), b.max_queueing_delay.ns());
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.echo_probes, b.echo_probes);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    EXPECT_EQ(a.lost_requests, b.lost_requests);
    EXPECT_EQ(a.failed_switches, b.failed_switches);
    EXPECT_EQ(a.cyclic, b.cyclic);
    EXPECT_EQ(a.fault_crashes, b.fault_crashes);
    EXPECT_EQ(a.fault_lost_to_crash, b.fault_lost_to_crash);
    EXPECT_EQ(a.fault_dropped_to_switch, b.fault_dropped_to_switch);
    EXPECT_EQ(a.fault_dropped_to_controller, b.fault_dropped_to_controller);
    EXPECT_EQ(a.crashed_switches, b.crashed_switches);
  }

  // Each network's executor counters hold exactly the sum of its two runs.
  const std::pair<const char*, std::size_t sched::ExecutionReport::*>
      tallies[] = {
          {"executor.issued", &sched::ExecutionReport::issued},
          {"executor.rejected", &sched::ExecutionReport::rejected},
          {"executor.rejected_retryable",
           &sched::ExecutionReport::rejected_retryable},
          {"executor.rejected_fatal", &sched::ExecutionReport::rejected_fatal},
          {"executor.scheduling_rounds",
           &sched::ExecutionReport::scheduling_rounds},
          {"executor.deadline_misses", &sched::ExecutionReport::deadline_misses},
          {"executor.timeouts", &sched::ExecutionReport::timeouts},
          {"executor.retries", &sched::ExecutionReport::retries},
          {"executor.echo_probes", &sched::ExecutionReport::echo_probes},
          {"executor.failed_requests", &sched::ExecutionReport::failed_requests},
      };
  const std::pair<const Telemetry*, const std::vector<sched::ExecutionReport>*>
      sides[] = {{&tele_a, &serial}, {&tele_b, &interleaved}};
  for (const auto& [tele, reports] : sides) {
    for (const auto& [name, field] : tallies) {
      SCOPED_TRACE(name);
      const auto* counter = tele->metrics.find_counter(name);
      ASSERT_NE(counter, nullptr);
      EXPECT_EQ(counter->value(), (*reports)[0].*field + (*reports)[1].*field);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity acceptance for the indexed table core, the batched wire path
// and the scheduler/executor hot path. The fig10 (link-failure) and
// fig12-style (traffic-engineering) scenarios, under both schedulers,
// fault-free and under a fault seed, must export byte-identical RunReport
// and trace JSON across repeat runs — and match the digests recorded before
// the scheduling rounds and dispatch queues were rewritten. The trace holds
// every request's issue and completion time, so any change in send order
// shows. Indexes, batching and faster scheduling may change speed, never
// behaviour.
// ---------------------------------------------------------------------------

struct AcceptanceRun {
  std::string report_json;
  std::string trace_json;
};

enum class AcceptanceScheduler { kDionysus, kTango };

struct AcceptanceSpec {
  AcceptanceScheduler scheduler = AcceptanceScheduler::kDionysus;
  bool traffic_engineering = false;
  bool with_faults = false;
  /// s1 drops every frame both ways: it is declared dead with requests
  /// still queued behind it.
  bool dead_switch = false;
  bool speculative_dependents = false;
  bool prefix_lookahead = false;
  /// Every fifth request carries an install_by deadline.
  bool deadline_first = false;
};

/// Fixed per-op costs for the Tango runs: descending adds cost more than
/// ascending ones on s1/s2 and less on s3, so the winning pattern flips as
/// the pool's mix moves between switches.
std::map<SwitchId, core::OpCostEstimate> acceptance_costs(
    const workload::TestbedIds& ids) {
  core::OpCostEstimate tcam;
  tcam.add_ascending_ms = 1.2;
  tcam.add_descending_ms = 1.6;
  tcam.mod_ms = 0.6;
  tcam.del_ms = 0.9;
  core::OpCostEstimate soft;
  soft.add_ascending_ms = 2.0;
  soft.add_descending_ms = 0.8;
  soft.mod_ms = 0.3;
  soft.del_ms = 0.2;
  return {{ids.s1, tcam}, {ids.s2, tcam}, {ids.s3, soft}};
}

AcceptanceRun run_acceptance(const AcceptanceSpec& spec) {
  net::Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());
  Telemetry tele;
  net.set_telemetry(&tele);
  if (spec.with_faults) {
    for (const auto id : {ids.s1, ids.s2, ids.s3}) {
      net::FaultConfig cfg;
      cfg.drop_to_switch = 0.03;
      cfg.drop_to_controller = 0.03;
      cfg.seed = 90 + id;
      net.enable_faults(id, cfg);
    }
  }
  if (spec.dead_switch) {
    net::FaultConfig cfg;
    cfg.drop_to_switch = 1.0;
    cfg.drop_to_controller = 1.0;
    net.enable_faults(ids.s1, cfg);
  }
  Rng rng(13);
  auto dag = spec.traffic_engineering
                 ? workload::traffic_engineering_scenario(ids, 80, 2.0, 1.0,
                                                          1.0, rng)
                 : workload::link_failure_scenario(ids, 60, rng, 0);
  if (spec.deadline_first) {
    for (std::size_t id = 0; id < dag.size(); id += 5) {
      dag.request(id).deadline = millis(static_cast<std::int64_t>(40 + id));
    }
  }
  const auto costs = acceptance_costs(ids);
  sched::DionysusScheduler dionysus;
  sched::TangoSchedulerOptions topts;
  topts.prefix_lookahead = spec.prefix_lookahead;
  topts.deadline_first = spec.deadline_first;
  sched::BasicTangoScheduler tango(costs, topts);
  sched::UpdateScheduler& scheduler =
      spec.scheduler == AcceptanceScheduler::kTango
          ? static_cast<sched::UpdateScheduler&>(tango)
          : dionysus;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(50);
  opts.max_retries = 5;
  opts.backoff_base = millis(2);
  if (spec.speculative_dependents) {
    opts.speculative_dependents = true;
    opts.cost_hints = costs;
  }
  const auto report = execute(net, dag, scheduler, opts);

  RunReport rr(spec.traffic_engineering ? "fig12_te" : "fig10_lf");
  rr.set_result("makespan_s", report.makespan.sec());
  rr.set_result("issued", static_cast<double>(report.issued));
  rr.set_result("retries", static_cast<double>(report.retries));
  rr.set_result("timeouts", static_cast<double>(report.timeouts));
  rr.set_result("failed", static_cast<double>(report.failed_requests));
  rr.add_metrics(tele.metrics);
  rr.add_spans(tele.trace, {"exec"});
  return {rr.to_json(), tele.trace.to_chrome_json()};
}

/// FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct PinnedRun {
  const char* name;
  AcceptanceSpec spec;
  std::uint64_t report_digest;
  std::uint64_t trace_digest;
};

using S = AcceptanceScheduler;

AcceptanceSpec spec(S scheduler, bool traffic_engineering, bool with_faults,
                    bool AcceptanceSpec::*extra = nullptr) {
  AcceptanceSpec out;
  out.scheduler = scheduler;
  out.traffic_engineering = traffic_engineering;
  out.with_faults = with_faults;
  if (extra != nullptr) out.*extra = true;
  return out;
}

const PinnedRun kPinnedRuns[] = {
    {"dionysus fig10 fault-free", spec(S::kDionysus, false, false),
     0x00f31f313e07eca1ull, 0x1e26c9401416c3d1ull},
    {"dionysus fig10 faulted", spec(S::kDionysus, false, true),
     0x0da3bd48a9f6b153ull, 0x365aa59a8c088419ull},
    {"dionysus fig12 fault-free", spec(S::kDionysus, true, false),
     0x5f1bc92484dd6927ull, 0x16c761cb4f5ce9acull},
    {"dionysus fig12 faulted", spec(S::kDionysus, true, true),
     0x5c79a68a93fc3519ull, 0x5d81c3e2d03a0725ull},
    {"tango fig10 fault-free", spec(S::kTango, false, false),
     0xb1663bc3dc85db12ull, 0x29769a0db34f0686ull},
    {"tango fig10 faulted", spec(S::kTango, false, true),
     0x6f4ec420ac306fdeull, 0x663b4117c01ae0fbull},
    {"tango fig12 fault-free", spec(S::kTango, true, false),
     0x9a63ead646bbc795ull, 0x4c9dddb21338fe32ull},
    {"tango fig12 faulted", spec(S::kTango, true, true),
     0x1ba67d68a5f66831ull, 0x3a61692bae2fc97eull},
    {"tango fig12 dead switch",
     spec(S::kTango, true, false, &AcceptanceSpec::dead_switch),
     0xdf572377b83e9625ull, 0x0fdc4cdd8a788186ull},
    {"tango fig12 speculative dependents",
     spec(S::kTango, true, false, &AcceptanceSpec::speculative_dependents),
     0x8fd5078a282a39fdull, 0x0d1751b46b206456ull},
    {"tango fig12 prefix lookahead",
     spec(S::kTango, true, false, &AcceptanceSpec::prefix_lookahead),
     0x5bfcfc4e2f2bbe63ull, 0x5d02946c49011236ull},
    {"tango fig12 deadline first",
     spec(S::kTango, true, false, &AcceptanceSpec::deadline_first),
     0x7a5d418c65bb278aull, 0x22850bce7ee92024ull},
};

TEST(BitIdentityAcceptance, Fig10AndFig12RunsAreByteStable) {
  for (const auto& run : kPinnedRuns) {
    SCOPED_TRACE(run.name);
    const auto a = run_acceptance(run.spec);
    const auto b = run_acceptance(run.spec);
    ASSERT_FALSE(a.trace_json.empty());
    EXPECT_EQ(a.report_json, b.report_json);
    EXPECT_EQ(a.trace_json, b.trace_json);  // byte-for-byte
    EXPECT_EQ(fnv1a(a.report_json), run.report_digest);
    EXPECT_EQ(fnv1a(a.trace_json), run.trace_digest);
  }
}

TEST(BitIdentityAcceptance, BatchedFlowModsMatchSequentialSends) {
  // The batched wire path (one burst, one arrival event) must produce the
  // same completion order, the same simulated completion times, the same
  // channel byte counts, and the same trace as N sequential sends.
  struct Outcome {
    std::vector<std::pair<bool, std::int64_t>> completions;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::string trace_json;
  };
  const auto run = [](bool batched) {
    Outcome out;
    net::Network net;
    const SwitchId id = net.add_switch(profiles::switch1());
    Telemetry tele;
    net.set_telemetry(&tele);
    std::vector<of::FlowMod> fms;
    for (std::uint32_t i = 0; i < 32; ++i) {
      of::FlowMod fm;
      fm.command = of::FlowModCommand::kAdd;
      fm.match.with_dl_type(0x0800);
      fm.match.set_nw_src_prefix(0x0a000000u + i, 32);
      fm.priority = static_cast<std::uint16_t>(0x3000 + (i % 5));
      fm.cookie = i;
      fm.actions = of::output_to(2);
      fms.push_back(fm);
    }
    const auto done = [&out](bool accepted, SimTime at) {
      out.completions.emplace_back(accepted, at.ns());
    };
    if (batched) {
      net.post_flow_mod_batch(id, fms, done);
    } else {
      for (const auto& fm : fms) {
        net.post_flow_mod_ex(id, fm,
                             [&done](const net::Network::FlowModResult& r) {
                               done(r.accepted, r.completed_at);
                             });
      }
    }
    net.run_all();
    out.messages = net.stats(id).messages_to_switch;
    out.bytes = net.stats(id).bytes_to_switch;
    out.trace_json = tele.trace.to_chrome_json();
    return out;
  };
  const auto sequential = run(false);
  const auto batched = run(true);
  ASSERT_EQ(sequential.completions.size(), 32u);
  EXPECT_EQ(batched.completions, sequential.completions);
  EXPECT_EQ(batched.messages, sequential.messages);
  EXPECT_EQ(batched.bytes, sequential.bytes);
  EXPECT_EQ(batched.trace_json, sequential.trace_json);
}

}  // namespace
}  // namespace tango::telemetry
