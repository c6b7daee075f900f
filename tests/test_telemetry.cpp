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
#include <cstdio>
#include <string>

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
  // Satellite (b): ExecutionReport recovery fields are derived views of the
  // registry counters, so the two can never drift apart.
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

// ---------------------------------------------------------------------------
// Bit-identity acceptance for the indexed table core and batched wire path.
// The fig10 (link-failure) and fig12-style (traffic-engineering) scenarios,
// fault-free and under a fault seed, must export byte-identical RunReport
// and trace JSON across repeat runs — the indexes and the batching layer
// are allowed to change speed, never behaviour.
// ---------------------------------------------------------------------------

struct AcceptanceRun {
  std::string report_json;
  std::string trace_json;
};

AcceptanceRun run_acceptance(bool traffic_engineering, bool with_faults) {
  net::Network net;
  workload::TestbedIds ids;
  ids.s1 = net.add_switch(profiles::switch1());
  ids.s2 = net.add_switch(profiles::switch1());
  ids.s3 = net.add_switch(profiles::switch3());
  Telemetry tele;
  net.set_telemetry(&tele);
  if (with_faults) {
    for (const auto id : {ids.s1, ids.s2, ids.s3}) {
      net::FaultConfig cfg;
      cfg.drop_to_switch = 0.03;
      cfg.drop_to_controller = 0.03;
      cfg.seed = 90 + id;
      net.enable_faults(id, cfg);
    }
  }
  Rng rng(13);
  const auto dag =
      traffic_engineering
          ? workload::traffic_engineering_scenario(ids, 80, 2.0, 1.0, 1.0, rng)
          : workload::link_failure_scenario(ids, 60, rng, 0);
  sched::DionysusScheduler sched;
  sched::ExecutorOptions opts;
  opts.request_timeout = millis(50);
  opts.max_retries = 5;
  opts.backoff_base = millis(2);
  const auto report = execute(net, dag, sched, opts);

  RunReport rr(traffic_engineering ? "fig12_te" : "fig10_lf");
  rr.set_result("makespan_s", report.makespan.sec());
  rr.set_result("issued", static_cast<double>(report.issued));
  rr.set_result("retries", static_cast<double>(report.retries));
  rr.set_result("timeouts", static_cast<double>(report.timeouts));
  rr.set_result("failed", static_cast<double>(report.failed_requests));
  rr.add_metrics(tele.metrics);
  rr.add_spans(tele.trace, {"exec"});
  return {rr.to_json(), tele.trace.to_chrome_json()};
}

TEST(BitIdentityAcceptance, Fig10AndFig12RunsAreByteStable) {
  for (const bool te : {false, true}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(te ? "fig12_te" : "fig10_lf") +
                   (faults ? " faulted" : " fault-free"));
      const auto a = run_acceptance(te, faults);
      const auto b = run_acceptance(te, faults);
      ASSERT_FALSE(a.trace_json.empty());
      EXPECT_EQ(a.report_json, b.report_json);
      EXPECT_EQ(a.trace_json, b.trace_json);  // byte-for-byte
    }
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
