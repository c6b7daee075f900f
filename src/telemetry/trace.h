// Virtual-time trace collection with a Chrome trace-event exporter.
//
// Spans and instants are stamped with *simulated* time (the EventQueue
// clock), so a trace of a 4-second simulated update opens in
// chrome://tracing / Perfetto as a 4-second timeline regardless of how fast
// the simulation actually ran. Each event carries a lane: lane 0 is the
// controller, lane N is switch N (datapath id) — the exporter maps lanes to
// named threads, so every switch gets its own swim-lane.
//
// A trace is a pure function of the (topology, workload, seed) triple: two
// same-seed runs export byte-identical JSON (test_telemetry asserts this).
//
// Recording never touches the event queue or any RNG — attaching a
// collector cannot perturb simulated behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "telemetry/metrics.h"

namespace tango::telemetry {

/// Pre-rendered JSON args attached to an event. Values are raw JSON
/// fragments; use the arg() helpers to build them.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

inline std::pair<std::string, std::string> arg(std::string key,
                                               std::uint64_t v) {
  return {std::move(key), std::to_string(v)};
}
inline std::pair<std::string, std::string> arg(std::string key,
                                               std::int64_t v) {
  return {std::move(key), std::to_string(v)};
}
inline std::pair<std::string, std::string> arg(std::string key, bool v) {
  return {std::move(key), v ? "true" : "false"};
}
/// String arg (value gets quoted and escaped at build time).
std::pair<std::string, std::string> arg_str(std::string key,
                                            const std::string& v);

struct TraceEvent {
  enum class Phase { kSpan, kInstant };

  Phase phase = Phase::kSpan;
  std::string cat;
  std::string name;
  /// 0 = controller; otherwise the switch's datapath id.
  std::uint64_t lane = 0;
  SimTime begin{};
  SimDuration dur{};  // zero for instants
  TraceArgs args;
};

class TraceCollector {
 public:
  static constexpr std::uint64_t kControllerLane = 0;

  TraceCollector();

  /// Cap on stored events; records beyond it are counted in
  /// dropped_events() instead of stored (keeps week-long inference runs
  /// from eating the heap). Default 1<<20.
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }

  void set_process_name(std::string name) { process_name_ = std::move(name); }
  void set_lane_name(std::uint64_t lane, std::string name) {
    lane_names_[lane] = std::move(name);
  }

  void span(const char* cat, const char* name, std::uint64_t lane,
            SimTime begin, SimTime end, TraceArgs args = {});
  void instant(const char* cat, const char* name, std::uint64_t lane,
               SimTime at, TraceArgs args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t dropped_events() const { return dropped_; }
  void clear();

  /// Chrome trace-event format ("traceEvents" array of "X"/"i" phases plus
  /// process/thread-name metadata). ts/dur are microseconds of simulated
  /// time; open the file in chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] std::string to_chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  void record(TraceEvent ev);

  std::size_t capacity_ = std::size_t{1} << 20;
  std::string process_name_ = "tango";
  std::map<std::uint64_t, std::string> lane_names_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
};

/// The telemetry context components hook into: one trace collector plus one
/// metrics registry. Attached to a net::Network via set_telemetry(); a null
/// pointer there means "disabled" and every instrumentation site is a
/// single branch.
struct Telemetry {
  TraceCollector trace;
  MetricsRegistry metrics;
};

}  // namespace tango::telemetry
