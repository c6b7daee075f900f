#include "telemetry/trace.h"

#include <cstdio>
#include <fstream>

#include "telemetry/json_util.h"

namespace tango::telemetry {

namespace {

/// Simulated ns -> Chrome's microsecond timestamps, keeping ns resolution
/// as a fractional part.
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::pair<std::string, std::string> arg_str(std::string key,
                                            const std::string& v) {
  std::string rendered;
  append_quoted(rendered, v);
  return {std::move(key), std::move(rendered)};
}

TraceCollector::TraceCollector() = default;

void TraceCollector::record(TraceEvent ev) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void TraceCollector::span(const char* cat, const char* name,
                          std::uint64_t lane, SimTime begin, SimTime end,
                          TraceArgs args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kSpan;
  ev.cat = cat;
  ev.name = name;
  ev.lane = lane;
  ev.begin = begin;
  ev.dur = end - begin;
  ev.args = std::move(args);
  record(std::move(ev));
}

void TraceCollector::instant(const char* cat, const char* name,
                             std::uint64_t lane, SimTime at, TraceArgs args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.cat = cat;
  ev.name = name;
  ev.lane = lane;
  ev.begin = at;
  ev.args = std::move(args);
  record(std::move(ev));
}

void TraceCollector::clear() {
  events_.clear();
  dropped_ = 0;
}

std::string TraceCollector::to_chrome_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: process name + one named thread per lane.
  sep();
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":";
  append_quoted(out, process_name_);
  out += "}}";
  for (const auto& [lane, name] : lane_names_) {
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(lane) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_quoted(out, name);
    out += "}}";
  }
  // Lanes sort by their id so switch 1..N read top-to-bottom under the
  // controller lane.
  for (const auto& [lane, name] : lane_names_) {
    (void)name;
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(lane) +
           ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
           std::to_string(lane) + "}}";
  }

  for (const auto& ev : events_) {
    sep();
    out += "{\"ph\":";
    out += ev.phase == TraceEvent::Phase::kSpan ? "\"X\"" : "\"i\"";
    out += ",\"pid\":1,\"tid\":" + std::to_string(ev.lane);
    out += ",\"cat\":";
    append_quoted(out, ev.cat);
    out += ",\"name\":";
    append_quoted(out, ev.name);
    out += ",\"ts\":";
    append_us(out, ev.begin.ns());
    if (ev.phase == TraceEvent::Phase::kSpan) {
      out += ",\"dur\":";
      append_us(out, ev.dur.ns());
    } else {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : ev.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        append_quoted(out, k);
        out += ':';
        out += v;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool TraceCollector::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string json = to_chrome_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace tango::telemetry
