#include "scheduler/executor.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace tango::sched {

namespace {

/// Per-op duration assumed for a switch without a cost hint.
constexpr SimDuration kDefaultOpEstimate = millis(1);
/// Priority of a request that carries none (enforcement did not run).
constexpr std::uint16_t kDefaultPriority = 0x8000;
/// Times an ECHO proving the switch alive buys a request a fresh round of
/// retries before the request is failed.
constexpr std::size_t kMaxEchoRescues = 2;

}  // namespace

of::FlowMod to_flow_mod(const SwitchRequest& request) {
  of::FlowMod fm;
  fm.command = to_command(request.type);
  fm.match = request.match;
  fm.priority = request.priority.value_or(kDefaultPriority);
  fm.actions = request.actions;
  fm.cookie = request.cookie.value_or(0);
  return fm;
}

namespace {

/// Per-switch FaultStats snapshot taken before execution so the report can
/// carry the deltas this run caused (stats are cumulative per injector).
std::map<SwitchId, net::FaultStats> snapshot_faults(net::Network& network,
                                                    const RequestDag& dag) {
  std::map<SwitchId, net::FaultStats> out;
  for (std::size_t id = 0; id < dag.size(); ++id) {
    const SwitchId loc = dag.request(id).location;
    if (out.count(loc) != 0) continue;
    if (const auto* inj = network.fault_injector(loc)) out[loc] = inj->stats();
  }
  return out;
}

void report_fault_deltas(net::Network& network,
                         const std::map<SwitchId, net::FaultStats>& before,
                         ExecutionReport& report) {
  for (const auto& [loc, base] : before) {
    const auto* inj = network.fault_injector(loc);
    if (inj == nullptr) continue;
    const auto& now = inj->stats();
    report.fault_crashes += now.crashes - base.crashes;
    report.fault_lost_to_crash += now.lost_to_crash - base.lost_to_crash;
    report.fault_dropped_to_switch +=
        now.dropped_to_switch - base.dropped_to_switch;
    report.fault_dropped_to_controller +=
        now.dropped_to_controller - base.dropped_to_controller;
    if (now.crashes > base.crashes) report.crashed_switches.insert(loc);
  }
  if (report.fault_crashes + report.fault_dropped_to_switch +
          report.fault_dropped_to_controller >
      0) {
    log::info("executor: faults during run: " +
              std::to_string(report.fault_crashes) + " crash(es), " +
              std::to_string(report.fault_lost_to_crash) + " lost to crash, " +
              std::to_string(report.fault_dropped_to_switch) + "/" +
              std::to_string(report.fault_dropped_to_controller) +
              " drops to switch/controller; " +
              std::to_string(report.retries) + " retries, " +
              std::to_string(report.failed_requests) + " failed requests");
  }
}

}  // namespace

namespace detail {

/// All execution state lives on the heap behind a shared_ptr: retry timers
/// and echo timeouts stay scheduled after execute() returns (as no-ops once
/// `finished` is set), so nothing they capture may sit on the stack. Each
/// scheduled event holds the state alive via shared_from_this and bails out
/// on its first line if the run is over.
struct ExecState : std::enable_shared_from_this<ExecState> {
  net::Network& network;
  const RequestDag& dag;
  UpdateScheduler& scheduler;
  const ExecutorOptions options;  // copied: caller's may be a temporary
  ExecutionReport report;

  std::size_t n = 0;
  SimTime start{};
  /// Virtual time when the last request reached a terminal state.
  SimTime end{};
  bool finished = false;
  /// Injector stats at start, for the report's fault deltas.
  std::map<SwitchId, net::FaultStats> faults_before;

  // --- telemetry -----------------------------------------------------------
  telemetry::Telemetry* tele = nullptr;
  telemetry::Histogram* latency_hist = nullptr;
  telemetry::Histogram* queue_hist = nullptr;
  /// Issue timestamps for request spans; sized only when telemetry is on.
  std::vector<SimTime> issue_time;
  /// When each request became ready (dependency-free); queueing delay =
  /// first-send time minus this.
  std::vector<SimTime> ready_time;
  /// Post timestamps / agent backlog at post, for cost observations; sized
  /// only when options.on_cost_observation is set. A timing sample is only
  /// trustworthy when this request was alone in flight at post time —
  /// commands still on the wire aren't reflected in the agent backlog yet.
  std::vector<SimTime> obs_post;
  std::vector<SimTime> obs_busy;
  std::vector<std::uint8_t> obs_solo;

  std::vector<std::size_t> remaining_preds;
  /// True once sent — or tombstoned by a failure before sending.
  std::vector<bool> issued;
  /// True once completed or failed: the request will never change again.
  std::vector<bool> terminal;
  /// flow_mod posts made for this request in the current retry round.
  std::vector<std::size_t> attempts;
  /// Bumped per post; a timeout fires only for the attempt that armed it.
  std::vector<std::uint64_t> attempt_gen;
  /// Echo-rescue rounds consumed.
  std::vector<std::size_t> rescued;

  // Ready-but-unsent requests. The scheduler re-orders this pool whenever
  // it changes; per-switch dispatch windows keep each agent fed while the
  // backlog stays reorderable (this is Algorithm 3's continuous loop: the
  // independent set is re-extracted and re-ordered as requests finish).
  // Sent and failed ids stay until the next round drops them in one
  // order-preserving pass, so order() sees them leave in pool order.
  std::vector<std::size_t> pending;
  bool pending_dirty = true;
  std::vector<std::size_t> ordered;

  // Every switch of the DAG gets a dense slot in init().
  std::vector<std::uint32_t> slot;     // per request
  std::vector<std::size_t> in_flight;  // per slot
  std::vector<std::uint8_t> dead;      // per slot

  // The round's `ordered` list as per-slot queues of positions: head[s] is
  // slot s's first position not yet acted on, next_same[p] the next
  // position with p's slot.
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> head;
  std::vector<std::size_t> next_same;
  std::vector<std::uint32_t> round_slots;
  /// Slots that may act at the next dispatch: their window opened, they
  /// went dead, or they got entries in a new round. Every other slot has a
  /// full window or nothing left to act on.
  std::vector<std::uint8_t> active;
  std::vector<std::uint32_t> active_slots;
  std::vector<std::pair<std::size_t, std::uint32_t>> heads;  // min-heap

  // Speculative path only: predecessors neither sent nor tombstoned, and
  // the blocked requests whose predecessors are all out, by id.
  std::vector<std::size_t> unsent_preds;
  std::set<std::size_t> speculable;

  std::size_t done_count = 0;

  ExecState(net::Network& net, const RequestDag& d, UpdateScheduler& s,
            const ExecutorOptions& opts)
      : network(net), dag(d), scheduler(s), options(opts) {}

  [[nodiscard]] bool retry_enabled() const {
    return options.request_timeout.ns() > 0;
  }

  void init() {
    n = dag.size();
    start = network.now();
    remaining_preds.assign(n, 0);
    issued.assign(n, false);
    terminal.assign(n, false);
    attempts.assign(n, 0);
    attempt_gen.assign(n, 0);
    rescued.assign(n, 0);
    ready_time.assign(n, SimTime{});
    end = start;
    for (std::size_t id = 0; id < n; ++id) {
      remaining_preds[id] = dag.predecessors(id).size();
      if (remaining_preds[id] == 0) {
        pending.push_back(id);
        ready_time[id] = start;
      }
    }
    std::map<SwitchId, std::uint32_t> slot_of;
    slot.resize(n);
    for (std::size_t id = 0; id < n; ++id) {
      slot[id] = slot_of
                     .try_emplace(dag.request(id).location,
                                  static_cast<std::uint32_t>(slot_of.size()))
                     .first->second;
    }
    in_flight.assign(slot_of.size(), 0);
    dead.assign(slot_of.size(), 0);
    head.assign(slot_of.size(), kNone);
    active.assign(slot_of.size(), 0);
    if (options.speculative_dependents) unsent_preds = remaining_preds;

    tele = network.telemetry();
    if (tele != nullptr) {
      latency_hist = &tele->metrics.histogram(
          "executor.request_latency_ms",
          {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
      queue_hist = &tele->metrics.histogram(
          "executor.queueing_delay_ms",
          {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
      issue_time.assign(n, SimTime{});
    }
    if (options.on_cost_observation) {
      obs_post.assign(n, SimTime{});
      obs_busy.assign(n, SimTime{});
      obs_solo.assign(n, 0);
    }
  }

  /// Close the run: account lost requests, record fault deltas, add this
  /// run's tallies to the registry's "executor.*" counters and record the
  /// execute span. Idempotent; execute() reaches it through
  /// AsyncExecution::finish().
  void finish() {
    if (finished) return;
    finished = true;
    report.makespan = (done_count == n ? end : network.now()) - start;
    report.lost_requests = n - done_count;
    assert(report.lost_requests == 0 || !retry_enabled());
    report_fault_deltas(network, faults_before, report);
    if (tele != nullptr) {
      auto& reg = tele->metrics;
      reg.counter("executor.issued").inc(report.issued);
      reg.counter("executor.rejected").inc(report.rejected);
      reg.counter("executor.rejected_retryable").inc(report.rejected_retryable);
      reg.counter("executor.rejected_fatal").inc(report.rejected_fatal);
      reg.counter("executor.scheduling_rounds").inc(report.scheduling_rounds);
      reg.counter("executor.deadline_misses").inc(report.deadline_misses);
      reg.counter("executor.timeouts").inc(report.timeouts);
      reg.counter("executor.retries").inc(report.retries);
      reg.counter("executor.echo_probes").inc(report.echo_probes);
      reg.counter("executor.failed_requests").inc(report.failed_requests);
      tele->trace.span(
          "executor", "execute", telemetry::TraceCollector::kControllerLane,
          start, network.now(),
          {telemetry::arg("requests", std::uint64_t{n}),
           telemetry::arg("issued", std::uint64_t{report.issued}),
           telemetry::arg("failed", std::uint64_t{report.failed_requests}),
           telemetry::arg("makespan_ns", report.makespan.ns())});
      tele->metrics.counter("executor.runs").inc();
      // Mirror the fault-injector deltas this run caused: the registry is
      // where FaultStats surfaces for reports (crashes/stalls are counted
      // at the channel as they happen).
      tele->metrics.counter("faults.dropped_to_switch")
          .inc(report.fault_dropped_to_switch);
      tele->metrics.counter("faults.dropped_to_controller")
          .inc(report.fault_dropped_to_controller);
      tele->metrics.counter("faults.lost_to_crash")
          .inc(report.fault_lost_to_crash);
    }
  }

  void mark_active(std::uint32_t s) {
    if (active[s] != 0) return;
    active[s] = 1;
    active_slots.push_back(s);
  }

  /// `id` was sent or tombstoned: its successors lose an unsent predecessor.
  void mark_out(std::size_t id) {
    if (!options.speculative_dependents) return;
    for (std::size_t succ : dag.successors(id)) {
      if (--unsent_preds[succ] == 0 && !issued[succ]) speculable.insert(succ);
    }
  }

  void send(std::size_t id) {
    issued[id] = true;
    mark_out(id);
    ++report.issued;
    attempts[id] = 1;
    ++in_flight[slot[id]];
    const SimDuration queued = network.now() - ready_time[id];
    report.total_queueing_delay += queued;
    if (queued > report.max_queueing_delay) report.max_queueing_delay = queued;
    if (queue_hist != nullptr) queue_hist->observe(queued.ms());
    if (tele != nullptr) issue_time[id] = network.now();
    post_attempt(id);
  }

  void post_attempt(std::size_t id) {
    const std::uint64_t gen = ++attempt_gen[id];
    auto self = shared_from_this();
    const auto& req = dag.request(id);
    if (options.on_cost_observation) {
      obs_post[id] = network.now();
      obs_busy[id] = network.channel(req.location).agent_busy_until();
      obs_solo[id] = in_flight[slot[id]] == 1 ? 1 : 0;
    }
    network.post_flow_mod_ex(req.location, to_flow_mod(req),
                             [self, id](const net::Network::FlowModResult& res) {
                               self->complete(id, res);
                             });
    if (retry_enabled()) {
      network.events().schedule_after(
          options.request_timeout,
          [self, id, gen]() { self->on_timeout(id, gen); });
    }
  }

  /// Error classes a switch rejection falls into. Table pressure can clear
  /// (an agent rebalancing, a timeout sweep freeing slots); a permissions
  /// or malformed-command error never will.
  [[nodiscard]] static bool rejection_retryable(
      const net::Network::FlowModResult& res) {
    return res.has_error && res.error_type == of::ErrorType::kFlowModFailed &&
           res.error_code ==
               static_cast<std::uint16_t>(of::FlowModFailedCode::kAllTablesFull);
  }

  void complete(std::size_t id, const net::Network::FlowModResult& res) {
    // First completion wins; later ones (a duplicated frame, or the
    // original answer racing a retry) are harmless echoes of the same
    // idempotent flow_mod.
    if (finished || terminal[id]) return;
    const bool accepted = res.accepted;
    const SimTime at = res.completed_at;
    if (!accepted) {
      if (rejection_retryable(res)) {
        ++report.rejected_retryable;
      } else {
        ++report.rejected_fatal;
      }
    }
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    if (!accepted) ++report.rejected;
    const auto& req = dag.request(id);
    auto& fl = in_flight[slot[id]];
    if (fl > 0) --fl;
    mark_active(slot[id]);
    if (req.deadline.has_value() && at - start > *req.deadline) {
      ++report.deadline_misses;
    }
    if (tele != nullptr) {
      tele->trace.span(
          "executor", "request", req.location, issue_time[id], at,
          {telemetry::arg("id", std::uint64_t{id}),
           telemetry::arg("attempts", std::uint64_t{attempts[id]}),
           telemetry::arg("accepted", accepted)});
      latency_hist->observe((at - issue_time[id]).ms());
    }
    if (accepted && options.on_cost_observation && attempts[id] == 1 &&
        obs_solo[id] != 0) {
      // A clean first-attempt completion is a free cost measurement: the
      // agent started no earlier than max(backlog at post, arrival), so
      // completed_at minus that start is the op's processing time. Retried
      // or rescued requests are skipped — their timing is polluted.
      const auto hint = options.cost_hints.find(req.location);
      if (hint != options.cost_hints.end()) {
        const SimTime arrival = obs_post[id] + network.control_latency();
        const SimTime started = std::max(obs_busy[id], arrival);
        const double actual_ms = (at - started).ms();
        double predicted_ms = kDefaultOpEstimate.ms();
        switch (req.type) {
          case RequestType::kAdd:
            predicted_ms = hint->second.add_ascending_ms;
            break;
          case RequestType::kMod:
            predicted_ms = hint->second.mod_ms;
            break;
          case RequestType::kDel:
            predicted_ms = hint->second.del_ms;
            break;
        }
        options.on_cost_observation(req.location, req.type, actual_ms,
                                    predicted_ms);
      }
    }
    if (options.on_complete) options.on_complete(id, accepted);
    for (std::size_t succ : dag.successors(id)) {
      if (remaining_preds[succ] > 0 && --remaining_preds[succ] == 0 &&
          !issued[succ]) {
        pending.push_back(succ);
        ready_time[succ] = network.now();
        pending_dirty = true;
      }
    }
    dispatch();
  }

  void on_timeout(std::size_t id, std::uint64_t gen) {
    if (finished || terminal[id]) return;
    if (gen != attempt_gen[id]) return;  // a newer attempt superseded this one
    ++report.timeouts;
    const SwitchId loc = dag.request(id).location;
    if (tele != nullptr) {
      tele->trace.instant("executor", "timeout", loc, network.now(),
                          {telemetry::arg("id", std::uint64_t{id})});
    }
    if (dead[slot[id]] != 0) {
      fail_request(id);
      dispatch();
      return;
    }
    if (attempts[id] <= options.max_retries) {
      // Exponential backoff: 1x, 2x, 4x, ... of backoff_base.
      const SimDuration backoff =
          options.backoff_base * (std::int64_t{1} << (attempts[id] - 1));
      ++attempts[id];
      ++report.retries;
      if (tele != nullptr) {
        tele->trace.instant("executor", "retry", loc, network.now(),
                            {telemetry::arg("id", std::uint64_t{id}),
                             telemetry::arg("backoff_ns", backoff.ns())});
      }
      auto self = shared_from_this();
      network.events().schedule_after(backoff, [self, id]() {
        if (self->finished || self->terminal[id]) return;
        if (self->dead[self->slot[id]] != 0) {
          self->fail_request(id);
          self->dispatch();
          return;
        }
        self->post_attempt(id);
      });
      return;
    }
    probe_liveness(loc, id);
  }

  /// One liveness interrogation: consecutive echoes answered by silence.
  struct Liveness {
    bool answered = false;
    std::size_t sent = 0;
  };

  void probe_liveness(SwitchId loc, std::size_t id) {
    send_echo(loc, id, std::make_shared<Liveness>());
  }

  void send_echo(SwitchId loc, std::size_t id,
                 const std::shared_ptr<Liveness>& probe) {
    if (finished) return;
    if (dead[slot[id]] != 0) {
      fail_request(id);
      dispatch();
      return;
    }
    ++probe->sent;
    ++report.echo_probes;
    if (tele != nullptr) {
      tele->trace.instant("executor", "echo_probe", loc, network.now(),
                          {telemetry::arg("id", std::uint64_t{id})});
    }
    auto self = shared_from_this();
    const std::uint32_t xid = network.post_echo(loc, [self, loc, id, probe]() {
      if (self->finished || probe->answered) return;
      probe->answered = true;
      self->on_alive(loc, id);
    });
    network.events().schedule_after(
        options.request_timeout, [self, loc, id, probe, xid]() {
          if (self->finished || probe->answered) return;
          self->network.cancel_reply(xid);
          // A single echo can be lost to the same noise that stranded the
          // request; only consistent silence condemns the switch.
          const std::size_t budget =
              std::max<std::size_t>(2, self->options.max_retries + 1);
          if (probe->sent < budget) {
            self->send_echo(loc, id, probe);
          } else {
            self->fail_switch(loc, self->slot[id]);
          }
        });
  }

  void on_alive(SwitchId loc, std::size_t id) {
    if (terminal[id]) {
      dispatch();
      return;
    }
    if (rescued[id] < kMaxEchoRescues) {
      // The connection works; the losses were transient. Fresh round.
      ++rescued[id];
      attempts[id] = 1;
      ++report.retries;
      log::warn("executor: switch " + std::to_string(loc) +
                " alive, rescuing request " + std::to_string(id));
      post_attempt(id);
      return;
    }
    fail_request(id);
    dispatch();
  }

  void fail_request(std::size_t id) {
    if (terminal[id]) return;
    const SwitchId loc = dag.request(id).location;
    const bool was_issued = issued[id];
    if (issued[id]) {
      auto& fl = in_flight[slot[id]];
      if (fl > 0) --fl;
      mark_active(slot[id]);
    } else {
      issued[id] = true;  // tombstone: never send it
      mark_out(id);
      pending_dirty = true;
    }
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    ++report.failed_requests;
    if (tele != nullptr) {
      if (was_issued) {
        // The lifecycle span still closes — failure is an end state, not
        // a missing one.
        tele->trace.span("executor", "request_failed", loc, issue_time[id],
                         network.now(),
                         {telemetry::arg("id", std::uint64_t{id}),
                          telemetry::arg("attempts", std::uint64_t{attempts[id]})});
      } else {
        tele->trace.instant("executor", "abandoned", loc, network.now(),
                            {telemetry::arg("id", std::uint64_t{id})});
      }
    }
    if (options.on_failed) options.on_failed(id);
    // Successors wait on a completion that will never come; abandoning
    // them (transitively) is what keeps lost_requests at zero.
    for (std::size_t succ : dag.successors(id)) {
      if (!terminal[succ] && !issued[succ]) fail_request(succ);
    }
  }

  /// Every request of a cycle waits on one that waits on it, so the run
  /// could never drain: fail them all unsent and close the run.
  void fail_cyclic() {
    report.cyclic = true;
    log::warn("executor: request DAG has a cycle; failing all " +
              std::to_string(n) + " requests unsent");
    for (std::size_t id = 0; id < n; ++id) fail_request(id);
    finish();
  }

  void fail_switch(SwitchId loc, std::uint32_t s) {
    if (dead[s] != 0) return;
    dead[s] = 1;
    mark_active(s);
    report.failed_switches.insert(loc);
    if (tele != nullptr) {
      tele->trace.instant("executor", "switch_dead", loc, network.now());
      tele->metrics.counter("executor.switches_declared_dead").inc();
    }
    log::warn("executor: switch " + std::to_string(loc) +
              " declared dead (no ECHO reply)");
    for (std::size_t id = 0; id < n; ++id) {
      if (!terminal[id] && slot[id] == s) fail_request(id);
    }
    dispatch();
  }

  /// Split the new round's `ordered` list into per-slot position queues.
  void split_round() {
    for (const std::uint32_t s : round_slots) head[s] = kNone;
    round_slots.clear();
    next_same.resize(ordered.size());
    for (std::size_t pos = ordered.size(); pos-- > 0;) {
      const std::uint32_t s = slot[ordered[pos]];
      if (head[s] == kNone) round_slots.push_back(s);
      next_same[pos] = head[s];
      head[s] = pos;
    }
    for (const std::uint32_t s : round_slots) mark_active(s);
  }

  void dispatch() {
    if (finished) return;
    if (pending_dirty) {
      std::erase_if(pending, [&](std::size_t id) { return issued[id]; });
      ++report.scheduling_rounds;
      ordered = scheduler.order(dag, pending);
      pending_dirty = false;
      split_round();
    }
    // Merge the active slots' queue heads by position: the same sends and
    // failures, in the same order, as a front-to-back walk of `ordered`.
    // Within one dispatch no window opens (only unsent requests fail), so
    // a slot whose window fills is done; heads failed meanwhile are skipped.
    for (const std::uint32_t s : active_slots) {
      active[s] = 0;
      if (head[s] != kNone) heads.emplace_back(head[s], s);
    }
    active_slots.clear();
    std::make_heap(heads.begin(), heads.end(), std::greater<>{});
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), std::greater<>{});
      const auto [pos, s] = heads.back();
      heads.pop_back();
      const std::size_t id = ordered[pos];
      if (!issued[id]) {
        if (dead[s] != 0) {
          fail_request(id);
        } else if (in_flight[s] < options.per_switch_window) {
          send(id);
        } else {
          continue;  // window full: the head waits here
        }
      }
      head[s] = next_same[pos];
      if (head[s] != kNone) {
        heads.emplace_back(head[s], s);
        std::push_heap(heads.begin(), heads.end(), std::greater<>{});
      }
    }

    if (options.speculative_dependents) {
      // Concurrent-dependent extension (§6): a blocked request may be
      // issued alongside its predecessors when every predecessor is
      // estimated to *finish* at least `guard` before this request would —
      // estimated finish = the target agent's current backlog plus the
      // measured cost of the operation itself.
      auto est_duration = [&](std::size_t rid) {
        const auto& req = dag.request(rid);
        const auto it = options.cost_hints.find(req.location);
        if (it == options.cost_hints.end()) return kDefaultOpEstimate;
        switch (req.type) {
          case RequestType::kAdd:
            return millis(it->second.add_ascending_ms);
          case RequestType::kMod:
            return millis(it->second.mod_ms);
          case RequestType::kDel:
            return millis(it->second.del_ms);
        }
        return kDefaultOpEstimate;
      };
      auto est_finish = [&](std::size_t rid) {
        const SimTime backlog =
            network.channel(dag.request(rid).location).agent_busy_until();
        return std::max(backlog, network.now()) + est_duration(rid);
      };
      // Repeat passes in id order until one sends nothing, visiting only
      // requests whose predecessors are all out; a successor a send makes
      // speculable joins the set and, if its id is higher, this same pass.
      bool progress = true;
      while (progress) {
        progress = false;
        for (auto it = speculable.begin(); it != speculable.end();) {
          const std::size_t id = *it;
          if (issued[id] || remaining_preds[id] == 0) {
            it = speculable.erase(it);
            continue;
          }
          if (dead[slot[id]] != 0) {
            ++it;
            continue;
          }
          SimTime latest_pred_finish{};
          for (std::size_t p : dag.predecessors(id)) {
            if (!terminal[p]) {
              latest_pred_finish = std::max(latest_pred_finish, est_finish(p));
            }
          }
          if (latest_pred_finish + options.guard <= est_finish(id)) {
            remaining_preds[id] = 0;  // commit to early issue
            ready_time[id] = network.now();
            send(id);
            it = speculable.erase(it);
            progress = true;
          } else {
            ++it;
          }
        }
      }
    }
  }
};

}  // namespace detail

ExecutionReport execute(net::Network& network, const RequestDag& dag,
                        UpdateScheduler& scheduler,
                        const ExecutorOptions& options) {
  AsyncExecution run = execute_async(network, dag, scheduler, options);
  while (!run.done() && network.events().step()) {
  }
  // Timers still queued beyond this point hold the state alive and no-op.
  return run.valid() ? run.finish() : ExecutionReport{};
}

bool AsyncExecution::done() const {
  return state_ == nullptr || state_->done_count >= state_->n;
}

const ExecutionReport& AsyncExecution::finish() {
  assert(state_ != nullptr);
  state_->finish();
  return state_->report;
}

void AsyncExecution::abort() {
  if (state_ == nullptr) return;
  // Deliberately not finish(): no report finalization, no telemetry span —
  // the issuing controller is dead. The flag alone neutralizes every queued
  // timer/completion (they all bail on `finished`).
  state_->finished = true;
}

AsyncExecution execute_async(net::Network& network, const RequestDag& dag,
                             UpdateScheduler& scheduler,
                             const ExecutorOptions& options) {
  AsyncExecution handle;
  if (dag.size() == 0) return handle;

  auto st =
      std::make_shared<detail::ExecState>(network, dag, scheduler, options);
  st->faults_before = snapshot_faults(network, dag);
  st->init();
  if (dag.is_acyclic()) {
    st->dispatch();
  } else {
    st->fail_cyclic();
  }
  handle.state_ = std::move(st);
  return handle;
}

}  // namespace tango::sched
