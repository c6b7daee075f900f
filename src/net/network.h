// Network facade: the simulated controller's view of a set of diverse
// switches connected by a topology.
//
// Two styles of use:
//  * synchronous — install()/probe()/barrier_sync() advance the event queue
//    until the operation completes; this is how the inference algorithms
//    (which are sequential by nature) run.
//  * asynchronous — post_flow_mod_ex() with a completion callback; this is how
//    the schedulers issue concurrent updates across switches and measure
//    makespan over simulated time.
//
// enable_faults() attaches a per-switch FaultInjector to the channel. Under
// faults the synchronous operations accept a timeout: instead of asserting
// that the operation completed, they report `lost = true` when the queue
// drains (or passes the deadline) without an answer — callers retry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "net/topology.h"
#include "openflow/packet.h"
#include "sim/event_queue.h"
#include "switchsim/switch_model.h"
#include "telemetry/trace.h"

namespace tango::net {

class Network {
 public:
  explicit Network(SimDuration control_latency = micros(100));

  /// Add a switch; returns its datapath id (1-based). A topology node with
  /// the profile's name is created alongside (node id = switch id - 1).
  SwitchId add_switch(const switchsim::SwitchProfile& profile,
                      std::uint64_t seed = 0);

  [[nodiscard]] std::size_t switch_count() const { return endpoints_.size(); }
  switchsim::SimulatedSwitch& sw(SwitchId id);
  ControlChannel& channel(SwitchId id);
  Topology& topology() { return topo_; }
  sim::EventQueue& events() { return events_; }
  [[nodiscard]] SimTime now() const { return events_.now(); }

  static NodeId node_of(SwitchId id) { return static_cast<NodeId>(id - 1); }
  static SwitchId switch_of(NodeId n) { return static_cast<SwitchId>(n + 1); }

  // --- telemetry -----------------------------------------------------------
  /// Attach a telemetry context (non-owning; nullptr detaches). Propagates
  /// to every channel, existing and future, and names one trace lane per
  /// switch. With no context attached every instrumentation site is a
  /// single null check — the fast path is bit-identical to an
  /// un-instrumented build.
  void set_telemetry(telemetry::Telemetry* t);
  [[nodiscard]] telemetry::Telemetry* telemetry() { return telemetry_; }

  // --- fault injection -----------------------------------------------------
  /// Route all traffic to/from switch `id` through a FaultInjector with the
  /// given config. Replaces any previous injector; returns it for stats.
  FaultInjector& enable_faults(SwitchId id, const FaultConfig& config);

  /// The injector attached to `id`, or nullptr if faults are disabled.
  [[nodiscard]] FaultInjector* fault_injector(SwitchId id);

  /// Crash switch `id`'s agent now (tables wiped, in-flight traffic lost).
  void crash_agent(SwitchId id, SimDuration downtime);

  /// Freeze switch `id`'s agent for `duration` (state survives).
  void stall_agent(SwitchId id, SimDuration duration);

  /// Arm a semantic misbehavior profile on switch `id` (orthogonal to
  /// channel faults; see switchsim/misbehavior.h). A no-op echo is
  /// scheduled at each event time so activation — and any fabricated
  /// notifications it produces — happens at the scheduled instant rather
  /// than at the next incidental controller interaction.
  void set_misbehavior(SwitchId id, switchsim::MisbehaviorProfile profile);

  /// Observers for agent crashes (tables wiped), fired at crash time for
  /// both injector-scheduled and forced crashes. They compose: each
  /// concurrently-running transaction registers its own listener for the
  /// span of its commit. Listeners fire in ascending token order. Returns a
  /// token for removal.
  using CrashListener = std::function<void(SwitchId)>;
  std::uint64_t add_crash_listener(CrashListener listener);
  void remove_crash_listener(std::uint64_t token);

  // --- synchronous controller operations ----------------------------------
  struct InstallResult {
    bool accepted = false;
    SimTime completed_at{};
    /// True when no completion arrived (message or notice lost to faults).
    bool lost = false;
  };
  /// Send one flow_mod and run the simulation until it completes. With a
  /// non-zero `timeout`, gives up (lost = true) once simulated time would
  /// pass `now + timeout`; with zero, gives up only if the queue drains.
  InstallResult install(SwitchId id, const of::FlowMod& fm,
                        SimDuration timeout = {});

  /// Send a barrier and run until the reply arrives; returns arrival time.
  /// Asserts delivery — use try_barrier_sync() under faults.
  SimTime barrier_sync(SwitchId id);

  /// Barrier that tolerates loss: nullopt if no reply within `timeout`
  /// (or, when timeout is zero, by the time the queue drains).
  std::optional<SimTime> try_barrier_sync(SwitchId id, SimDuration timeout = {});

  struct ProbeResult {
    switchsim::ForwardOutcome outcome;
    SimDuration rtt{};
    /// True when the probe vanished (PACKET_OUT or its outcome lost).
    bool lost = false;
  };
  /// Inject a data-plane probe (as a PACKET_OUT) and run until it finishes
  /// its trip. rtt is the measured data-path round trip.
  ProbeResult probe(SwitchId id, const of::PacketHeader& header,
                    SimDuration timeout = {});

  /// Send an ECHO_REQUEST; `on_reply` fires if the reply makes it back.
  /// Returns the xid so the caller can cancel_reply() a lost echo.
  std::uint32_t post_echo(SwitchId id, std::function<void()> on_reply);

  /// Forget the pending reply callback for `xid` (e.g. an echo that timed
  /// out). Safe to call after the reply already fired.
  void cancel_reply(std::uint32_t xid);

  // --- controller-epoch fencing (HA failover; see openflow/epoch.h) --------
  struct EpochClaimResult {
    bool accepted = false;
    std::uint32_t switch_epoch = 0;
    /// True when the claim or its reply vanished (faults / switch down).
    bool lost = true;
  };
  /// Post a vendor epoch-claim; `done` fires with the switch's verdict.
  /// Returns the xid (cancel_reply() to abandon a lost claim).
  std::uint32_t post_epoch_claim(SwitchId id, std::uint32_t epoch,
                                 std::function<void(const EpochClaimResult&)> done);

  /// Claim mastership epoch `epoch` on switch `id` and run until the switch
  /// answers (lost = true on timeout/drain — the takeover path retries).
  EpochClaimResult claim_epoch_sync(SwitchId id, std::uint32_t epoch,
                                    SimDuration timeout = {});

  /// Fetch flow statistics matching `filter` (synchronous).
  of::FlowStatsReply flow_stats_sync(SwitchId id, const of::Match& filter);

  /// Loss-aware flow-stats readback: nullopt when the request or its reply
  /// vanished within `timeout` (zero = wait until the queue drains) — so a
  /// reconciler can distinguish "table is empty" from "message lost".
  std::optional<of::FlowStatsReply> try_flow_stats(SwitchId id,
                                                   const of::Match& filter,
                                                   SimDuration timeout = {});

  /// Fetch per-table statistics (synchronous).
  of::TableStatsReply table_stats_sync(SwitchId id);

  /// Aggregate flow statistics (synchronous).
  of::AggregateStatsReply aggregate_stats_sync(SwitchId id, const of::Match& filter);

  /// Switch description strings (synchronous).
  of::DescStatsReply description_sync(SwitchId id);

  /// Per-port counters (synchronous); kPortNone = all ports.
  of::PortStatsReply port_stats_sync(SwitchId id, std::uint16_t port_no = of::kPortNone);

  /// Switch configuration (synchronous GET_CONFIG).
  of::GetConfigReply get_config_sync(SwitchId id);

  /// Fail or restore a topology link. Both endpoint switches observe the
  /// transition on their connected port and emit PORT_STATUS notifications
  /// to the controller (delivered via the unsolicited handler).
  void set_link_state(std::size_t link_index, bool up);

  // --- asynchronous controller operations ----------------------------------
  using Completion = std::function<void(bool accepted, SimTime completed_at)>;

  /// Completion detail for post_flow_mod_ex: rejections carry the switch's
  /// error type/code so the executor can classify retryable vs. fatal.
  struct FlowModResult {
    bool accepted = false;
    SimTime completed_at{};
    bool has_error = false;
    of::ErrorType error_type = of::ErrorType::kFlowModFailed;
    std::uint16_t error_code = 0;
  };
  using CompletionEx = std::function<void(const FlowModResult&)>;
  /// Queue a flow_mod; `done` fires (in simulated time) when the switch
  /// agent finishes it.
  void post_flow_mod_ex(SwitchId id, const of::FlowMod& fm, CompletionEx done);

  /// Queue many flow_mods in one batched wire burst (see
  /// ControlChannel::send_batch); `done_each` fires once per command, in
  /// the same order and at the same simulated times as sequential
  /// post_flow_mod_ex() calls would produce.
  void post_flow_mod_batch(SwitchId id, std::span<const of::FlowMod> fms,
                           Completion done_each);

  /// Handler for unsolicited switch->controller messages (FLOW_REMOVED,
  /// asynchronous PACKET_INs) that match no outstanding xid.
  using UnsolicitedHandler = std::function<void(SwitchId, const of::Message&)>;
  void set_unsolicited_handler(UnsolicitedHandler h) {
    unsolicited_ = std::move(h);
  }

  /// Drain all pending events.
  void run_all();

  /// Wall-clock nanoseconds this network has spent advancing its event
  /// loop (run_all / run_until_done and everything built on them). Real
  /// time, not simulated time: soak drivers surface it per seed so
  /// tools/bench_compare.py can gate parallel-runner speedups. Never feeds
  /// back into simulated behaviour or fingerprints.
  [[nodiscard]] std::uint64_t wall_ns() const { return wall_ns_; }

  [[nodiscard]] const ChannelStats& stats(SwitchId id) const;
  [[nodiscard]] SimDuration control_latency() const { return control_latency_; }

 private:
  struct Endpoint {
    std::unique_ptr<switchsim::SimulatedSwitch> sw;
    std::unique_ptr<ControlChannel> channel;
    std::unique_ptr<FaultInjector> injector;
  };

  std::uint32_t next_xid() { return xid_++; }
  Endpoint& endpoint(SwitchId id);
  /// Hook switch `id`'s channel into telemetry_ and name its trace lane.
  void attach_telemetry(SwitchId id);
  /// Step the queue until `done`, the queue drains, or (if timeout != 0)
  /// the next event lies beyond now + timeout. Returns final `done`.
  bool run_until_done(const bool& done, SimDuration timeout);

  sim::EventQueue events_;
  Topology topo_;
  SimDuration control_latency_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::vector<Endpoint> endpoints_;
  std::uint32_t xid_ = 1;
  std::uint64_t wall_ns_ = 0;

  // Dispatch tables keyed by xid. Flow-mod completions are stored in the
  // detailed form; plain Completion callers are wrapped on entry.
  std::unordered_map<std::uint32_t, CompletionEx> flow_mod_cbs_;
  std::unordered_map<std::uint32_t, std::function<void(const switchsim::ForwardOutcome&)>>
      probe_cbs_;
  std::unordered_map<std::uint32_t, std::function<void(const of::Message&)>> reply_cbs_;
  UnsolicitedHandler unsolicited_;
  std::map<std::uint64_t, CrashListener> crash_listeners_;
  std::uint64_t next_crash_token_ = 1;
};

}  // namespace tango::net
