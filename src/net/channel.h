// Control channel between the controller and one simulated switch.
//
// Every message crosses the channel as real OpenFlow 1.0 wire bytes (encoded
// and re-decoded through the codec) so byte/message accounting is honest.
// The switch agent processes control commands sequentially: a command starts
// at max(arrival, busy_until) and occupies the agent for its processing
// time; BARRIER_REQUEST is answered only once everything before it is done —
// exactly how the paper's install-latency measurements are taken.
//
// Data-plane packets (PACKET_OUT probes) bypass the command queue: the ASIC
// forwards regardless of what the management CPU is doing.
//
// Every frame is encoded into a pooled buffer held in one of the channel's
// frame slots, and completion notices (flow_mod done, probe returned) are
// plain records in notice slots. A slot records the crash epoch it was sent
// under; its arrival event drops it if a crash bumped the epoch since (a
// crash loses everything in flight, both ways), drops a frame for the
// switch while the agent is down, and otherwise decodes it, frees the slot
// and only then dispatches, so a reply sent while handling the message
// reuses the same buffer. Each event captures only (this, slot), which
// std::function stores inline, and a freed slot keeps its buffer's
// capacity, so a round trip does not allocate once the channel is warm.
//
// A FaultInjector may be attached. It only decides each frame's fate: how
// many copies cross (dropped, duplicated into a second slot), the bits a
// copy loses and how long it is held back (reordering), plus each notice's
// fate, agent stalls, and crashes that wipe the flow tables. A frame that
// no longer decodes is counted, logged and dropped on arrival; without an
// injector nothing should corrupt one, so Debug builds assert there.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/fault_injector.h"
#include "openflow/codec.h"
#include "openflow/packet.h"
#include "sim/event_queue.h"
#include "switchsim/switch_model.h"
#include "telemetry/trace.h"

namespace tango::net {

struct ChannelStats {
  std::uint64_t messages_to_switch = 0;
  std::uint64_t bytes_to_switch = 0;
  std::uint64_t messages_to_controller = 0;
  std::uint64_t bytes_to_controller = 0;
  std::uint64_t flow_mods = 0;
  std::uint64_t packets_out = 0;
};

class ControlChannel {
 public:
  /// Fires when the switch finishes a flow_mod this controller sent. On a
  /// rejection `error` carries the switch's ErrorMsg (type + code) so the
  /// controller can classify it; nullopt on success.
  using FlowModHandler =
      std::function<void(std::uint32_t xid, bool accepted, SimTime completed_at,
                         const std::optional<of::ErrorMsg>& error)>;
  /// Fires for any message the switch sends up (errors, packet_in, replies).
  using MessageHandler = std::function<void(const of::Message&)>;
  /// Fires when a probe packet completes its data-plane trip.
  using ProbeHandler = std::function<void(std::uint32_t xid,
                                          const switchsim::ForwardOutcome&)>;

  ControlChannel(sim::EventQueue& events, switchsim::SimulatedSwitch& sw,
                 SimDuration one_way_latency = micros(100));

  /// Send a controller->switch message; it is encoded, delayed by the
  /// channel latency, decoded, and handled by the switch agent. `msg` is
  /// only read while it is encoded, so a caller may reuse it at once.
  void send(const of::Message& msg);

  /// Send many messages as one wire burst: all frames are encoded
  /// back-to-back into one frame slot, the same pool send() uses, and one
  /// (this, slot) event hands them to the switch in order at the simulated
  /// arrival instant sequential send() calls would produce — observable
  /// behaviour is bit-identical. With a fault injector attached, each frame
  /// needs a fate of its own (drop/duplicate/corrupt are per-message
  /// decisions), so the batch falls back to sequential sends.
  void send_batch(std::span<const of::Message> msgs);

  void set_flow_mod_handler(FlowModHandler h) { on_flow_mod_ = std::move(h); }
  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }
  void set_probe_handler(ProbeHandler h) { on_probe_ = std::move(h); }

  /// Hook this channel into a telemetry context (non-owning; nullptr
  /// detaches). `lane` is the trace lane — the switch's datapath id. The
  /// channel emits one span per flow_mod the agent processes (its slice of
  /// the per-switch swim-lane) plus crash/stall instants, and caches its
  /// instrument pointers here so the per-message cost is a branch and a few
  /// integer adds.
  void set_telemetry(telemetry::Telemetry* t, SwitchId lane);

  /// Route all traffic through `injector` (non-owning; pass nullptr to
  /// detach) and schedule the crashes, stalls and partitions its config
  /// lists. Attaching again, or detaching, cancels those still pending.
  void attach_fault_injector(FaultInjector* injector);
  [[nodiscard]] FaultInjector* fault_injector() { return injector_; }

  /// Freeze the agent for `duration`: queued commands wait, state survives.
  /// Data-plane forwarding and ECHO liveness replies are unaffected.
  void stall_agent(SimDuration duration);

  /// True while the agent is rebooting after a crash.
  [[nodiscard]] bool agent_down(SimTime now) const { return now < down_until_; }

  /// Crashes this agent has taken (tables wiped) since the channel was
  /// built, whichever injector scheduled them. Never reset: an observer
  /// reads it before and after the span it watches.
  [[nodiscard]] std::uint64_t crash_count() const { return epoch_; }

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] SimTime agent_busy_until() const { return busy_until_; }
  [[nodiscard]] switchsim::SimulatedSwitch& switch_model() { return switch_; }

 private:
  /// Crash the agent now: flow tables wiped (reset to power-on state),
  /// every in-flight message in both directions lost, and the agent
  /// rejects traffic until `downtime` has elapsed.
  void crash_agent(SimDuration downtime);

  /// Slot-addressed storage with a free list. A released slot keeps its
  /// value for the next acquire(), so a pooled buffer keeps its capacity.
  /// References into it do not survive an acquire(): index it afresh.
  template <typename T>
  class Slots {
   public:
    std::uint32_t acquire() {
      if (free_.empty()) {
        items_.emplace_back();
        return static_cast<std::uint32_t>(items_.size() - 1);
      }
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    void release(std::uint32_t slot) { free_.push_back(slot); }
    T& operator[](std::uint32_t slot) { return items_[slot]; }

   private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
  };

  /// An out-of-band completion notice waiting in its slot: a flow_mod's
  /// completion or a probe's data-plane outcome.
  struct Notice {
    std::uint32_t xid = 0;
    /// The crash epoch the notice was scheduled under.
    std::uint64_t epoch = 0;
    bool probe = false;
    // flow_mod
    bool accepted = false;
    SimTime completed_at{};
    std::optional<of::ErrorMsg> error;
    // probe
    switchsim::ForwardOutcome outcome;
  };

  using Direction = FaultInjector::Direction;

  /// Frames in flight: the wire bytes of `count` frames encoded
  /// back-to-back (more than one only for a batch).
  struct Frame {
    std::vector<std::uint8_t> bytes;
    std::size_t count = 0;
    Direction dir = Direction::kToSwitch;
    /// The crash epoch the frames were sent under.
    std::uint64_t epoch = 0;
  };

  /// Count the `count` frames just encoded into `slot`, let the injector
  /// decide their fate, and schedule each copy's arrival one channel
  /// latency after `at`.
  void ship(std::uint32_t slot, Direction dir, std::size_t count, SimTime at);
  /// The arrival event of a frame slot: drops it if a crash or the agent's
  /// downtime lost it, else decodes and dispatches its frames in order,
  /// freeing the slot once the last one is decoded.
  void arrive(std::uint32_t slot);
  void release_frame(std::uint32_t slot);
  void on_arrival(const of::Message& msg);
  void handle(const of::Message& msg);
  void reply(const of::Message& msg, SimTime at);
  /// Schedule an out-of-band completion notice at `at`, subject to the
  /// injector's notification faults and the crash epoch.
  void notify(SimTime at, Notice notice);
  /// The event of a notice slot: frees it, then fires the handler unless a
  /// crash bumped the epoch since the notice was scheduled.
  void deliver_notice(std::uint32_t slot);

  sim::EventQueue& events_;
  switchsim::SimulatedSwitch& switch_;
  SimDuration latency_;
  SimTime busy_until_{};
  ChannelStats stats_;
  FlowModHandler on_flow_mod_;
  MessageHandler on_message_;
  ProbeHandler on_probe_;
  FaultInjector* injector_ = nullptr;
  /// Bumped by every attach_fault_injector(); a scheduled fault fires only
  /// under the attachment that scheduled it.
  std::uint64_t attach_generation_ = 0;
  Slots<Frame> frames_;
  Slots<Notice> notices_;
  /// Bumped on every crash, never reset (crash_count()); frames and
  /// notices in flight from older epochs vanish.
  std::uint64_t epoch_ = 0;
  SimTime down_until_{};

  // Telemetry (all nullptr when detached; see set_telemetry).
  telemetry::Telemetry* telemetry_ = nullptr;
  SwitchId lane_ = 0;
  telemetry::Counter* ctr_flow_mods_ = nullptr;
  telemetry::Counter* ctr_rejected_ = nullptr;
  telemetry::Histogram* hist_flow_mod_us_ = nullptr;
};

}  // namespace tango::net
