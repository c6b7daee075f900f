// Seeded fault injection for the control channel.
//
// The injector decides the fate of every frame the ControlChannel is about
// to put on the wire; the channel owns the bytes. copies() says how many
// copies cross: zero (dropped), one, or two (duplicated). damage() then
// flips bits of one copy in place and says how long it is held back, so
// frames sent after it can overtake. Completion notices that the simulator
// delivers out-of-band (flow_mod done, probe returned) are faulted through
// plan_notification() so "the switch did it but the controller never
// heard" is expressible.
// Agent failures come in two shapes: a stall (the management CPU freezes
// for a while but state survives) and a crash (tables wiped, every
// in-flight message lost, reconnect after a downtime window).
//
// All randomness is drawn from one Rng seeded from FaultConfig::seed, and
// draws happen in event order on the deterministic EventQueue — so a given
// (topology, workload, fault seed) triple replays byte-for-byte.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "openflow/constants.h"

namespace tango::net {

/// Declaratively scheduled faults, one list per fault type, so a chaos
/// schedule (src/chaos) can drive the injector without touching its RNG.
/// Times are absolute simulated times; events in the past fire immediately
/// when the injector is attached (the event queue clamps to now).
///
/// A crash: at `at` the agent reboots — all flow tables are wiped and every
/// in-flight message (both directions) is lost; the agent accepts traffic
/// again `downtime` later.
struct ScheduledCrash {
  SimTime at{};
  SimDuration downtime = millis(50);
};

struct ScheduledStall {
  SimTime at{};
  SimDuration duration = millis(10);
};

/// Control-channel partition: every frame and completion notice, in BOTH
/// directions, is blackholed for the window [at, at + duration). The agent
/// itself keeps running (state survives, unlike a crash) — the controller
/// simply cannot reach it, and vice versa.
struct ScheduledPartition {
  SimTime at{};
  SimDuration duration = millis(20);
};

/// Correlated loss burst: for the window [at, at + duration) the drop
/// probabilities are raised to at least the burst's values (the per-frame
/// Bernoulli draw still comes from the injector's one RNG, so bursts stay
/// reproducible).
struct ScheduledLossBurst {
  SimTime at{};
  SimDuration duration = millis(20);
  double drop_to_switch = 0.5;
  double drop_to_controller = 0.5;
};

struct FaultConfig {
  /// Per-direction Bernoulli fault probabilities, drawn once per frame.
  double drop_to_switch = 0.0;
  double drop_to_controller = 0.0;
  double duplicate_to_switch = 0.0;
  double duplicate_to_controller = 0.0;
  /// Probability that a frame is held back by a uniform extra delay in
  /// (0, reorder_window], letting frames sent after it overtake.
  double reorder_to_switch = 0.0;
  double reorder_to_controller = 0.0;
  SimDuration reorder_window = millis(1);
  /// Probability of flipping 1-4 random bytes in the frame. A corrupted
  /// frame that no longer decodes is discarded at the receiver (the
  /// transport's integrity check fails); one that still decodes is
  /// delivered as whatever it now says — exactly what a bit-flip does.
  double corrupt_to_switch = 0.0;
  double corrupt_to_controller = 0.0;
  /// Probability, per command arriving at the agent, that the agent
  /// freezes for stall_duration before processing anything further.
  double stall_probability = 0.0;
  SimDuration stall_duration = millis(10);
  std::uint64_t seed = 0xfa417u;

  // --- scheduled-event lists (declarative chaos driving) --------------------
  std::vector<ScheduledCrash> crashes;
  std::vector<ScheduledStall> stalls;
  std::vector<ScheduledPartition> partitions;
  std::vector<ScheduledLossBurst> loss_bursts;
};

struct FaultStats {
  std::uint64_t dropped_to_switch = 0;
  std::uint64_t dropped_to_controller = 0;
  std::uint64_t forced_drops = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  /// Corrupted frames the receiver could not decode and discarded.
  std::uint64_t undecodable = 0;
  /// Completion notices suppressed by plan_notification().
  std::uint64_t notifications_dropped = 0;
  /// Frames lost because a crash invalidated their delivery epoch.
  std::uint64_t lost_to_crash = 0;
  /// Frames that arrived while the agent was down (rebooting).
  std::uint64_t lost_to_down = 0;
  std::uint64_t stalls = 0;
  std::uint64_t crashes = 0;
  /// Scheduled partition windows that opened.
  std::uint64_t partitions = 0;
  /// Frames and completion notices blackholed by an active partition.
  std::uint64_t lost_to_partition = 0;
};

class FaultInjector {
 public:
  enum class Direction { kToSwitch, kToController };

  explicit FaultInjector(FaultConfig config)
      : config_(config), rng_(config.seed) {}

  /// How many copies of one outgoing frame cross the wire: 0 (partitioned,
  /// force-dropped or dropped), 1, or 2 (duplicated). Reads only the
  /// frame's type byte. `now` positions the frame against scheduled
  /// partition / loss-burst windows; callers without a clock (unit tests)
  /// may omit it.
  std::size_t copies(Direction dir, std::span<const std::uint8_t> frame,
                     SimTime now = {});

  /// Damage one copy in place: maybe flip 1-4 random bits of it, maybe hold
  /// it back. Returns its extra delivery delay (usually zero). Called once
  /// per copy copies() granted, the duplicate first.
  SimDuration damage(Direction dir, std::span<std::uint8_t> frame);

  /// Fault plan for an out-of-band completion notice (no wire bytes):
  /// nullopt = lost, otherwise the extra delivery delay (usually zero).
  /// Notices travel switch->controller, so to-controller rates apply.
  std::optional<SimDuration> plan_notification(SimTime now = {});

  /// True while a scheduled partition window covers `now`.
  [[nodiscard]] bool in_partition(SimTime now) const;

  /// Agent stall drawn per arriving command (zero duration = no stall).
  SimDuration draw_stall();

  /// Deterministically drop the next `count` frames of `type` going `dir`
  /// (consumed before any probabilistic draw) — for scripted scenarios
  /// like "lose exactly one BARRIER_REQUEST".
  void force_drop(Direction dir, of::MsgType type, std::size_t count = 1);

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  /// Counters the channel maintains (crash/down/undecodable losses).
  FaultStats& mutable_stats() { return stats_; }

 private:
  struct ForcedDrop {
    Direction dir;
    of::MsgType type;
    std::size_t remaining;
  };

  FaultConfig config_;
  FaultStats stats_;
  Rng rng_;
  std::vector<ForcedDrop> forced_drops_;
};

}  // namespace tango::net
