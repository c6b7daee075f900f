// The Tango Probing Engine (paper §4): applies Tango patterns to a switch
// over the real OpenFlow channel and collects measurements.
//
// Probe flows are indexed 0..N: flow i matches the exact IPv4 pair
// (10.x.y.z, 192.168+i) so probe rules never overlap each other and are
// L3-only (single-wide TCAM shape). probe_flow(i) sends a packet matching
// exactly rule i.
// Under an active fault injector probes and commands can vanish; the engine
// detects loss (a probe that never reports back, a barrier whose reply
// never lands) and re-issues, so inference still converges — with the loss
// counters exposed so measurements can widen their confidence intervals
// instead of silently pretending the channel was clean. A synchronous
// operation waits until the event queue drains: exact and unbounded in
// simulated time, which legitimate batches need (a 5000-add barrier takes
// >80 simulated seconds). A message with no answer by then is lost; a lost
// probe is re-sent up to 10 times, and a lost install, delete or barrier up
// to 4 times, before it is abandoned.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.h"
#include "tango/pattern.h"

namespace tango::core {

/// Header layers a probe rule constrains — used by the TCAM-width
/// inference pattern (§3's single/double-wide capacity differences).
enum class RuleShape { kL3Only, kL2Only, kL2AndL3 };

class ProbeEngine {
 public:
  ProbeEngine(net::Network& network, SwitchId switch_id);

  // Loss tallies are telemetry::Counter instruments: per-engine values here
  // (each engine probes one switch), mirrored into the network's
  // MetricsRegistry under "probe.*" when telemetry is attached so run
  // reports see the fleet-wide totals.
  /// Probe packets that vanished and were re-sent.
  [[nodiscard]] std::size_t lost_probes() const { return lost_probes_.value(); }
  /// Commands/barriers that vanished and were re-sent.
  [[nodiscard]] std::size_t lost_commands() const {
    return lost_commands_.value();
  }
  /// Probes given up on after 10 re-sends.
  [[nodiscard]] std::size_t abandoned_probes() const {
    return abandoned_probes_.value();
  }
  /// Installs, deletes and barriers given up on after 4 re-sends.
  [[nodiscard]] std::size_t abandoned_installs() const {
    return abandoned_installs_.value();
  }

  /// Match/packet construction for probe flow `index`. The default L3-only
  /// shape is single-wide on every TCAM mode that supports it.
  [[nodiscard]] static of::Match probe_match(std::uint32_t index,
                                             RuleShape shape = RuleShape::kL3Only);
  [[nodiscard]] static of::PacketHeader probe_packet(
      std::uint32_t index, RuleShape shape = RuleShape::kL3Only);
  [[nodiscard]] static of::FlowMod probe_add(std::uint32_t index,
                                             std::uint16_t priority = 0x8000,
                                             RuleShape shape = RuleShape::kL3Only);

  /// Install one probe rule (synchronous). Returns false on rejection.
  bool install(std::uint32_t index, std::uint16_t priority = 0x8000,
               RuleShape shape = RuleShape::kL3Only);

  /// Delete every probe rule (and anything else matching-all).
  void clear_rules();

  /// Send a probe packet for flow `index`; returns its data-path RTT.
  /// Lost probes are re-sent (up to 10 times); if every attempt
  /// vanishes, returns a zero duration.
  SimDuration probe_flow(std::uint32_t index);

  /// Like probe_flow, but distinguishes "abandoned" from a real RTT.
  std::optional<SimDuration> try_probe(std::uint32_t index);

  /// Issue a command sequence and time it barrier-to-barrier; then send the
  /// pattern's traffic, collecting RTTs. Records into `scores` if given.
  PatternMeasurement apply(const TangoPattern& pattern, ScoreDb* scores = nullptr);

  /// Barrier-timed batch: send all commands, wait for barrier, return span.
  SimDuration timed_batch(const std::vector<of::FlowMod>& commands,
                          std::size_t* rejected = nullptr);

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] SwitchId switch_id() const { return switch_id_; }

  /// Probing overhead so far (messages/bytes on this switch's channel).
  [[nodiscard]] const net::ChannelStats& overhead() const;

 private:
  /// Barrier that survives loss: re-sends until a reply lands (bounded).
  SimTime sync_barrier();

  /// Bump a per-engine counter and its fleet-wide registry mirror.
  void count(telemetry::Counter& local, const char* global_name);

  net::Network& network_;
  SwitchId switch_id_;
  telemetry::Counter lost_probes_;
  telemetry::Counter lost_commands_;
  telemetry::Counter abandoned_probes_;
  telemetry::Counter abandoned_installs_;
};

}  // namespace tango::core
