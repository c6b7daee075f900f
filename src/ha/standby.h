// Standby controller shadow (HA tentpole, part 2 of 3).
//
// The standby consumes the replication stream and maintains a bounded-lag
// shadow of the primary: the knowledge base and trust snapshots from the
// last checkpoint, plus one TxnShadow per journaled transaction — the full
// shipped intent list, which entries were acked on the wire, and whether
// the primary reported the commit finished. At takeover, the unfinished
// shadows are exactly the transactions in flight at the crash; the shipped
// journal is everything the new primary needs to roll each one forward or
// back.
//
// Failover detection is a heartbeat watchdog: the primary is suspected
// after three missed heartbeats, 3 * the expected interval, where the
// expected interval is learned from observed inter-arrival times the
// Jacobson/Karels way (as TCP learns its retransmission timeout):
//
//   srtt   <- (1-alpha) * srtt + alpha * sample        (alpha = 1/8)
//   rttvar <- (1-beta)  * rttvar + beta * |srtt-sample| (beta = 1/4)
//   interval = srtt + 4 * rttvar, clamped to [1 ms, kHeartbeatInterval]
//
// The shipping interval kHeartbeatInterval stands in until two intervals
// have been observed, and stays the ceiling after: learning may only
// tighten the watchdog. Pure bookkeeping on virtual time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "ha/replication.h"
#include "tango/tango.h"

namespace tango::ha {

/// The acting primary ships a heartbeat every kHeartbeatInterval.
inline constexpr SimDuration kHeartbeatInterval = millis(10);

/// One journaled transaction as mirrored by the standby.
struct TxnShadow {
  ShippedTxn txn;
  /// dag_id -> accepted, for entries whose ack record arrived.
  std::map<std::size_t, bool> acked;
  bool finished = false;
  bool committed = false;
  bool rolled_back = false;
};

struct StandbyStats {
  std::uint64_t records_received = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t checkpoints_applied = 0;
  std::uint64_t txns_shadowed = 0;
  /// Upstream losses detected from seq jumps (loss windows, partitions).
  std::uint64_t seq_gaps = 0;
  SimTime last_heartbeat_at{};
  SimTime last_checkpoint_at{};
  /// Worst delivery delay observed (delivered_at - sent_at).
  SimDuration max_replication_lag{};
};

class StandbyController {
 public:
  /// Consume one delivered record at virtual time `now`.
  void receive(const ReplicationRecord& rec, SimTime now);

  /// Failover verdict: no heartbeat for longer than threshold(). Requires
  /// at least one received heartbeat (arm() seeds the clock at start).
  [[nodiscard]] bool primary_suspect(SimTime now) const;

  /// Current miss threshold: 3 * learned interval, capped at
  /// 3 * kHeartbeatInterval.
  [[nodiscard]] SimDuration threshold() const;

  /// Seed the watchdog clock (HA start / post-takeover re-arm): heartbeats
  /// are considered current as of `now`.
  void arm(SimTime now) { stats_.last_heartbeat_at = now; armed_ = true; }

  /// Shadow knowledge from the last checkpoint, keyed by switch.
  [[nodiscard]] const std::map<SwitchId, core::SwitchKnowledge>& knowledge() const {
    return knowledge_;
  }
  [[nodiscard]] const std::map<SwitchId, HealthSnapshot>& health() const {
    return health_;
  }

  /// Age of the shadow knowledge (time since the last applied checkpoint).
  [[nodiscard]] SimDuration knowledge_age(SimTime now) const {
    return now - stats_.last_checkpoint_at;
  }

  /// Unfinished shadows — the transactions in flight at the crash.
  [[nodiscard]] std::map<std::uint32_t, TxnShadow> inflight() const;

  /// Finished shadows whose primary reported committed=true — takeover must
  /// not lose these (the "no committed transaction lost" oracle's input).
  [[nodiscard]] std::map<std::uint32_t, TxnShadow> committed() const;

  /// Drop all shadow transaction state (a fresh epoch's stream begins; the
  /// new primary re-journals whatever is still in flight).
  void reset_shadow() { txns_.clear(); }

  [[nodiscard]] const StandbyStats& stats() const { return stats_; }

 private:
  bool armed_ = false;
  std::uint64_t last_seq_ = 0;
  /// Learned heartbeat inter-arrival time (ms) and its mean deviation,
  /// over `intervals_` observed intervals.
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  std::uint64_t intervals_ = 0;
  std::map<SwitchId, core::SwitchKnowledge> knowledge_;
  std::map<SwitchId, HealthSnapshot> health_;
  std::map<std::uint32_t, TxnShadow> txns_;
  StandbyStats stats_;
};

}  // namespace tango::ha
