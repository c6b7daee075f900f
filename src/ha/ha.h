// Controller high availability (HA tentpole, part 3 of 3): primary/standby
// pair, epoch-fenced failover, deterministic takeover reconciliation.
//
// An HaController wires an acting-primary TangoController to a standby
// shadow over a ReplicationLink:
//
//  * while healthy, the primary heartbeats and checkpoints its knowledge
//    base onto the link, and every transaction stamped via stamp() ships
//    its write-ahead journal (sched::JournalSink bridge) — the standby
//    holds a bounded-lag shadow of what the primary knows and was doing;
//  * failover is detected by the standby's heartbeat watchdog (adaptive
//    threshold, see standby.h) and made split-brain safe by monotonic
//    epochs fenced into flow-mod cookies (openflow/epoch.h): take_over()
//    bumps the epoch and claims it on every switch first, so a deposed
//    primary's in-flight retries are refused at the switch with EPERM;
//  * takeover then replays the shipped journal through the Reconciler —
//    readback, diff against the policy's target image (post for
//    roll-forward, pre for rollback), ordered repair — with every desired
//    cookie re-fenced to the new epoch, re-validates knowledge freshness
//    through the sentinel, and only then re-opens intent admission.
//
// WAL discipline for double failover: before replaying anything, the new
// primary ships a fresh checkpoint and re-journals every in-flight
// transaction to the *next* standby — so a crash during its own takeover
// reconciliation is itself recoverable.
//
// Byte-identity: with HA running but no faults, nothing here touches a
// switch channel (heartbeats/checkpoints ride the replication link only;
// epoch fencing piggybacks on cookies via first-contact adoption) and
// nothing writes telemetry unless publish() is called explicitly — all
// existing reports stay byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ha/replication.h"
#include "ha/standby.h"
#include "scheduler/transaction.h"
#include "tango/tango.h"
#include "telemetry/trace.h"

namespace tango::ha {

/// The acting primary ships a heartbeat every kHeartbeatInterval (see
/// standby.h) and a knowledge checkpoint every kCheckpointInterval.
inline constexpr SimDuration kCheckpointInterval = millis(50);

struct HaOptions {
  /// Executor options for replay repair traffic.
  sched::ExecutorOptions replay_exec;
};

struct TakeoverReport {
  std::uint32_t epoch = 0;
  SimTime detected_at{};
  SimTime completed_at{};
  double takeover_ms = 0.0;
  std::size_t switches_fenced = 0;
  std::size_t fence_failures = 0;
  std::size_t knowledge_restored = 0;
  /// Shadow knowledge age at takeover (replication lag the successor ate).
  SimDuration knowledge_age{};
  std::size_t txns_replayed = 0;
  std::size_t txns_rolled_forward = 0;
  std::size_t txns_rolled_back = 0;
  std::size_t repairs_issued = 0;
  std::size_t stale_rules_removed = 0;
  std::size_t sentinel_probes = 0;
  bool converged = true;
  /// Double failover: this takeover's controller crashed mid-replay.
  bool aborted = false;
  /// The reconciler's target image per replayed switch — the oracle input:
  /// post-takeover readback must agree with this.
  std::map<SwitchId, sched::TableImage> targets;
  /// Post images of transactions the dead primary had already committed —
  /// the "no committed transaction lost" oracle input (rule identity is
  /// compared modulo the cookie's epoch byte).
  std::map<SwitchId, sched::TableImage> committed_targets;
};

struct HaStats {
  std::uint64_t heartbeats_shipped = 0;
  std::uint64_t checkpoints_shipped = 0;
  std::uint64_t failover_count = 0;
  /// Delivered records refused because they carried a deposed primary's
  /// epoch (split-brain guard on the replication plane).
  std::uint64_t stale_records_dropped = 0;
  double last_takeover_ms = 0.0;
};

class HaController {
 public:
  /// Both controllers outlive this object; `primary` starts as the acting
  /// primary. Successors are passed to take_over() explicitly.
  HaController(net::Network& network, core::TangoController& primary,
               HaOptions options);

  /// Begin heartbeating + checkpointing (ships an initial checkpoint so the
  /// standby is warm from t0) and arm the failover watchdog.
  void start();

  /// Stop scheduling new heartbeats/checkpoints/watchdogs so the event
  /// queue can drain. Already-queued no-op timers still fire.
  void stop();

  /// Stamp transaction options with the acting epoch and the journal
  /// replication sink. The HA path to begin_update()/UpdateTransaction.
  [[nodiscard]] sched::TransactionOptions stamp(
      sched::TransactionOptions base);

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] core::TangoController& active() { return *active_; }
  [[nodiscard]] bool accepting_intents() const { return accepting_; }
  /// Admission gate for ServiceOptions::admission_gate: closed from crash
  /// detection until takeover reconciliation + sentinel revalidation done.
  [[nodiscard]] std::function<bool()> admission_gate();

  // --- chaos hooks ---------------------------------------------------------
  /// The acting primary's process dies now: heartbeats/checkpoints stop,
  /// journal shipping stops. The caller abandons in-flight transactions
  /// (UpdateTransaction::abandon) — or deliberately does not, to model a
  /// partitioned zombie still retrying under its stale epoch.
  void crash_primary();
  /// Arm a crash of the *next acting primary* at virtual time `at` — fires
  /// between takeover replay steps (double-failover scenario).
  void schedule_primary_crash(SimTime at) { crash_at_ = at; }

  [[nodiscard]] ReplicationLink& link() { return link_; }
  [[nodiscard]] StandbyController& standby() { return standby_; }

  // --- failover ------------------------------------------------------------
  /// True once the watchdog declared the primary dead. Cleared by
  /// take_over().
  [[nodiscard]] bool takeover_due() const { return takeover_due_; }

  /// Promote `successor`: bump + fence the epoch on every switch, restore
  /// the shadow knowledge/trust, re-arm the next standby (WAL re-ship),
  /// replay every in-flight transaction through the Reconciler, re-validate
  /// via the sentinel, re-open admission. Synchronous — pumps the event
  /// queue. Returns the report (also appended to takeovers()).
  const TakeoverReport& take_over(core::TangoController& successor);

  [[nodiscard]] const std::vector<TakeoverReport>& takeovers() const {
    return takeovers_;
  }
  [[nodiscard]] const HaStats& stats() const { return stats_; }

  /// Mirror ha.* metrics into a telemetry context. Never called implicitly:
  /// fault-free runs leave every existing report byte-identical.
  void publish(telemetry::Telemetry* t) const;

 private:
  void on_record(const ReplicationRecord& rec);
  void arm_watchdog();
  void schedule_heartbeat();
  void schedule_checkpoint();
  void ship_checkpoint();
  /// Replay one in-flight transaction per its policy; merges stats+targets
  /// into `rep`. Returns the reconciler's converged verdict.
  bool replay_txn(const TxnShadow& shadow, TakeoverReport& rep);

  net::Network& network_;
  HaOptions options_;
  core::TangoController* active_;
  ReplicationLink link_;
  JournalReplicator replicator_;
  StandbyController standby_;

  std::uint32_t epoch_ = 1;
  bool running_ = false;
  bool primary_down_ = false;
  bool accepting_ = true;
  bool takeover_due_ = false;
  std::uint64_t watchdog_gen_ = 0;
  /// Generation guard for the self-rescheduling heartbeat/checkpoint
  /// chains: bumping it orphans any queued pulse (crash, takeover, stop).
  std::uint64_t pulse_gen_ = 0;
  std::optional<SimTime> crash_at_;
  std::vector<TakeoverReport> takeovers_;
  HaStats stats_;
};

}  // namespace tango::ha
