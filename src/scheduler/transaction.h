// Transactional network updates (intent journal + crash reconciliation).
//
// An UpdateTransaction wraps one RequestDag execution with a write-ahead
// intent journal and a recovery protocol:
//
//  1. At construction it snapshots the pre-update table of every affected
//     switch over the control channel, stamps each request with a durable
//     cookie (transaction id in the top 32 bits, DAG node id in the low 32),
//     and journals per request the flow_mod that will be issued plus the
//     inverse operations that would undo it (delete-for-add, restore of the
//     previously installed entries for modify/delete).
//  2. commit() executes the DAG through the normal scheduler/executor path.
//     The journal tracks per-entry state via executor observers. If nothing
//     crashed and nothing failed, the transaction commits — the fault-free
//     fast path issues exactly the flow_mods a bare execute() would.
//  3. When an agent crash is detected (crash-notification hook or fault
//     counters advancing) or requests fail, the reconciler reads actual
//     switch state back, diffs it against the journal's desired image, and
//     either rolls the transaction forward (converge to the post-update
//     image, dependency order preserved) or rolls it back (restore the
//     pre-update snapshot, dependencies reversed) — per RecoveryPolicy.
//
// Cookies make re-issue idempotent: an ADD replaces in place, so repeating
// a journaled intent after a crash cannot duplicate rules, and leftovers
// from a dead transaction are attributable by their cookie's top half.
//
// Assumption (documented, asserted nowhere): requests within one
// transaction do not race on the same rule key — the journal computes
// inverses against the snapshot in DAG topological order, which is only
// unambiguous when at most one request writes a given (match, priority).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "openflow/epoch.h"
#include "scheduler/executor.h"
#include "scheduler/reconciler.h"
#include "scheduler/verifier.h"

namespace tango::sched {

enum class RecoveryPolicy {
  /// Converge every affected switch to the post-update image.
  kRollForward,
  /// Restore every affected switch to its pre-update snapshot.
  kRollBack,
};

std::string to_string(RecoveryPolicy policy);

/// One journaled intent: the flow_mod to issue and how to undo it.
struct JournalEntry {
  enum class State { kPlanned, kAcked, kFailed };

  std::size_t dag_id = 0;
  SwitchId location = 0;
  of::FlowMod intent;
  /// Inverse operations, computed against the pre-state this entry saw
  /// (snapshot + earlier entries in DAG order). Empty only for a MODIFY
  /// that acted on nothing (its inverse is a strict delete of the entry the
  /// modify created).
  std::vector<of::FlowMod> inverse;
  State state = State::kPlanned;
};

/// An update's write-ahead journal, with the post images and the rule
/// attribution built alongside it.
struct Journal {
  /// One entry per DAG node, in DAG topological order.
  std::vector<JournalEntry> entries;
  /// DAG node id -> its index in `entries`.
  std::vector<std::size_t> entry_of;
  /// Per switch: the pre image with every intent applied in journal order.
  std::map<SwitchId, TableImage> post;
  /// Per switch: rule -> DAG node that last wrote it (post image).
  std::map<SwitchId, RuleOwners> writers;
  /// Per switch: pre-image rule -> DAG node that first destroyed or
  /// overwrote it (for attributing rollback restores).
  std::map<SwitchId, RuleOwners> touched;
};

/// Journal `dag` against the per-switch pre images `pre` (a switch missing
/// there starts empty). Requests are visited by DAG level, then id; each is
/// compiled with to_flow_mod() and journaled with the inverses that undo it
/// against the image it acts on, which is then updated with
/// apply_to_image() semantics. A MODIFY or DELETE restores the rules it
/// hits in TableImage key order.
Journal build_journal(const RequestDag& dag,
                      const std::map<SwitchId, TableImage>& pre);

struct TransactionReport;
class UpdateTransaction;

/// Observer streaming a transaction's write-ahead journal off-process (the
/// HA replication log): the standby receives the full intent list before
/// the first frame hits the wire, then per-entry acks and the final
/// outcome. Callbacks fire synchronously on the issuing controller in
/// virtual time; a null sink (the default) leaves the path untouched.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  /// Journal built (constructor epilogue): intents, inverses and pre-images
  /// are all readable on `txn`.
  virtual void on_txn_begin(const UpdateTransaction& txn) = 0;
  /// DAG node `dag_id` reached a terminal state on the wire.
  virtual void on_entry_acked(const UpdateTransaction& txn, std::size_t dag_id,
                              bool accepted) = 0;
  /// finish_commit() completed (fast path or reconciled).
  virtual void on_txn_finish(const UpdateTransaction& txn,
                             const TransactionReport& report) = 0;
};

struct TransactionOptions {
  RecoveryPolicy policy = RecoveryPolicy::kRollForward;
  /// Executor options for the commit itself. on_complete/on_failed are
  /// overwritten — the journal owns them for the duration of commit().
  ExecutorOptions exec;
  /// Repair rounds of a reconciliation (ReconcilerOptions::max_rounds).
  std::size_t max_reconcile_rounds = 3;
  /// Transaction id; 0 draws from a process-wide counter. Tests that
  /// compare two runs in one process pin it so cookies are reproducible.
  std::uint32_t txn_id = 0;
  /// Controller epoch fenced into every cookie (see openflow/epoch.h).
  /// 0 (the default) keeps the legacy (txn << 32) | node layout bit-for-bit
  /// and skips all epoch checks at the switch; the HA layer stamps the
  /// acting primary's epoch so a deposed controller's retries are refused.
  std::uint32_t epoch = 0;
  /// Journal replication sink (non-owning; the HA layer ships records to
  /// the standby through it). Null = no replication, zero overhead.
  JournalSink* journal_sink = nullptr;
  /// Scope this transaction's world-view to its own rule-space footprint:
  /// snapshot images keep only rules that carry this transaction's cookie
  /// or whose match overlaps a request's match on that switch, and every
  /// reconciliation/readback diff ignores out-of-scope rules (see
  /// ReconcilerOptions::scope). Required when transactions over
  /// rule-disjoint footprints run concurrently on shared switches — an
  /// unscoped rollback would treat a co-resident tenant's rules as stale
  /// leftovers and sweep them. Off by default: a serial transaction keeps
  /// whole-table reconciliation (strictly stronger repair).
  bool scope_to_footprint = false;
  /// Switches whose commit must be readback-verified even on the fault-free
  /// fast path (the knowledge-health layer lists quarantined switches
  /// here): after execution their tables are read back and diffed against
  /// the post image; divergence is repaired through the reconciler. Empty =
  /// the fast path is untouched.
  std::set<SwitchId> readback_verify;
  /// Fires once with the final report at the end of every commit() (both
  /// the fast path and the reconcile path). The knowledge-health layer
  /// feeds on readback mismatches / clean verified commits through this.
  std::function<void(const TransactionReport&)> on_report;
};

struct TransactionReport {
  std::uint32_t txn_id = 0;
  RecoveryPolicy policy = RecoveryPolicy::kRollForward;
  ExecutionReport exec;
  /// True when the network verifiably reached the policy's end state
  /// (fault-free commit, or reconciliation converged).
  bool committed = false;
  /// True when the reconciler ran at all.
  bool reconciled = false;
  /// True only when policy-driven reconciliation unwound the transaction
  /// to the pre image (kRollBack). A readback-verify repair on the fast
  /// path sets reconciled but NOT rolled_back — it converges forward to
  /// the post image regardless of policy.
  bool rolled_back = false;
  std::size_t reconcile_rounds = 0;
  std::size_t repairs_issued = 0;
  std::size_t stale_rules_removed = 0;
  std::size_t readback_requests = 0;
  std::size_t readback_lost = 0;
  /// Switches whose agent crashed (tables wiped) during commit.
  std::set<SwitchId> crashed_switches;
  /// Switches the reconciler could not read back; their end state is
  /// unknown and committed is false.
  std::set<SwitchId> unreconciled;
  /// Per switch: rules found diverging from the post image by a
  /// readback-verified commit (options.readback_verify). Non-empty means
  /// the switch acknowledged work it did not do — the mismatches were
  /// repaired (reconciled = true) before commit() returned.
  std::map<SwitchId, std::size_t> readback_mismatches;
  /// Filled by verify().
  VerifierReport verify;
};

class UpdateTransaction {
 public:
  /// Snapshots pre-state, stamps cookies, builds the journal. Runs readback
  /// traffic on the network's event queue (so construct before starting any
  /// makespan-sensitive measurement, and before scheduling absolute-time
  /// fault events meant to hit the commit itself).
  UpdateTransaction(net::Network& network, RequestDag dag,
                    TransactionOptions options = {});

  /// Execute the update; on crash/failure, reconcile per policy.
  /// Exactly start_commit() + pump-the-event-queue + finish_commit().
  const TransactionReport& commit(UpdateScheduler& scheduler);

  // --- phased commit ---------------------------------------------------------
  // The intent service runs several transactions over disjoint footprints
  // concurrently: each is start_commit()ed, then one top-level loop pumps
  // the shared event queue, polling exec_done() and finish_commit()ing each
  // transaction as it drains. finish_commit() runs the *synchronous*
  // epilogue (readback verification, reconciliation — these pump the event
  // queue themselves), so it must be called from the top-level loop, never
  // from inside an event callback. `scheduler` must outlive finish_commit().

  /// Dispatch the DAG onto the event queue without pumping it. Installs the
  /// journal observers and a crash listener for the span of the commit.
  void start_commit(UpdateScheduler& scheduler);
  /// True once every request reached a terminal state (or nothing was
  /// dispatched). Poll between event-queue steps.
  [[nodiscard]] bool exec_done() const;
  /// Finalize the execution report, then run the commit epilogue: crash
  /// detection, reconciliation per policy, readback verification, report
  /// callback. Call exactly once, after exec_done().
  const TransactionReport& finish_commit();

  /// Walk `flows` through the network post-commit; results land in
  /// report().verify and are also returned.
  const VerifierReport& verify(const std::vector<FlowCheck>& flows);

  /// Abandon a started commit without finishing it — models the issuing
  /// controller dying mid-flight. The execution state machine is stopped
  /// (pending timers, retries and completions become no-ops), the crash
  /// listener is dropped, and no reconciliation or report callback runs:
  /// whatever reached the switches stays there for the HA takeover path to
  /// reconcile from the shipped journal. finish_commit() must not be
  /// called afterwards.
  void abandon();

  [[nodiscard]] std::uint32_t id() const { return txn_id_; }
  /// Cookie stamped on DAG node `dag_id`'s flow_mod. With a nonzero
  /// options.epoch the top byte carries the fence and the transaction id is
  /// truncated to 24 bits; epoch 0 is the legacy layout, bit-for-bit.
  [[nodiscard]] std::uint64_t cookie_of(std::size_t dag_id) const {
    return of::fenced_cookie(options_.epoch, txn_id_,
                             static_cast<std::uint32_t>(dag_id));
  }
  static std::uint32_t txn_of_cookie(std::uint64_t cookie) {
    const auto hi = static_cast<std::uint32_t>(cookie >> 32);
    return of::epoch_of_cookie(cookie) != 0 ? (hi & of::kCookieTxnMask) : hi;
  }

  [[nodiscard]] const std::vector<JournalEntry>& journal() const {
    return journal_.entries;
  }
  [[nodiscard]] const TransactionOptions& options() const { return options_; }
  [[nodiscard]] const TransactionReport& report() const { return report_; }
  [[nodiscard]] const TableImage& pre_image(SwitchId id) const {
    return pre_.at(id);
  }
  [[nodiscard]] const TableImage& post_image(SwitchId id) const {
    return journal_.post.at(id);
  }
  [[nodiscard]] RequestDag& dag() { return dag_; }
  [[nodiscard]] const RequestDag& dag() const { return dag_; }

 private:
  /// This transaction's id as it appears in its own cookies (truncated to
  /// 24 bits when fenced) — the value txn_of_cookie() yields for them.
  [[nodiscard]] std::uint32_t txn_key() const {
    return options_.epoch != 0 ? (txn_id_ & of::kCookieTxnMask) : txn_id_;
  }
  void reconcile();
  /// Readback verification for options.readback_verify switches: diff
  /// actual tables against `want_images` (the post image on the fast path
  /// and after roll-forward, the pre image after rollback), repair
  /// divergence through the reconciler. `forward` picks the attribution
  /// map and dependency direction, mirroring reconcile().
  void verify_readback(const std::map<SwitchId, TableImage>& want_images,
                       bool forward);
  /// Reconciler::Author for this transaction: a rule carrying our cookie
  /// maps to its node; any other rule by key through the writers (`forward`)
  /// or the pre-image rules each node touched (rollback).
  [[nodiscard]] std::optional<std::size_t> author_of(SwitchId sw,
                                                     const RuleImage& rule,
                                                     bool forward) const;
  /// True when original DAG node `a` must complete before `b` (rollback
  /// reverses the arguments). Lazily computes the reachability closure.
  bool reaches(std::size_t a, std::size_t b);
  /// Footprint-scope membership (options_.scope_to_footprint): ours by
  /// cookie, or overlapping one of our matches on that switch.
  [[nodiscard]] bool in_scope(SwitchId sw, const RuleImage& rule) const;
  /// ReconcilerOptions::scope predicate when scoping is on; empty otherwise.
  [[nodiscard]] std::function<bool(SwitchId, const RuleImage&)>
  scope_predicate() const;

  net::Network& network_;
  RequestDag dag_;
  TransactionOptions options_;
  std::uint32_t txn_id_ = 0;

  std::map<SwitchId, TableImage> pre_;
  Journal journal_;
  /// Fault-injector crash counters at construction, for detecting crashes
  /// the notification hook could not observe.
  std::map<SwitchId, std::uint64_t> crashes_at_begin_;
  /// Per switch: this transaction's request matches (only populated when
  /// options_.scope_to_footprint), backing in_scope().
  std::map<SwitchId, std::vector<of::Match>> footprint_;

  std::vector<std::vector<std::uint64_t>> reach_;  // lazy closure, bit rows
  TransactionReport report_;

  // Phased-commit state (start_commit .. finish_commit).
  AsyncExecution async_;
  std::uint64_t crash_token_ = 0;
  bool commit_started_ = false;
  SimTime commit_begin_{};
};

}  // namespace tango::sched
