// Multi-tenant intent service: admission, conflict-aware concurrent
// dispatch, and fairness (the control-plane frontend).
//
// Tenants submit update intents; the service owns everything between
// submission and commit:
//
//  * Admission — one bounded FIFO queue per tenant. A full queue rejects
//    with a typed error (backpressure: the tenant defers and resubmits);
//    an intent carrying a coalesce key collapses onto a queued intent with
//    the same key instead of consuming a slot (two TE re-allocations for
//    the same path collapse to the latest payload).
//  * Conflict analysis — each intent's footprint (switches touched + the
//    matches written per switch) enters a ConflictGraph; intents run
//    concurrently iff no footprints overlap (of::Match::overlaps on shared
//    switches). Only true conflicts serialize.
//  * Fair dispatch — deficit round-robin across tenants, costed in DAG
//    requests: each pass a tenant's deficit grows by the quantum and its
//    queue HEAD dispatches when the deficit covers the head's cost (heads
//    only: per-tenant FIFO order is preserved). A head blocked by a
//    conflict leaves its deficit accruing, so the tenant catches up once
//    the conflicting commit drains.
//  * Execution — each dispatched intent becomes a footprint-scoped
//    transaction (TangoController::begin_update_concurrent) driven through
//    the phased commit (start_commit / finish_commit); run() owns the one
//    top-level event-queue pump that interleaves all in-flight commits in
//    virtual time.
//
// Everything is deterministic: tenants are visited in rotating id order,
// completions are polled in dispatch order, and no wall clock exists.
//
// ServiceReport aggregates per-tenant latency percentiles, queueing delay,
// coalesce/rejection tallies, achieved concurrency, and Jain's fairness
// index over per-tenant service; the same tallies stream into the
// telemetry registry under "service.*" (docs/SERVICE.md has the schema).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "service/conflict.h"
#include "service/intent.h"
#include "tango/tango.h"

namespace tango::service {

struct ServiceOptions {
  /// Queue slots per tenant; a submit beyond this is rejected (kQueueFull)
  /// unless it coalesces onto a queued intent.
  std::size_t per_tenant_queue_cap = 16;
  /// Transactions in flight at once (across all tenants).
  std::size_t max_concurrent = 8;
  /// Template for every dispatched transaction; policy comes from the
  /// intent and txn_id from txn_id_base.
  sched::TransactionOptions txn;
  /// Non-zero: intent i commits as txn_id_base + i (reproducible cookies
  /// across runs in one process — the process-wide counter would drift).
  /// Zero: ids draw from the process-wide counter.
  std::uint32_t txn_id_base = 0;
  /// When set and returning false, submit() rejects with kFailingOver
  /// before consuming a queue slot — HA wires HaController::admission_gate
  /// here so intents are refused while a takeover is reconciling. Unset =
  /// always open.
  std::function<bool()> admission_gate;
  /// Fires once per completed intent, right after its commit epilogue, with
  /// the final transaction report. Oracles and soak harnesses attribute
  /// per-intent outcomes (committed / rolled back) through this.
  std::function<void(TenantId, std::uint64_t intent_id,
                     const sched::TransactionReport&)>
      on_commit;
};

/// Per-tenant service accounting (ServiceReport::tenants).
struct TenantStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t coalesced = 0;
  std::size_t dispatched = 0;
  std::size_t completed = 0;
  /// Commits whose transaction did not reach the policy's end state.
  std::size_t failed_commits = 0;
  /// DAG requests in completed intents — the fairness index's unit.
  std::size_t requests_served = 0;
  /// Submit -> dispatch wait (service-side queueing).
  SimDuration total_queue_wait{};
  SimDuration max_queue_wait{};
  /// Submit -> commit-finished, one sample per completed intent (ms).
  std::vector<double> latency_ms;
  /// Deterministic percentiles over latency_ms, filled by report().
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
};

struct ServiceReport {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t coalesced = 0;
  std::size_t dispatched = 0;
  std::size_t completed = 0;
  std::size_t failed_commits = 0;
  /// Dispatch attempts refused because the head conflicted with a running
  /// intent (each blocked pass counts once).
  std::size_t conflict_blocks = 0;
  std::size_t max_queue_depth = 0;
  /// Peak transactions in flight at once.
  std::size_t max_concurrency = 0;
  /// Time-weighted mean of in-flight transactions over busy (>= 1 active)
  /// virtual time.
  double avg_concurrency = 0;
  /// Jain's index over per-tenant requests_served: (Σx)² / (n·Σx²), 1.0 =
  /// perfectly even service, 1/n = one tenant got everything. Tenants that
  /// submitted nothing are excluded.
  double fairness_index = 1.0;
  /// First submit -> all queues drained, in virtual time.
  SimDuration makespan{};
  std::map<TenantId, TenantStats> tenants;
};

class IntentService {
 public:
  IntentService(net::Network& network, core::TangoController& controller,
                ServiceOptions options = {});

  /// Admission: enqueue (or coalesce) the intent, or reject with a typed
  /// error. Never touches the network.
  SubmitResult submit(Intent intent);

  /// Dispatch + pump until every queue is empty and every in-flight commit
  /// finished. Callers may interleave submit() and run() phases; latency
  /// accounting spans runs.
  void run(sched::UpdateScheduler& scheduler);

  [[nodiscard]] std::size_t queue_depth(TenantId tenant) const;
  [[nodiscard]] std::size_t active_count() const { return active_.size(); }

  /// Finalize percentiles/fairness and publish the "service.*" gauges;
  /// cheap to call repeatedly (recomputed from the running tallies).
  const ServiceReport& report();

 private:
  struct Queued {
    std::uint64_t intent_id = 0;
    Intent intent;
    Footprint fp;
    std::size_t cost = 0;  // DAG requests
    SimTime submitted{};
  };
  struct Active {
    std::uint64_t intent_id = 0;
    TenantId tenant = 0;
    std::size_t cost = 0;
    SimTime submitted{};
    SimTime dispatched{};
    std::unique_ptr<sched::UpdateTransaction> txn;
  };

  /// One DRR sweep: keep making passes over the tenants until a full pass
  /// dispatches nothing and no head is merely deficit-starved.
  void dispatch_round(sched::UpdateScheduler& scheduler);
  void dispatch(Queued&& q, sched::UpdateScheduler& scheduler);
  /// finish_commit() every in-flight transaction whose execution drained,
  /// in dispatch order. Returns true when any finished.
  bool finish_done();
  /// Run one commit's epilogue and account its completion. The Active must
  /// already be removed from active_.
  void close_commit(Active a);
  /// Concurrency accounting at every active-set transition.
  void note_transition(std::size_t active_before);

  net::Network& network_;
  core::TangoController& controller_;
  ServiceOptions options_;

  std::map<TenantId, std::deque<Queued>> queues_;
  std::map<TenantId, std::size_t> deficit_;
  std::vector<Active> active_;
  ConflictGraph running_;
  /// Rotating DRR start position (tenant ids >= cursor go first).
  TenantId rr_cursor_ = 0;

  std::uint64_t next_intent_id_ = 1;
  bool saw_first_submit_ = false;
  SimTime first_submit_{};
  SimTime idle_at_{};
  SimTime last_transition_{};
  /// Σ active_count · dt and Σ dt over busy time, for avg_concurrency.
  double weighted_active_ns_ = 0;
  double busy_ns_ = 0;

  ServiceReport report_;
};

}  // namespace tango::service
