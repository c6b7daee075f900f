#include "ha/ha.h"

#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "openflow/epoch.h"
#include "scheduler/reconciler.h"
#include "tango/knowledge_io.h"

namespace tango::ha {

namespace {

/// One-way replication link delivery delay.
constexpr SimDuration kReplicationDelay = micros(150);
/// Per-attempt round-trip budget and attempts when fencing the new epoch
/// onto a switch at takeover (the retries outlast a reboot window).
constexpr SimDuration kFenceTimeout = millis(50);
constexpr std::size_t kFenceAttempts = 10;
/// Reconciler repair rounds for each replayed transaction at takeover.
constexpr std::size_t kMaxReplayRounds = 6;

/// True when `cookie` is fenced and its txn bits belong to `txn_id`.
bool cookie_matches_txn(std::uint64_t cookie, std::uint32_t txn_id) {
  if (of::epoch_of_cookie(cookie) == 0) return false;
  const auto txn = static_cast<std::uint32_t>(cookie >> 32) & of::kCookieTxnMask;
  return txn == (txn_id & of::kCookieTxnMask);
}

}  // namespace

HaController::HaController(net::Network& network,
                           core::TangoController& primary, HaOptions options)
    : network_(network),
      options_(options),
      active_(&primary),
      link_(network.events(), kReplicationDelay),
      replicator_(link_, &epoch_) {
  link_.set_sink(
      [this](const ReplicationRecord& rec) { on_record(rec); });
}

void HaController::start() {
  running_ = true;
  primary_down_ = false;
  ++pulse_gen_;
  standby_.arm(network_.now());
  ship_checkpoint();  // the standby is warm from t0
  schedule_heartbeat();
  schedule_checkpoint();
  arm_watchdog();
}

void HaController::stop() {
  running_ = false;
  ++pulse_gen_;
  ++watchdog_gen_;  // queued timers become fast no-ops
}

sched::TransactionOptions HaController::stamp(sched::TransactionOptions base) {
  base.epoch = epoch_;
  base.journal_sink = &replicator_;
  return base;
}

std::function<bool()> HaController::admission_gate() {
  return [this] { return accepting_; };
}

void HaController::crash_primary() {
  primary_down_ = true;
  ++pulse_gen_;  // heartbeat/checkpoint chains die with the process
}

void HaController::on_record(const ReplicationRecord& rec) {
  // Split-brain guard on the replication plane, mirroring cookie fencing on
  // the data plane: a deposed primary's stragglers (journal records stamped
  // with its old epoch) must not pollute the successor pair's shadow.
  if (rec.epoch != 0 && rec.epoch < epoch_) {
    ++stats_.stale_records_dropped;
    return;
  }
  standby_.receive(rec, network_.now());
  if (rec.type == RecordType::kHeartbeat) arm_watchdog();
}

void HaController::arm_watchdog() {
  if (!running_) return;
  const std::uint64_t gen = ++watchdog_gen_;
  // +1ns: primary_suspect is strict (>), so the deadline event must land
  // just past the threshold boundary.
  network_.events().schedule_after(standby_.threshold() + nanos(1),
                                   [this, gen] {
    if (gen != watchdog_gen_ || !running_) return;
    if (standby_.primary_suspect(network_.now())) takeover_due_ = true;
  });
}

void HaController::schedule_heartbeat() {
  const std::uint64_t gen = pulse_gen_;
  network_.events().schedule_after(kHeartbeatInterval, [this, gen] {
    if (gen != pulse_gen_ || !running_ || primary_down_) return;
    ReplicationRecord rec;
    rec.type = RecordType::kHeartbeat;
    rec.epoch = epoch_;
    link_.ship(std::move(rec));
    ++stats_.heartbeats_shipped;
    schedule_heartbeat();
  });
}

void HaController::schedule_checkpoint() {
  const std::uint64_t gen = pulse_gen_;
  network_.events().schedule_after(kCheckpointInterval, [this, gen] {
    if (gen != pulse_gen_ || !running_ || primary_down_) return;
    ship_checkpoint();
    schedule_checkpoint();
  });
}

void HaController::ship_checkpoint() {
  ReplicationRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.epoch = epoch_;
  std::ostringstream text;
  for (SwitchId id = 1; id <= network_.switch_count(); ++id) {
    if (const auto* know = active_->knowledge(id)) {
      // Keyed by decimal switch id: names don't round-trip through the
      // knowledge_io format, the id is what the successor's adopt() needs.
      core::write_knowledge(text, std::to_string(id), *know);
    }
    if (const auto* h = active_->health().health(id)) {
      rec.health[id] = HealthSnapshot{h->trust, h->quarantined};
    }
  }
  rec.knowledge_text = text.str();
  link_.ship(std::move(rec));
  ++stats_.checkpoints_shipped;
}

const TakeoverReport& HaController::take_over(
    core::TangoController& successor) {
  TakeoverReport rep;
  rep.detected_at = network_.now();
  rep.epoch = ++epoch_;
  accepting_ = false;
  takeover_due_ = false;
  primary_down_ = false;  // the successor is the live primary now
  active_ = &successor;
  ++stats_.failover_count;

  // Snapshot the shadow first: pumping the queue below can deliver records
  // still in flight from the dead primary, and those belong to its epoch.
  const auto inflight = standby_.inflight();
  const auto committed = standby_.committed();
  const auto knowledge = standby_.knowledge();
  const auto health = standby_.health();
  rep.knowledge_age = standby_.knowledge_age(rep.detected_at);

  // 1. Fence: claim the bumped epoch on every switch before issuing any
  //    repair, so a deposed primary's in-flight retries are refused at the
  //    switch rather than racing the replay. Retries outlast reboot windows.
  for (SwitchId id = 1; id <= network_.switch_count(); ++id) {
    bool fenced = false;
    for (std::size_t attempt = 0; attempt < kFenceAttempts && !fenced;
         ++attempt) {
      const auto verdict = network_.claim_epoch_sync(id, epoch_, kFenceTimeout);
      fenced = !verdict.lost && verdict.accepted;
    }
    if (fenced) {
      ++rep.switches_fenced;
    } else {
      ++rep.fence_failures;
      log::warn("ha takeover: failed to fence epoch " +
                std::to_string(epoch_) + " on switch " + std::to_string(id));
    }
  }

  // 2. Restore the shadow knowledge and trust verdicts into the successor.
  //    adopt() re-tracks health at full trust; restore() overwrites with the
  //    replicated snapshot afterwards.
  for (const auto& [id, know] : knowledge) {
    successor.adopt(know);
    ++rep.knowledge_restored;
  }
  for (const auto& [id, snap] : health) {
    successor.health().restore(id, snap.trust, snap.quarantined);
  }

  // 3. WAL discipline: re-arm the *next* standby before replaying anything —
  //    fresh checkpoint plus a re-journal of every in-flight transaction —
  //    so a crash during this takeover's own reconciliation is itself
  //    recoverable (double failover).
  standby_.reset_shadow();
  ship_checkpoint();
  for (const auto& [txn_id, shadow] : inflight) {
    ReplicationRecord begin;
    begin.type = RecordType::kTxnBegin;
    begin.epoch = epoch_;
    begin.txn = shadow.txn;
    begin.txn.epoch = epoch_;
    begin.txn_id = txn_id;
    link_.ship(std::move(begin));
    for (const auto& [dag_id, accepted] : shadow.acked) {
      ReplicationRecord ack;
      ack.type = RecordType::kTxnEntry;
      ack.epoch = epoch_;
      ack.txn_id = txn_id;
      ack.dag_id = dag_id;
      ack.accepted = accepted;
      link_.ship(std::move(ack));
    }
  }
  running_ = true;
  ++pulse_gen_;
  standby_.arm(network_.now());
  schedule_heartbeat();
  schedule_checkpoint();

  // 4. "No committed transaction lost" oracle input: the post images of
  //    transactions the dead primary reported committed, filtered to the
  //    rules each transaction authored (matched by the cookie's txn bits;
  //    the epoch byte differs across failovers, oracles compare modulo it).
  for (const auto& [txn_id, shadow] : committed) {
    auto images = decode_pre_images(shadow.txn);
    for (const auto& entry : shadow.txn.entries) {
      sched::apply_to_image(images[entry.location],
                            decode_flow_mod(entry.intent_frame));
    }
    for (const auto& [sw, image] : images) {
      for (const auto& [key, rule] : image) {
        if (!cookie_matches_txn(rule.cookie, shadow.txn.txn_id)) continue;
        rep.committed_targets[sw].insert_or_assign(key, rule);
      }
    }
  }

  // 5. Replay every in-flight transaction through the reconciler, in txn-id
  //    (journal) order. A scheduled successor crash aborts mid-loop.
  for (const auto& [txn_id, shadow] : inflight) {
    if (crash_at_ && network_.now() >= *crash_at_) {
      rep.aborted = true;
      rep.converged = false;
      crash_at_.reset();
      crash_primary();
      break;
    }
    const bool converged = replay_txn(shadow, rep);
    ++rep.txns_replayed;
    ReplicationRecord fin;
    fin.type = RecordType::kTxnFinish;
    fin.epoch = epoch_;
    fin.txn_id = txn_id;
    fin.committed =
        converged && shadow.txn.policy == sched::RecoveryPolicy::kRollForward;
    fin.rolled_back = shadow.txn.policy == sched::RecoveryPolicy::kRollBack;
    link_.ship(std::move(fin));
  }

  // 6. Knowledge re-validation: the shadow may lag the dead primary by up to
  //    one checkpoint interval; when it does, force sentinel probes so the
  //    successor's knowledge is measured, not assumed, before admission.
  if (!rep.aborted) {
    const bool force = rep.knowledge_age > kCheckpointInterval;
    const auto actions = successor.run_sentinel({}, force);
    rep.sentinel_probes = actions.size();
  }

  if (!rep.aborted) accepting_ = true;
  rep.completed_at = network_.now();
  rep.takeover_ms = (rep.completed_at - rep.detected_at).ms();
  stats_.last_takeover_ms = rep.takeover_ms;
  arm_watchdog();
  takeovers_.push_back(std::move(rep));
  return takeovers_.back();
}

bool HaController::replay_txn(const TxnShadow& shadow, TakeoverReport& rep) {
  const bool forward =
      shadow.txn.policy == sched::RecoveryPolicy::kRollForward;

  // Target image per policy: the pre image (rollback), or the pre image
  // with the journaled intents applied in order (roll-forward).
  auto desired = decode_pre_images(shadow.txn);

  // Footprint for scoped replay: pre-image slots plus each intent's slot.
  std::map<SwitchId, std::unordered_set<sched::RuleKey, sched::RuleKeyHash>>
      footprint;
  for (const auto& [sw, image] : desired) {
    for (const auto& [key, rule] : image) {
      (void)key;
      footprint[sw].emplace(rule.match, rule.priority);
    }
  }

  std::map<std::size_t, std::size_t> order;  // dag_id -> journal index
  for (std::size_t i = 0; i < shadow.txn.entries.size(); ++i) {
    const auto& entry = shadow.txn.entries[i];
    order[entry.dag_id] = i;
    const auto fm = decode_flow_mod(entry.intent_frame);
    footprint[entry.location].emplace(fm.match, fm.priority);
    if (forward) sched::apply_to_image(desired[entry.location], fm);
  }

  // Re-fence every desired cookie to the successor's epoch: the switches
  // were just fenced, so repairs carrying the dead primary's epoch would be
  // refused as stale. Unfenced (baseline) cookies pass through.
  for (auto& [sw, image] : desired) {
    (void)sw;
    for (auto& [key, rule] : image) {
      (void)key;
      rule.cookie = of::refence_cookie(rule.cookie, epoch_);
    }
  }

  // Attribution by cookie: replayed rules carry [epoch|txn|dag] cookies, so
  // the journal index doubles as the reconciler's dependency order —
  // forward order for roll-forward, reversed to unwind for rollback.
  // Baseline restores (cookie 0) get no ordering constraint.
  const auto author = [this, &shadow, &order](
                          SwitchId, const sched::RuleImage& rule)
      -> std::optional<std::size_t> {
    (void)this;
    if (!cookie_matches_txn(rule.cookie, shadow.txn.txn_id))
      return std::nullopt;
    const auto dag = static_cast<std::size_t>(rule.cookie & 0xffffffffu);
    if (order.find(dag) == order.end()) return std::nullopt;
    return dag;
  };
  const auto precede = [forward, &order](std::size_t a, std::size_t b) {
    return forward ? order.at(a) < order.at(b) : order.at(a) > order.at(b);
  };

  sched::ReconcilerOptions ropts;
  ropts.max_rounds = kMaxReplayRounds;
  ropts.exec = options_.replay_exec;
  // Stale leftovers still carry the deposed primary's epoch; their DELETEs
  // must be stamped with ours or the fence we just raised refuses them.
  ropts.repair_epoch = epoch_;
  if (shadow.txn.scoped) {
    // Honour the primary's footprint scoping: co-resident tenants' rules
    // stay invisible to this replay's diff.
    ropts.scope = [&footprint, &author](SwitchId sw,
                                        const sched::RuleImage& rule) {
      if (author(sw, rule).has_value()) return true;
      const auto it = footprint.find(sw);
      return it != footprint.end() &&
             it->second.count(sched::RuleKey(rule.match, rule.priority)) > 0;
    };
  }

  sched::Reconciler reconciler(network_, ropts);
  const auto stats = reconciler.run(desired, author, precede);

  rep.repairs_issued += stats.repairs_issued;
  rep.stale_rules_removed += stats.stale_rules_removed;
  if (!stats.converged) rep.converged = false;
  if (forward) {
    ++rep.txns_rolled_forward;
  } else {
    ++rep.txns_rolled_back;
  }
  for (const auto& [sw, image] : desired) {
    auto& target = rep.targets[sw];
    for (const auto& [key, rule] : image) target.insert_or_assign(key, rule);
  }
  return stats.converged;
}

void HaController::publish(telemetry::Telemetry* t) const {
  if (t == nullptr) return;
  t->metrics.counter("ha.failover_count").inc(stats_.failover_count);
  t->metrics.counter("ha.heartbeats_shipped").inc(stats_.heartbeats_shipped);
  t->metrics.counter("ha.checkpoints_shipped")
      .inc(stats_.checkpoints_shipped);
  t->metrics.counter("ha.records_delivered").inc(link_.stats().delivered);
  t->metrics.gauge("ha.takeover_ms").set(stats_.last_takeover_ms);
  t->metrics.gauge("ha.replication_lag_ns")
      .set(static_cast<double>(standby_.stats().max_replication_lag.ns()));
  std::uint64_t stale = 0;
  for (SwitchId id = 1; id <= network_.switch_count(); ++id) {
    stale += network_.sw(id).stale_epoch_rejections();
  }
  t->metrics.counter("ha.stale_epoch_rejections").inc(stale);
}

}  // namespace tango::ha
