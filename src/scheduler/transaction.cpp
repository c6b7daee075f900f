#include "scheduler/transaction.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "tables/tuple_index.h"

namespace tango::sched {

std::string to_string(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kRollForward: return "roll-forward";
    case RecoveryPolicy::kRollBack: return "roll-back";
  }
  return "?";
}

namespace {

/// An ADD that reinstates `rule` exactly (replaces in place at its key).
of::FlowMod restore(const RuleImage& rule) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kAdd;
  fm.match = rule.match;
  fm.priority = rule.priority;
  fm.actions = rule.actions;
  fm.cookie = rule.cookie;
  return fm;
}

/// A strict delete of exactly (match, priority).
of::FlowMod erase_strict(const of::Match& match, std::uint16_t priority) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kDeleteStrict;
  fm.match = match;
  fm.priority = priority;
  return fm;
}

/// The rule an ADD (or a MODIFY that hits nothing) installs.
RuleImage installed(const of::FlowMod& fm) {
  return RuleImage{fm.match, fm.priority, fm.actions, fm.cookie};
}

/// One switch's post image while the journal is built, indexed for the two
/// queries the journal makes of it: a rule by identity (RuleKey), and the
/// rules a MODIFY or DELETE filter subsumes (a tuple-space index). A slot
/// per key also carries the key's attribution. Slots are never dropped: a
/// deleted rule's slot keeps its map node, and so its key string, for a
/// later ADD of the same key, and every slot remembers whether its key was
/// in the pre image.
class IndexedImage {
 public:
  static constexpr std::size_t kNobody = SIZE_MAX;

  struct Slot {
    FlowId id = 0;  // index in slots_, the tuple-space id
    bool in_pre = false;
    bool live = false;
    TableImage::iterator it;        // the rule, while live
    TableImage::node_type removed;  // its map node, after a DELETE
    std::size_t writer = kNobody;   // DAG node that last wrote the key
    std::size_t toucher = kNobody;  // first to destroy or overwrite it

    [[nodiscard]] RuleImage& rule() const { return it->second; }
    /// Only a pre-image key is attributed a touch, and only the first.
    void touched_by(std::size_t node) {
      if (in_pre && toucher == kNobody) toucher = node;
    }
  };

  /// Indexes `rules`, the pre image, which then becomes the post image;
  /// `requests` sizes the key index for the update's new keys.
  IndexedImage(TableImage& rules, std::size_t requests) : rules_(rules) {
    by_key_.reserve(rules_.size() + requests);
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
      Slot& s = slot(RuleKey(it->second.match, it->second.priority));
      s.in_pre = true;
      s.live = true;
      s.it = it;
      by_mask_.insert(it->second.match, s.id);
    }
  }

  /// The slot of `key`, created empty (not live) on first use.
  Slot& slot(const RuleKey& key) {
    const auto [it, fresh] = by_key_.try_emplace(key, slots_.size());
    if (fresh) slots_.emplace_back().id = it->second;
    return slots_[it->second];
  }

  /// Install `rule` at `s`, replacing a live rule in place.
  void assign(Slot& s, RuleImage rule) {
    if (s.live) {
      RuleImage& cur = s.rule();
      if (!(cur.match == rule.match)) {
        // Same key, different match (nw_tos, dl_vlan_pcp or a wildcarded
        // value differs): the tuple-space entry follows the match.
        by_mask_.erase(cur.match, s.id);
        by_mask_.insert(rule.match, s.id);
      }
      cur = std::move(rule);
      return;
    }
    if (s.removed.empty()) {
      std::string key = rule_key(rule.match, rule.priority);
      s.it = rules_.emplace(std::move(key), std::move(rule)).first;
    } else {
      s.removed.mapped() = std::move(rule);
      s.it = rules_.insert(std::move(s.removed)).position;
    }
    s.live = true;
    by_mask_.insert(s.rule().match, s.id);
  }

  void erase(Slot& s) {
    by_mask_.erase(s.rule().match, s.id);
    s.removed = rules_.extract(s.it);
    s.live = false;
  }

  /// The live rules `filter` subsumes, in TableImage key order.
  std::vector<Slot*> subsumed_by(const of::Match& filter) {
    std::vector<Slot*> hits;
    by_mask_.for_each_subsumable(filter, [&](FlowId id) {
      Slot& s = slots_[id];
      if (filter.subsumes(s.rule().match)) hits.push_back(&s);
    });
    std::sort(hits.begin(), hits.end(), [](const Slot* a, const Slot* b) {
      return a->it->first < b->it->first;
    });
    return hits;
  }

  /// Ends the build: the key index, remapped from slots to last writers,
  /// becomes the writers map, and the first touches fill `touched`.
  void hand_over(RuleOwners& writers, RuleOwners& touched) {
    for (auto it = by_key_.begin(); it != by_key_.end();) {
      const Slot& s = slots_[it->second];
      if (s.toucher != kNobody) touched.emplace(it->first, s.toucher);
      if (s.writer == kNobody) {
        it = by_key_.erase(it);
      } else {
        it->second = s.writer;
        ++it;
      }
    }
    writers = std::move(by_key_);
  }

 private:
  TableImage& rules_;
  RuleOwners by_key_;  // key -> index in slots_, until hand_over()
  std::deque<Slot> slots_;
  tables::TupleSpaceIndex by_mask_;
};

}  // namespace

Journal build_journal(const RequestDag& dag,
                      const std::map<SwitchId, TableImage>& pre) {
  Journal journal;
  journal.post = pre;

  std::map<SwitchId, std::size_t> requests_at;
  for (std::size_t id = 0; id < dag.size(); ++id) {
    ++requests_at[dag.request(id).location];
  }
  std::map<SwitchId, IndexedImage> images;
  for (const auto& [sw, requests] : requests_at) {
    images.try_emplace(sw, journal.post[sw], requests);
  }

  const auto level = dag.levels();
  std::vector<std::size_t> order(dag.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return level[a] < level[b];
                   });

  journal.entries.reserve(dag.size());
  journal.entry_of.resize(dag.size());
  for (const std::size_t id : order) {
    const SwitchRequest& req = dag.request(id);
    IndexedImage& image = images.find(req.location)->second;

    JournalEntry entry;
    entry.dag_id = id;
    entry.location = req.location;
    entry.intent = to_flow_mod(req);
    const of::FlowMod& fm = entry.intent;

    switch (req.type) {
      case RequestType::kAdd: {
        IndexedImage::Slot& s = image.slot(RuleKey(fm.match, fm.priority));
        entry.inverse.push_back(s.live ? restore(s.rule())
                                       : erase_strict(fm.match, fm.priority));
        s.touched_by(id);
        s.writer = id;
        image.assign(s, installed(fm));
        break;
      }
      case RequestType::kMod: {
        const auto hits = image.subsumed_by(fm.match);
        for (IndexedImage::Slot* s : hits) {
          entry.inverse.push_back(restore(s->rule()));
          s->touched_by(id);
          s->writer = id;
          s->rule().actions = fm.actions;
          s->rule().cookie = fm.cookie;
        }
        if (hits.empty()) {
          // The modify will act as an ADD of a fresh entry.
          entry.inverse.push_back(erase_strict(fm.match, fm.priority));
          IndexedImage::Slot& s = image.slot(RuleKey(fm.match, fm.priority));
          s.writer = id;
          image.assign(s, installed(fm));
        }
        break;
      }
      case RequestType::kDel:
        for (IndexedImage::Slot* s : image.subsumed_by(fm.match)) {
          entry.inverse.push_back(restore(s->rule()));
          s->touched_by(id);
          image.erase(*s);
        }
        break;
    }
    journal.entry_of[id] = journal.entries.size();
    journal.entries.push_back(std::move(entry));
  }

  for (auto& [sw, image] : images) {
    image.hand_over(journal.writers[sw], journal.touched[sw]);
  }
  return journal;
}

UpdateTransaction::UpdateTransaction(net::Network& network, RequestDag dag,
                                     TransactionOptions options)
    : network_(network), dag_(std::move(dag)), options_(std::move(options)) {
  const SimTime phase_begin = network_.now();
  // Fallback id draw for callers that don't pin one (examples, ad-hoc
  // tests). Atomic because parallel seed-sweep workers may construct
  // transactions concurrently; every determinism-sensitive path (chaos,
  // HA, service) pins options_.txn_id and never touches this counter.
  static std::atomic<std::uint32_t> next_txn_id{1};
  txn_id_ = options_.txn_id != 0
                ? options_.txn_id
                : next_txn_id.fetch_add(1, std::memory_order_relaxed);
  report_.txn_id = txn_id_;
  report_.policy = options_.policy;

  for (std::size_t i = 0; i < dag_.size(); ++i) {
    dag_.request(i).cookie = cookie_of(i);
  }

  std::set<SwitchId> affected;
  for (std::size_t i = 0; i < dag_.size(); ++i) {
    affected.insert(dag_.request(i).location);
  }

  if (options_.scope_to_footprint) {
    for (std::size_t i = 0; i < dag_.size(); ++i) {
      const SwitchRequest& req = dag_.request(i);
      footprint_[req.location].push_back(req.match);
    }
  }

  // --- pre-update snapshot ------------------------------------------------
  Reconciler reader(network_);
  ReconcileStats snap;
  for (const SwitchId sw : affected) {
    auto image = reader.read_table(sw, snap);
    if (image.has_value() && options_.scope_to_footprint) {
      // The world-view stops at our footprint: co-resident rules (another
      // tenant's mid-commit state, unrelated background entries) must not
      // enter the pre/post images, or a rollback would "restore" a torn
      // snapshot of rules this transaction never owned.
      for (auto it = image->begin(); it != image->end();) {
        if (in_scope(sw, it->second)) {
          ++it;
        } else {
          it = image->erase(it);
        }
      }
    }
    if (!image.has_value()) {
      // No baseline: rollback and inverse computation for this switch treat
      // the table as empty; flagged so the caller can tell.
      report_.unreconciled.insert(sw);
      log::warn("transaction " + std::to_string(txn_id_) +
                ": pre-update snapshot of switch " + std::to_string(sw) +
                " lost; treating table as empty");
    }
    pre_[sw] = image.value_or(TableImage{});
  }
  report_.readback_requests += snap.readback_requests;
  report_.readback_lost += snap.readback_lost;

  // --- journal + post image, in DAG topological order ----------------------
  journal_ = build_journal(dag_, pre_);

  // --- crash baseline ------------------------------------------------------
  for (const SwitchId sw : affected) {
    crashes_at_begin_[sw] = network_.crash_count(sw);
  }

  if (auto* t = network_.telemetry()) {
    t->trace.span("txn", "journal",
                  telemetry::TraceCollector::kControllerLane, phase_begin,
                  network_.now(),
                  {telemetry::arg("txn", std::uint64_t{txn_id_}),
                   telemetry::arg("entries",
                                  std::uint64_t{journal_.entries.size()}),
                   telemetry::arg("switches", std::uint64_t{affected.size()})});
    t->metrics.counter("txn.journaled_entries").inc(journal_.entries.size());
  }

  // WAL discipline: the standby holds the full intent journal before the
  // first frame hits the wire.
  if (options_.journal_sink != nullptr) options_.journal_sink->on_txn_begin(*this);
}

const TransactionReport& UpdateTransaction::commit(UpdateScheduler& scheduler) {
  start_commit(scheduler);
  network_.pump_until([this] { return exec_done(); });
  return finish_commit();
}

void UpdateTransaction::start_commit(UpdateScheduler& scheduler) {
  assert(!commit_started_);
  commit_started_ = true;
  commit_begin_ = network_.now();
  ExecutorOptions exec = options_.exec;
  exec.on_complete = [this](std::size_t id, bool accepted) {
    journal_.entries[journal_.entry_of[id]].state =
        accepted ? JournalEntry::State::kAcked : JournalEntry::State::kFailed;
    if (options_.journal_sink != nullptr) {
      options_.journal_sink->on_entry_acked(*this, id, accepted);
    }
  };
  exec.on_failed = [this](std::size_t id) {
    journal_.entries[journal_.entry_of[id]].state = JournalEntry::State::kFailed;
    if (options_.journal_sink != nullptr) {
      options_.journal_sink->on_entry_acked(*this, id, /*accepted=*/false);
    }
  };
  async_ = execute_async(network_, dag_, scheduler, exec);
}

bool UpdateTransaction::exec_done() const { return async_.done(); }

const TransactionReport& UpdateTransaction::finish_commit() {
  assert(commit_started_);
  auto* tele = network_.telemetry();
  /// One "commit" span per call, recorded at whichever exit is taken;
  /// nested under it are the executor's own "execute" span and, on the
  /// recovery path, the "reconcile" span.
  auto close_commit_span = [&] {
    if (tele == nullptr) return;
    tele->trace.span("txn", "commit",
                     telemetry::TraceCollector::kControllerLane, commit_begin_,
                     network_.now(),
                     {telemetry::arg("txn", std::uint64_t{txn_id_}),
                      telemetry::arg("committed", report_.committed),
                      telemetry::arg("reconciled", report_.reconciled)});
    tele->metrics.counter("txn.commits").inc();
    if (!report_.committed) tele->metrics.counter("txn.failed_commits").inc();
  };
  report_.exec = async_.valid() ? async_.finish() : ExecutionReport{};
  for (const auto& [sw, baseline] : crashes_at_begin_) {
    if (network_.crash_count(sw) > baseline) {
      report_.crashed_switches.insert(sw);
    }
  }

  const bool needs_reconcile =
      !report_.crashed_switches.empty() || report_.exec.failed_requests > 0 ||
      (options_.policy == RecoveryPolicy::kRollBack &&
       report_.exec.rejected > 0);
  if (!needs_reconcile) {
    // Fault-free fast path: the journal stays as evidence, nothing extra
    // touches the network — unless readback verification was requested for
    // quarantined switches, which is exactly the case where "nothing
    // failed" cannot be taken at the switch's word.
    report_.committed = report_.unreconciled.empty();
    if (!options_.readback_verify.empty()) {
      verify_readback(journal_.post, /*forward=*/true);
    }
    close_commit_span();
    if (options_.journal_sink != nullptr) {
      options_.journal_sink->on_txn_finish(*this, report_);
    }
    if (options_.on_report) options_.on_report(report_);
    return report_;
  }

  log::info("transaction " + std::to_string(txn_id_) + ": " +
            std::to_string(report_.crashed_switches.size()) +
            " crashed switch(es), " +
            std::to_string(report_.exec.failed_requests) +
            " failed request(s) -> reconciling (" +
            to_string(options_.policy) + ")");
  reconcile();
  if (!options_.readback_verify.empty()) {
    // The reconciler trusts its own readbacks, but a quarantined switch can
    // lie to it once (a stale-stats budget) and get marked converged while
    // the real table still diverges. Re-verify against the image this
    // policy was supposed to converge to — the re-read drains any remaining
    // lie budget or sees the truth, and repairs what it finds.
    const bool forward = options_.policy == RecoveryPolicy::kRollForward;
    verify_readback(forward ? journal_.post : pre_, forward);
  }
  close_commit_span();
  if (options_.journal_sink != nullptr) {
    options_.journal_sink->on_txn_finish(*this, report_);
  }
  if (options_.on_report) options_.on_report(report_);
  return report_;
}

void UpdateTransaction::abandon() {
  if (!commit_started_) return;
  async_.abort();
}

void UpdateTransaction::verify_readback(
    const std::map<SwitchId, TableImage>& want_images, bool forward) {
  const SimTime phase_begin = network_.now();
  ReconcilerOptions ropts;
  ropts.scope = scope_predicate();
  Reconciler reader(network_, ropts);
  ReconcileStats snap;
  std::map<SwitchId, TableImage> repair;
  for (const SwitchId sw : options_.readback_verify) {
    const auto want = want_images.find(sw);
    if (want == want_images.end()) continue;  // transaction didn't touch it
    auto actual = reader.read_table(sw, snap);
    if (!actual.has_value()) {
      report_.unreconciled.insert(sw);
      report_.committed = false;
      continue;
    }
    std::size_t mismatches = 0;
    for (const auto& [key, rule] : want->second) {
      const auto hit = actual->find(key);
      if (hit == actual->end() || !(hit->second == rule)) ++mismatches;
    }
    for (const auto& [key, rule] : *actual) {
      if (options_.scope_to_footprint && !in_scope(sw, rule)) continue;
      if (want->second.count(key) == 0) ++mismatches;
    }
    if (mismatches > 0) {
      report_.readback_mismatches[sw] = mismatches;
      repair[sw] = want->second;
      log::warn("transaction " + std::to_string(txn_id_) + ": switch " +
                std::to_string(sw) + " diverged from " +
                (forward ? "post" : "pre") + " image (" +
                std::to_string(mismatches) +
                " rule(s)) despite acknowledging every request");
    }
  }
  report_.readback_requests += snap.readback_requests;
  report_.readback_lost += snap.readback_lost;

  if (!repair.empty()) {
    // The switch lied (e.g. silent install drops): converge it to the post
    // image with the same attribution/order machinery a crash would use.
    report_.reconciled = true;
    Reconciler::Author author = [this, forward](SwitchId sw,
                                                const RuleImage& rule) {
      return author_of(sw, rule, forward);
    };
    Reconciler::MustPrecede precede = [this, forward](std::size_t a,
                                                      std::size_t b) {
      return forward ? reaches(a, b) : reaches(b, a);
    };
    ReconcilerOptions fix = ropts;
    fix.max_rounds = options_.max_reconcile_rounds;
    fix.exec = options_.exec;
    Reconciler reconciler(network_, fix);
    const ReconcileStats stats = reconciler.run(repair, author, precede);
    report_.reconcile_rounds += stats.rounds;
    report_.repairs_issued += stats.repairs_issued;
    report_.stale_rules_removed += stats.stale_rules_removed;
    report_.readback_requests += stats.readback_requests;
    report_.readback_lost += stats.readback_lost;
    for (const SwitchId sw : stats.unreconciled) report_.unreconciled.insert(sw);
    report_.committed = report_.unreconciled.empty() && stats.converged;
  }

  if (auto* t = network_.telemetry()) {
    std::size_t total = 0;
    for (const auto& [sw, n] : report_.readback_mismatches) total += n;
    t->trace.span("txn", "readback_verify",
                  telemetry::TraceCollector::kControllerLane, phase_begin,
                  network_.now(),
                  {telemetry::arg("txn", std::uint64_t{txn_id_}),
                   telemetry::arg("switches",
                                  std::uint64_t{options_.readback_verify.size()}),
                   telemetry::arg("mismatches", std::uint64_t{total})});
    t->metrics.counter("txn.readback_verified_commits").inc();
    t->metrics.counter("txn.readback_verify_mismatches").inc(total);
  }
}

void UpdateTransaction::reconcile() {
  const SimTime phase_begin = network_.now();
  report_.reconciled = true;
  const bool forward = options_.policy == RecoveryPolicy::kRollForward;
  report_.rolled_back = !forward;
  const auto& desired = forward ? journal_.post : pre_;

  Reconciler::Author author = [this, forward](SwitchId sw,
                                              const RuleImage& rule) {
    return author_of(sw, rule, forward);
  };
  Reconciler::MustPrecede precede = [this, forward](std::size_t a,
                                                    std::size_t b) {
    // Roll-forward re-installs in dependency order; rollback unwinds in
    // reverse.
    return forward ? reaches(a, b) : reaches(b, a);
  };

  ReconcilerOptions ropts;
  ropts.max_rounds = options_.max_reconcile_rounds;
  ropts.exec = options_.exec;
  ropts.scope = scope_predicate();
  Reconciler reconciler(network_, ropts);
  const ReconcileStats stats = reconciler.run(desired, author, precede);

  report_.reconcile_rounds = stats.rounds;
  report_.repairs_issued = stats.repairs_issued;
  report_.stale_rules_removed = stats.stale_rules_removed;
  report_.readback_requests += stats.readback_requests;
  report_.readback_lost += stats.readback_lost;
  report_.unreconciled = stats.unreconciled;
  report_.committed = stats.converged;

  if (auto* t = network_.telemetry()) {
    t->trace.span("txn", "reconcile",
                  telemetry::TraceCollector::kControllerLane, phase_begin,
                  network_.now(),
                  {telemetry::arg("txn", std::uint64_t{txn_id_}),
                   telemetry::arg("rounds", std::uint64_t{stats.rounds}),
                   telemetry::arg("repairs", std::uint64_t{stats.repairs_issued}),
                   telemetry::arg("converged", stats.converged)});
    t->metrics.counter("txn.reconciliations").inc();
    t->metrics.counter("txn.repairs_issued").inc(stats.repairs_issued);
    t->metrics.counter("txn.stale_rules_removed")
        .inc(stats.stale_rules_removed);
    t->metrics.counter("txn.readback_requests").inc(stats.readback_requests);
    t->metrics.counter("txn.readback_lost").inc(stats.readback_lost);
  }
}

const VerifierReport& UpdateTransaction::verify(
    const std::vector<FlowCheck>& flows) {
  const SimTime phase_begin = network_.now();
  ConsistencyVerifier verifier(network_);
  report_.verify = verifier.verify(flows);
  if (auto* t = network_.telemetry()) {
    t->trace.span("txn", "verify",
                  telemetry::TraceCollector::kControllerLane, phase_begin,
                  network_.now(),
                  {telemetry::arg("txn", std::uint64_t{txn_id_}),
                   telemetry::arg("flows", std::uint64_t{flows.size()}),
                   telemetry::arg("violations",
                                  std::uint64_t{report_.verify.violations.size()})});
    t->metrics.counter("txn.verified_flows").inc(flows.size());
    t->metrics.counter("txn.verify_violations")
        .inc(report_.verify.violations.size());
  }
  return report_.verify;
}

std::optional<std::size_t> UpdateTransaction::author_of(SwitchId sw,
                                                        const RuleImage& rule,
                                                        bool forward) const {
  // Rules carrying this transaction's cookie map straight to their node.
  if (txn_of_cookie(rule.cookie) == txn_key()) {
    const auto id =
        static_cast<std::size_t>(static_cast<std::uint32_t>(rule.cookie));
    if (id < dag_.size()) return id;
  }
  const auto& attribution = forward ? journal_.writers : journal_.touched;
  const auto per_switch = attribution.find(sw);
  if (per_switch != attribution.end()) {
    const auto hit = per_switch->second.find(RuleKey(rule.match, rule.priority));
    if (hit != per_switch->second.end()) return hit->second;
  }
  return std::nullopt;
}

bool UpdateTransaction::reaches(std::size_t a, std::size_t b) {
  if (a == b) return false;
  if (reach_.empty()) {
    const std::size_t n = dag_.size();
    const std::size_t words = (n + 63) / 64;
    reach_.assign(n, std::vector<std::uint64_t>(words, 0));
    // Deepest-first: every successor's row is final before it is merged.
    const auto level = dag_.levels();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return level[x] > level[y];
                     });
    for (const std::size_t u : order) {
      for (const std::size_t v : dag_.successors(u)) {
        reach_[u][v / 64] |= std::uint64_t{1} << (v % 64);
        for (std::size_t w = 0; w < words; ++w) reach_[u][w] |= reach_[v][w];
      }
    }
  }
  return ((reach_[a][b / 64] >> (b % 64)) & 1) != 0;
}

bool UpdateTransaction::in_scope(SwitchId sw, const RuleImage& rule) const {
  if (txn_of_cookie(rule.cookie) == txn_key()) return true;
  const auto it = footprint_.find(sw);
  if (it == footprint_.end()) return false;
  for (const of::Match& mine : it->second) {
    if (mine.overlaps(rule.match)) return true;
  }
  return false;
}

std::function<bool(SwitchId, const RuleImage&)>
UpdateTransaction::scope_predicate() const {
  if (!options_.scope_to_footprint) return {};
  return [this](SwitchId sw, const RuleImage& rule) {
    return in_scope(sw, rule);
  };
}

}  // namespace tango::sched
