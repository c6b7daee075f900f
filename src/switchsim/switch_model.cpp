#include "switchsim/switch_model.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "openflow/epoch.h"

namespace tango::switchsim {

std::string to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kOvsMicroflow: return "ovs-microflow";
    case Architecture::kFifoTwoLevel: return "fifo-two-level";
    case Architecture::kTcamOnly: return "tcam-only";
    case Architecture::kPolicyCache: return "policy-cache";
  }
  return "?";
}

namespace {

/// True when `level`, once a resident entry shaped like `leaving` is gone,
/// has the slots an entry shaped like `arriving` needs. In an adaptive
/// level an L2+L3 entry takes 2 slots, which a 1-slot victim alone does not
/// free; in single- and double-wide levels every resident entry frees
/// enough for any shape the mode holds.
bool room_after_swap(const tables::Tcam& level, const of::Match& leaving,
                     const of::Match& arriving) {
  const auto need = level.slots_for(arriving);
  return need.has_value() &&
         level.slots_used() - level.slots_for(leaving).value_or(0) + *need <=
             level.slots_total();
}

}  // namespace

SimulatedSwitch::SimulatedSwitch(SwitchId id, SwitchProfile profile,
                                 std::uint64_t seed)
    : id_(id),
      profile_(std::move(profile)),
      latency_(profile_.costs, profile_.paths, seed),
      software_(0),
      microflow_(profile_.microflow_capacity) {
  for (const auto& cfg : profile_.cache_levels) levels_.emplace_back(cfg);
  if (profile_.arch == Architecture::kPolicyCache) {
    // Levels keep a lazy eviction heap synced to the profile's policy so
    // victim queries are O(log n). profile_ never moves (switches live
    // behind unique_ptr / on the stack), so the pointer stays valid.
    for (auto& level : levels_) level.set_eviction_policy(&profile_.policy);
  }
  assert(profile_.paths.level_delay.size() >=
         levels_.size() + (profile_.software_backing ||
                                   profile_.arch == Architecture::kOvsMicroflow
                               ? 1
                               : 0));
  if (profile_.install_default_route) install_default_route();
}

void SimulatedSwitch::install_default_route() {
  tables::FlowEntry def;
  def.id = next_flow_id_++;
  def.match = of::Match::any();
  def.priority = 0;
  def.actions = of::output_to(of::kPortController);
  if (!levels_.empty()) {
    levels_[0].insert(std::move(def));
  } else {
    software_.insert(std::move(def));
  }
}

void SimulatedSwitch::reset() {
  for (auto& level : levels_) level.clear();
  software_.clear();
  microflow_.clear();
  lookup_count_ = 0;
  matched_count_ = 0;
  latency_.reset_batch_state();
  if (profile_.install_default_route) install_default_route();
  // A previously fenced switch loses its epoch memory with its tables: it
  // must refuse every fenced flow_mod (stale pre-reboot frames included)
  // until the acting primary re-claims it. Never-fenced switches keep the
  // legacy behaviour — reboot changes nothing for them.
  if (controller_epoch_ != 0) {
    controller_epoch_ = 0;
    epoch_synced_ = false;
  }
}

SimulatedSwitch::EpochClaim SimulatedSwitch::claim_epoch(std::uint32_t epoch) {
  if (epoch != 0 && epoch >= controller_epoch_) {
    controller_epoch_ = epoch;
    epoch_synced_ = true;
    return {true, controller_epoch_};
  }
  return {false, controller_epoch_};
}

FlowModOutcome SimulatedSwitch::reject(const std::string& reason,
                                       of::FlowModFailedCode code) {
  FlowModOutcome out;
  out.accepted = false;
  out.processing_time =
      latency_.flow_mod_cost(OpKind::kAdd, 0, /*same_priority=*/false,
                             /*software=*/false);
  of::ErrorMsg err;
  err.type = of::ErrorType::kFlowModFailed;
  err.code = static_cast<std::uint16_t>(code);
  err.data.assign(reason.begin(), reason.end());
  out.error = std::move(err);
  return out;
}

FlowModOutcome SimulatedSwitch::apply_flow_mod(const of::FlowMod& fm, SimTime now) {
  last_now_ = now;
  sweep_timeouts(now);
  // Epoch fence: fenced flow_mods (cookie top byte != 0) are checked
  // against the highest epoch that has claimed this switch. Newer epochs
  // are adopted on first contact; stale epochs and post-reboot frames
  // (before a re-claim) are refused with EPERM. Unfenced flow_mods — all
  // pre-HA traffic, probe rules, reconciler deletes — skip the fence.
  if (const std::uint32_t fence = of::epoch_of_cookie(fm.cookie); fence != 0) {
    if (!epoch_synced_) {
      ++stale_epoch_rejections_;
      return reject("fenced flow_mod before post-reboot epoch re-sync",
                    of::FlowModFailedCode::kEperm);
    }
    if (fence < controller_epoch_) {
      ++stale_epoch_rejections_;
      return reject("stale controller epoch", of::FlowModFailedCode::kEperm);
    }
    if (fence > controller_epoch_) controller_epoch_ = fence;
    // Tripwire for the chaos "no stale mutation applied" oracle: reaching
    // the mutation dispatch with a stale fence means the guard regressed.
    if (fence < controller_epoch_ || !epoch_synced_) ++stale_epoch_applied_;
  }
  switch (fm.command) {
    case of::FlowModCommand::kAdd: {
      tables::FlowEntry entry;
      entry.id = next_flow_id_++;
      entry.match = fm.match;
      entry.priority = fm.priority;
      entry.cookie = fm.cookie;
      entry.actions = fm.actions;
      entry.idle_timeout = fm.idle_timeout;
      entry.hard_timeout = fm.hard_timeout;
      entry.send_flow_removed = (fm.flags & 1) != 0;
      entry.attrs.insert_time = now;
      entry.attrs.last_use_time = now;
      return do_add(std::move(entry), now);
    }
    case of::FlowModCommand::kModify:
      return do_modify(fm, now, /*strict=*/false);
    case of::FlowModCommand::kModifyStrict:
      return do_modify(fm, now, /*strict=*/true);
    case of::FlowModCommand::kDelete:
      return do_delete(fm, now, /*strict=*/false);
    case of::FlowModCommand::kDeleteStrict:
      return do_delete(fm, now, /*strict=*/true);
  }
  return reject("bad command", of::FlowModFailedCode::kBadCommand);
}

tables::FlowEntry* SimulatedSwitch::find_strict_anywhere(
    const of::Match& match, std::uint16_t priority, std::size_t* level_out) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (auto* e = levels_[i].find_strict(match, priority)) {
      if (level_out != nullptr) *level_out = i;
      return e;
    }
  }
  if (auto* e = software_.find_strict(match, priority)) {
    if (level_out != nullptr) *level_out = levels_.size();
    return e;
  }
  return nullptr;
}

FlowModOutcome SimulatedSwitch::do_add(tables::FlowEntry entry, SimTime now) {
  (void)now;
  if (profile_.max_total_rules != 0 && total_rules() >= profile_.max_total_rules) {
    return reject("switch rule limit", of::FlowModFailedCode::kAllTablesFull);
  }

  if (mis_ != nullptr) {
    if (mis_->silent_drop_budget > 0) {
      // The lie: acknowledge success, charge the usual time, install nothing.
      --mis_->silent_drop_budget;
      ++mis_->stats.silent_drops;
      FlowModOutcome out;
      out.processing_time = latency_.flow_mod_cost(
          OpKind::kAdd, 0, /*same_priority=*/false, /*software=*/false);
      return out;
    }
    if (mis_->inversion_budget > 0) {
      --mis_->inversion_budget;
      ++mis_->stats.priority_inversions;
      entry.priority = entry.priority >= 0x200
                           ? static_cast<std::uint16_t>(entry.priority - 0x200)
                           : static_cast<std::uint16_t>(entry.priority + 0x200);
    }
  }

  // OpenFlow 1.0: an ADD with an identical match+priority replaces the
  // existing entry in place (counters reset) — no physical movement.
  std::size_t existing_level = 0;
  if (auto* existing = find_strict_anywhere(entry.match, entry.priority,
                                            &existing_level)) {
    const FlowId id = existing->id;
    entry.id = id;
    // replace() keeps position/shift state and re-ranks the entry in the
    // level's eviction heap (the counters just reset).
    if (existing_level < levels_.size()) {
      levels_[existing_level].replace(id, std::move(entry));
    } else {
      software_.replace(id, std::move(entry));
    }
    microflow_.invalidate_rule(id);
    FlowModOutcome out;
    out.processing_time = latency_.flow_mod_cost(
        OpKind::kAdd, 0, /*same_priority=*/true,
        /*software=*/existing_level >= levels_.size());
    return out;
  }

  FlowModOutcome out;
  std::size_t shifts = 0;
  bool landed_software = false;
  bool same_priority = false;

  switch (profile_.arch) {
    case Architecture::kOvsMicroflow: {
      software_.insert(std::move(entry));
      landed_software = true;
      break;
    }
    case Architecture::kTcamOnly: {
      auto& tcam = levels_[0];
      same_priority = !tcam.entries().empty() &&
                      tcam.entries().back().priority == entry.priority;
      auto res = tcam.insert(std::move(entry));
      if (!res.accepted) {
        return reject(res.reject_reason, of::FlowModFailedCode::kAllTablesFull);
      }
      shifts = res.shifts;
      break;
    }
    case Architecture::kFifoTwoLevel: {
      auto& tcam = levels_[0];
      if (tcam.can_fit(entry.match)) {
        same_priority = !tcam.entries().empty() &&
                        tcam.entries().back().priority == entry.priority;
        auto res = tcam.insert(std::move(entry));
        assert(res.accepted);
        shifts = res.shifts;
      } else {
        software_.insert(std::move(entry));
        landed_software = true;
      }
      break;
    }
    case Architecture::kPolicyCache: {
      if (!cascade_insert(std::move(entry), &shifts, &landed_software)) {
        return reject("all tables full", of::FlowModFailedCode::kAllTablesFull);
      }
      break;
    }
  }

  out.shifts = shifts;
  out.processing_time =
      latency_.flow_mod_cost(OpKind::kAdd, shifts, same_priority, landed_software);
  return out;
}

bool SimulatedSwitch::cascade_insert(tables::FlowEntry entry, std::size_t* shifts,
                                     bool* landed_software) {
  if (!profile_.software_backing) {
    // Without a backing store an eviction would silently drop an installed
    // rule (an OpenFlow semantics violation), so a full cache rejects.
    for (auto& level : levels_) {
      if (level.can_fit(entry.match)) {
        auto res = level.insert(std::move(entry));
        assert(res.accepted);
        *shifts += res.shifts;
        return true;
      }
    }
    return false;
  }
  tables::FlowEntry pending = std::move(entry);
  for (auto& level : levels_) {
    // A level whose mode cannot hold this shape is skipped: evicting its
    // victim would leave the newcomer nowhere to go.
    if (!level.slots_for(pending.match)) continue;
    if (level.can_fit(pending.match)) {
      auto res = level.insert(std::move(pending));
      assert(res.accepted);
      *shifts += res.shifts;
      return true;
    }
    // Level is full: the policy decides whether the newcomer displaces the
    // level's lowest-ordered entry (which then cascades down) or sinks. It
    // also sinks when the victim's slots would not make room for it.
    const auto victim_id = level.victim_id();
    if (!victim_id) {
      continue;  // level is empty but too small for this entry
    }
    const tables::FlowEntry& victim_ref = *level.find_by_id(*victim_id);
    if (profile_.policy.prefers(pending, victim_ref) &&
        room_after_swap(level, victim_ref.match, pending.match)) {
      auto victim = level.take(*victim_id, shifts);
      assert(victim.has_value());
      auto res = level.insert(std::move(pending));
      assert(res.accepted);
      *shifts += res.shifts;
      pending = std::move(*victim);
    }
  }
  if (profile_.software_backing) {
    software_.insert(std::move(pending));
    *landed_software = true;
    return true;
  }
  return false;
}

FlowModOutcome SimulatedSwitch::do_modify(const of::FlowMod& fm, SimTime now,
                                          bool strict) {
  std::size_t updated = 0;
  auto touch = [&](tables::FlowEntry& e) {
    e.actions = fm.actions;
    e.cookie = fm.cookie;
    microflow_.invalidate_rule(e.id);
    ++updated;
  };

  if (strict) {
    if (auto* e = find_strict_anywhere(fm.match, fm.priority, nullptr)) touch(*e);
  } else {
    for (auto& level : levels_) level.for_each_matching(fm.match, touch);
    software_.for_each_matching(fm.match, touch);
  }

  if (updated == 0) {
    // Per OpenFlow 1.0, MODIFY with no matching entry behaves like ADD.
    tables::FlowEntry entry;
    entry.id = next_flow_id_++;
    entry.match = fm.match;
    entry.priority = fm.priority;
    entry.cookie = fm.cookie;
    entry.actions = fm.actions;
    entry.attrs.insert_time = now;
    entry.attrs.last_use_time = now;
    return do_add(std::move(entry), now);
  }

  FlowModOutcome out;
  out.processing_time = latency_.flow_mod_cost(OpKind::kMod, 0, false, false);
  return out;
}

FlowModOutcome SimulatedSwitch::do_delete(const of::FlowMod& fm, SimTime now,
                                          bool strict) {
  (void)now;
  std::size_t shifts = 0;
  std::vector<tables::FlowEntry> removed;

  if (strict) {
    std::size_t level = 0;
    if (auto* e = find_strict_anywhere(fm.match, fm.priority, &level)) {
      const FlowId id = e->id;
      if (level < levels_.size()) {
        auto taken = levels_[level].take(id, &shifts);
        if (taken) removed.push_back(std::move(*taken));
      } else if (auto taken = software_.erase(id)) {
        removed.push_back(std::move(*taken));
      }
    }
  } else {
    for (auto& level : levels_) {
      std::size_t level_shifts = 0;
      auto taken = level.erase_matching(fm.match, &level_shifts);
      shifts += level_shifts;
      for (auto& e : taken) removed.push_back(std::move(e));
    }
    auto taken = software_.erase_matching(fm.match);
    for (auto& e : taken) removed.push_back(std::move(e));
  }

  for (const auto& e : removed) microflow_.invalidate_rule(e.id);
  rebalance();

  FlowModOutcome out;
  out.shifts = shifts;
  out.processing_time = latency_.flow_mod_cost(OpKind::kDel, shifts, false, false);
  return out;
}

void SimulatedSwitch::rebalance() {
  if (profile_.arch == Architecture::kFifoTwoLevel) {
    // Oldest software entry is promoted whenever the TCAM has room (§3).
    auto& tcam = levels_[0];
    while (software_.size() > 0) {
      // Peek the oldest; stop if it cannot fit.
      auto oldest = software_.pop_oldest();
      if (!oldest) break;
      if (!tcam.can_fit(oldest->match)) {
        software_.insert(std::move(*oldest));  // put it back
        break;
      }
      tcam.insert(std::move(*oldest));
    }
    return;
  }
  if (profile_.arch != Architecture::kPolicyCache) return;

  // Pull the policy-best entries upward into freed slots, deepest first.
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    auto& upper = levels_[i];
    auto candidates = [&]() -> std::vector<const tables::FlowEntry*> {
      if (i + 1 < levels_.size()) return level_entries(i + 1);
      std::vector<const tables::FlowEntry*> out;
      out.reserve(software_.entries().size());
      for (const auto& e : software_.entries()) out.push_back(&e);
      return out;
    };
    for (auto pool = candidates(); !pool.empty(); pool = candidates()) {
      // Best = the entry the policy would evict last.
      const tables::FlowEntry* best = pool[0];
      for (const auto* e : pool) {
        if (profile_.policy.prefers(*e, *best)) best = e;
      }
      if (!upper.can_fit(best->match)) break;
      std::optional<tables::FlowEntry> moved;
      if (i + 1 < levels_.size()) {
        moved = levels_[i + 1].take(best->id);
      } else {
        moved = software_.erase(best->id);
      }
      if (!moved) break;
      upper.insert(std::move(*moved));
    }
  }
}

void SimulatedSwitch::set_misbehavior(MisbehaviorProfile profile) {
  MisbehaviorStats kept{};
  if (mis_ != nullptr) kept = mis_->stats;
  mis_ = std::make_unique<Misbehavior>();
  mis_->stats = kept;
  mis_->events = std::move(profile.events);
  std::stable_sort(mis_->events.begin(), mis_->events.end(),
                   [](const MisbehaviorEvent& a, const MisbehaviorEvent& b) {
                     return a.at < b.at;
                   });
}

void SimulatedSwitch::clear_misbehavior() {
  if (mis_ == nullptr) return;
  mis_->events.clear();
  mis_->next_event = 0;
  mis_->silent_drop_budget = 0;
  mis_->inversion_budget = 0;
  mis_->stale_budget = 0;
  mis_->stale_snapshot = {};
}

const MisbehaviorStats& SimulatedSwitch::misbehavior_stats() const {
  static const MisbehaviorStats kEmpty{};
  return mis_ != nullptr ? mis_->stats : kEmpty;
}

std::size_t SimulatedSwitch::shrink_level(std::size_t level,
                                          std::size_t new_capacity_slots) {
  if (level >= levels_.size()) return 0;
  auto& tcam = levels_[level];
  std::size_t displaced = 0;
  while (tcam.slots_used() > new_capacity_slots && tcam.size() > 0) {
    // Evict from the highest physical position (the back of the array),
    // matching how a truncated TCAM loses its tail.
    const FlowId id = tcam.entries().back().id;
    auto taken = tcam.take(id);
    if (!taken) break;
    microflow_.invalidate_rule(id);
    if (profile_.software_backing) software_.insert(std::move(*taken));
    ++displaced;
  }
  tcam.set_capacity_slots(new_capacity_slots);
  if (level < profile_.cache_levels.size()) {
    profile_.cache_levels[level].capacity_slots = new_capacity_slots;
  }
  return displaced;
}

void SimulatedSwitch::fabricate_removals(std::size_t count) {
  // Lie about the highest-priority resident rules: claim they timed out
  // while leaving them installed.
  std::vector<const tables::FlowEntry*> pool;
  for (const auto& level : levels_) {
    for (const auto& e : level.entries()) pool.push_back(&e);
  }
  for (const auto& e : software_.entries()) pool.push_back(&e);
  std::sort(pool.begin(), pool.end(),
            [](const tables::FlowEntry* a, const tables::FlowEntry* b) {
              if (a->priority != b->priority) return a->priority > b->priority;
              return a->id < b->id;
            });
  if (pool.size() > count) pool.resize(count);
  for (const auto* e : pool) {
    of::FlowRemoved fr;
    fr.match = e->match;
    fr.cookie = e->cookie;
    fr.priority = e->priority;
    fr.reason = of::FlowRemovedReason::kIdleTimeout;
    const SimDuration age = last_now_ - e->attrs.insert_time;
    fr.duration_sec = static_cast<std::uint32_t>(age.ns() / 1000000000);
    fr.duration_nsec = static_cast<std::uint32_t>(age.ns() % 1000000000);
    fr.idle_timeout = e->idle_timeout;
    fr.packet_count = e->attrs.traffic_count;
    fr.byte_count = e->byte_count;
    pending_removals_.push_back(std::move(fr));
    ++mis_->stats.spurious_removals;
  }
}

void SimulatedSwitch::activate_misbehavior(SimTime now) {
  auto& m = *mis_;
  while (m.next_event < m.events.size() && m.events[m.next_event].at <= now) {
    const MisbehaviorEvent ev = m.events[m.next_event++];
    ++m.stats.events_activated;
    switch (ev.kind) {
      case MisbehaviorKind::kSilentInstallDrop:
        m.silent_drop_budget += ev.count;
        break;
      case MisbehaviorKind::kStaleFlowStats: {
        // Snapshot the honest table with the lie disarmed, then arm it.
        const std::size_t armed = m.stale_budget;
        m.stale_budget = 0;
        m.stale_snapshot = flow_stats(of::Match::any());
        m.stale_budget = armed + ev.count;
        break;
      }
      case MisbehaviorKind::kSpuriousFlowRemoved:
        fabricate_removals(ev.count);
        break;
      case MisbehaviorKind::kPriorityInversion:
        m.inversion_budget += ev.count;
        break;
      case MisbehaviorKind::kLatencyDrift: {
        OpCostModel costs = latency_.costs();
        const double scale = 1.0 + ev.magnitude;
        auto scaled = [scale](SimDuration d) {
          return nanos(static_cast<std::int64_t>(
              static_cast<double>(d.ns()) * scale));
        };
        costs.add_base = scaled(costs.add_base);
        costs.add_same_priority = scaled(costs.add_same_priority);
        costs.add_software = scaled(costs.add_software);
        costs.mod_base = scaled(costs.mod_base);
        costs.del_base = scaled(costs.del_base);
        latency_.set_costs(costs);
        ++m.stats.latency_drifts;
        break;
      }
      case MisbehaviorKind::kCapacityShrink: {
        if (!levels_.empty()) {
          const auto target = static_cast<std::size_t>(
              static_cast<double>(levels_[0].slots_total()) * ev.magnitude);
          m.stats.entries_evicted += shrink_level(0, target);
        }
        ++m.stats.capacity_shrinks;
        break;
      }
    }
  }
}

void SimulatedSwitch::sweep_timeouts(SimTime now) {
  if (mis_ != nullptr) activate_misbehavior(now);
  // One table API for expiry everywhere (this used to be two hand-rolled
  // reverse-erase loops); take_expired() is O(1) when no resident entry
  // carries a timeout, which is the common case on the forwarding path.
  std::vector<tables::FlowEntry> expired;
  for (auto& level : levels_) {
    auto taken = level.take_expired(now);
    std::move(taken.begin(), taken.end(), std::back_inserter(expired));
  }
  {
    auto taken = software_.take_expired(now);
    std::move(taken.begin(), taken.end(), std::back_inserter(expired));
  }
  if (expired.empty()) return;

  for (const auto& e : expired) {
    microflow_.invalidate_rule(e.id);
    if (!e.send_flow_removed) continue;
    of::FlowRemoved fr;
    fr.match = e.match;
    fr.cookie = e.cookie;
    fr.priority = e.priority;
    fr.reason = e.expiry_reason(now);
    const SimDuration age = now - e.attrs.insert_time;
    fr.duration_sec = static_cast<std::uint32_t>(age.ns() / 1000000000);
    fr.duration_nsec = static_cast<std::uint32_t>(age.ns() % 1000000000);
    fr.idle_timeout = e.idle_timeout;
    fr.packet_count = e.attrs.traffic_count;
    fr.byte_count = e.byte_count;
    pending_removals_.push_back(std::move(fr));
  }
  rebalance();
}

std::vector<of::FlowRemoved> SimulatedSwitch::drain_removals() {
  return std::exchange(pending_removals_, {});
}

ForwardOutcome SimulatedSwitch::forward(const of::Packet& pkt, SimTime now) {
  last_now_ = now;
  sweep_timeouts(now);
  ++lookup_count_;
  ForwardOutcome out;

  // Ingress port accounting; downed ports drop on the floor.
  {
    auto& ingress = port(pkt.header.in_port);
    if (!port_forwarding(pkt.header.in_port)) {
      ++ingress.counters.rx_dropped;
      out.kind = ForwardOutcome::Kind::kDropped;
      return out;
    }
    ingress.counters.rx_packets += 1;
    ingress.counters.rx_bytes += pkt.total_len();
  }

  // Egress accounting, applied to every forwarded outcome on return.
  auto account_tx = [&]() {
    if (out.kind != ForwardOutcome::Kind::kForwarded) return;
    auto& egress = port(out.out_port);
    if (!port_forwarding(out.out_port)) {
      ++egress.counters.tx_dropped;
      out.kind = ForwardOutcome::Kind::kDropped;
      return;
    }
    egress.counters.tx_packets += 1;
    egress.counters.tx_bytes += pkt.total_len();
  };

  auto hit_at = [&](tables::FlowEntry& e, std::size_t level) {
    ++matched_count_;
    e.record_hit(now, pkt.total_len());
    // record_hit changes policy attributes, so the level's eviction heap
    // needs a fresh rank record (no-op when no policy is attached).
    if (level < levels_.size()) levels_[level].note_attrs_changed(e.id);
    out.kind = ForwardOutcome::Kind::kForwarded;
    out.level = level;
    out.delay = latency_.path_delay(level);
    out.out_port = of::output_port(e.actions);
    if (out.out_port == of::kPortController) {
      out.kind = ForwardOutcome::Kind::kToController;
      out.delay = latency_.control_delay();
    }
  };

  if (profile_.arch == Architecture::kOvsMicroflow) {
    if (auto hit = microflow_.lookup(pkt.header, now)) {
      ++matched_count_;
      // Attribute the hit to the wildcard rule that spawned the microflow.
      if (auto* e = software_.find_by_id(hit->source_rule)) {
        e->record_hit(now, pkt.total_len());
      }
      out.kind = ForwardOutcome::Kind::kForwarded;
      out.level = 0;
      out.delay = latency_.path_delay(0);
      out.out_port = of::output_port(*hit->actions);
      account_tx();
      return out;
    }
    if (auto* e = software_.lookup(pkt.header)) {
      hit_at(*e, 1);
      if (out.kind == ForwardOutcome::Kind::kForwarded) {
        // Traffic-triggered 1-to-N mapping: cache the exact flow in kernel.
        microflow_.insert(pkt.header, e->id, e->actions, now);
      }
      account_tx();
      return out;
    }
    out.kind = ForwardOutcome::Kind::kToController;
    out.delay = latency_.control_delay();
    return out;
  }

  // The flow-table layers implement ONE logical OpenFlow table: the rule
  // that wins is the highest-priority match across every layer, and the
  // packet is served at the speed of the layer holding it. (A lower layer
  // can hold a higher-priority rule than a TCAM match — e.g. a wildcard
  // default route resident in TCAM must not shadow specific software
  // rules.)
  tables::FlowEntry* best = nullptr;
  std::size_t best_level = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (auto* e = levels_[i].lookup(pkt.header)) {
      if (best == nullptr || e->priority > best->priority) {
        best = e;
        best_level = i;
      }
    }
  }
  if (profile_.software_backing) {
    if (auto* e = software_.lookup(pkt.header)) {
      if (best == nullptr || e->priority > best->priority) {
        best = e;
        best_level = levels_.size();
      }
    }
  }

  if (best == nullptr) {
    out.kind = ForwardOutcome::Kind::kToController;
    out.delay = latency_.control_delay();
    return out;
  }

  hit_at(*best, best_level);

  if (profile_.arch == Architecture::kPolicyCache && best_level > 0 &&
      out.kind == ForwardOutcome::Kind::kForwarded &&
      levels_[best_level - 1].slots_for(best->match)) {
    // Hit below the top: the (now-updated) entry may outrank the level
    // above's victim; if so they swap residences, provided each fits where
    // the other was. A level whose mode cannot hold the entry's shape never
    // takes it.
    const FlowId id = best->id;
    const std::size_t above = best_level - 1;
    auto take_hit = [&]() -> std::optional<tables::FlowEntry> {
      if (best_level < levels_.size()) return levels_[best_level].take(id);
      return software_.erase(id);
    };
    auto put_back_down = [&](tables::FlowEntry entry) {
      if (best_level < levels_.size()) {
        levels_[best_level].insert(std::move(entry));
      } else {
        software_.insert(std::move(entry));
      }
    };
    if (levels_[above].can_fit(best->match)) {
      auto moved = take_hit();
      levels_[above].insert(std::move(*moved));
    } else if (const auto vid = levels_[above].victim_id()) {
      const tables::FlowEntry& victim_ref = *levels_[above].find_by_id(*vid);
      const bool fits_below =
          best_level == levels_.size() ||
          room_after_swap(levels_[best_level], best->match, victim_ref.match);
      if (profile_.policy.prefers(*best, victim_ref) && fits_below &&
          room_after_swap(levels_[above], victim_ref.match, best->match)) {
        auto victim = levels_[above].take(*vid);
        auto moved = take_hit();
        levels_[above].insert(std::move(*moved));
        put_back_down(std::move(*victim));
      }
    }
  }
  account_tx();
  return out;
}

of::FeaturesReply SimulatedSwitch::features() const {
  of::FeaturesReply reply;
  reply.datapath_id = id_;
  reply.n_buffers = 256;
  reply.n_tables = static_cast<std::uint8_t>(
      levels_.size() + (profile_.software_backing ||
                                profile_.arch == Architecture::kOvsMicroflow
                            ? 1
                            : 0));
  reply.capabilities = 0x1;  // FLOW_STATS
  reply.actions = 0xfff;
  for (std::size_t p = 1; p <= profile_.n_ports; ++p) {
    of::PhyPort port;
    port.port_no = static_cast<std::uint16_t>(p);
    port.hw_addr = {0x02, 0x00, 0x00, 0x00,
                    static_cast<std::uint8_t>(id_ & 0xff),
                    static_cast<std::uint8_t>(p)};
    port.name = "port" + std::to_string(p);
    reply.ports.push_back(std::move(port));
  }
  return reply;
}

of::TableStatsReply SimulatedSwitch::table_stats() const {
  of::TableStatsReply reply;
  std::uint8_t table_id = 0;
  for (const auto& level : levels_) {
    of::TableStatsEntry e;
    e.table_id = table_id++;
    e.name = "hw" + std::to_string(e.table_id);
    e.wildcards = of::kWildcardAll;
    // NOTE: deliberately approximate, per the paper's observation that
    // feature reports are unreliable — the real capacity depends on entry
    // shapes. We report raw slots.
    e.max_entries = static_cast<std::uint32_t>(level.slots_total());
    e.active_count = static_cast<std::uint32_t>(level.size());
    e.lookup_count = lookup_count_;
    e.matched_count = matched_count_;
    reply.entries.push_back(std::move(e));
  }
  if (profile_.software_backing || profile_.arch == Architecture::kOvsMicroflow) {
    of::TableStatsEntry e;
    e.table_id = table_id++;
    e.name = "software";
    e.wildcards = of::kWildcardAll;
    e.max_entries = 1u << 20;
    e.active_count = static_cast<std::uint32_t>(software_.size());
    e.lookup_count = lookup_count_;
    e.matched_count = matched_count_;
    reply.entries.push_back(std::move(e));
  }
  return reply;
}

of::FlowStatsReply SimulatedSwitch::flow_stats(const of::Match& filter) const {
  if (mis_ != nullptr && mis_->stale_budget > 0) {
    // Serve the filter over the activation-time snapshot instead of the
    // live table (the budget makes the lie bounded, so repair loops that
    // outlast it still converge).
    --mis_->stale_budget;
    ++mis_->stats.stale_stats_replies;
    of::FlowStatsReply stale;
    for (const auto& e : mis_->stale_snapshot.entries) {
      if (filter.subsumes(e.match)) stale.entries.push_back(e);
    }
    return stale;
  }
  of::FlowStatsReply reply;
  auto add_entry = [&](const tables::FlowEntry& e, std::uint8_t table_id) {
    if (!filter.subsumes(e.match)) return;
    of::FlowStatsEntry s;
    s.table_id = table_id;
    s.match = e.match;
    const SimDuration age = last_now_ - e.attrs.insert_time;
    s.duration_sec = static_cast<std::uint32_t>(age.ns() / 1000000000);
    s.duration_nsec = static_cast<std::uint32_t>(age.ns() % 1000000000);
    s.priority = e.priority;
    s.idle_timeout = e.idle_timeout;
    s.hard_timeout = e.hard_timeout;
    s.cookie = e.cookie;
    s.packet_count = e.attrs.traffic_count;
    s.byte_count = e.byte_count;
    s.actions = e.actions;
    reply.entries.push_back(std::move(s));
  };
  std::uint8_t table_id = 0;
  for (const auto& level : levels_) {
    for (const auto& e : level.entries()) add_entry(e, table_id);
    ++table_id;
  }
  for (const auto& e : software_.entries()) add_entry(e, table_id);
  return reply;
}

of::AggregateStatsReply SimulatedSwitch::aggregate_stats(
    const of::Match& filter) const {
  of::AggregateStatsReply reply;
  const auto stats = flow_stats(filter);
  for (const auto& e : stats.entries) {
    reply.packet_count += e.packet_count;
    reply.byte_count += e.byte_count;
    ++reply.flow_count;
  }
  return reply;
}

of::DescStatsReply SimulatedSwitch::description() const {
  of::DescStatsReply reply;
  reply.mfr_desc = profile_.vendor;
  reply.hw_desc = profile_.name;
  reply.sw_desc = "tango-switchsim " + to_string(profile_.arch);
  reply.serial_num = "sim-" + std::to_string(id_);
  reply.dp_desc = profile_.name + " (datapath " + std::to_string(id_) + ")";
  return reply;
}

SimulatedSwitch::PortState& SimulatedSwitch::port(std::uint16_t port_no) {
  auto [it, inserted] = ports_.try_emplace(port_no);
  if (inserted) it->second.counters.port_no = port_no;
  return it->second;
}

of::PhyPort SimulatedSwitch::phy_port(std::uint16_t port_no) const {
  of::PhyPort p;
  p.port_no = port_no;
  p.hw_addr = {0x02, 0x00, 0x00, 0x00, static_cast<std::uint8_t>(id_ & 0xff),
               static_cast<std::uint8_t>(port_no)};
  p.name = "port" + std::to_string(port_no);
  const auto it = ports_.find(port_no);
  if (it != ports_.end()) {
    p.config = it->second.config;
    p.state = it->second.state;
  }
  return p;
}

of::PortStatsReply SimulatedSwitch::port_stats(std::uint16_t port_no) const {
  of::PortStatsReply reply;
  if (port_no != of::kPortNone) {
    const auto it = ports_.find(port_no);
    of::PortStatsEntry e;
    e.port_no = port_no;
    if (it != ports_.end()) e = it->second.counters;
    reply.entries.push_back(e);
    return reply;
  }
  for (std::uint16_t p = 1; p <= profile_.n_ports; ++p) {
    const auto it = ports_.find(p);
    of::PortStatsEntry e;
    e.port_no = p;
    if (it != ports_.end()) e = it->second.counters;
    reply.entries.push_back(e);
  }
  return reply;
}

of::GetConfigReply SimulatedSwitch::config() const {
  of::GetConfigReply reply;
  reply.flags = config_flags_;
  reply.miss_send_len = miss_send_len_;
  return reply;
}

void SimulatedSwitch::set_config(const of::SetConfig& cfg) {
  config_flags_ = cfg.flags;
  miss_send_len_ = cfg.miss_send_len;
}

void SimulatedSwitch::apply_port_mod(const of::PortMod& pm) {
  auto& state = port(pm.port_no);
  state.config = (state.config & ~pm.mask) | (pm.config & pm.mask);
  of::PortStatus status;
  status.reason = of::PortReason::kModify;
  status.port = phy_port(pm.port_no);
  pending_port_status_.push_back(std::move(status));
}

void SimulatedSwitch::set_port_link(std::uint16_t port_no, bool up) {
  auto& state = port(port_no);
  const std::uint32_t before = state.state;
  if (up) {
    state.state &= ~of::kPortStateLinkDown;
  } else {
    state.state |= of::kPortStateLinkDown;
  }
  if (state.state == before) return;  // no transition: no notification
  of::PortStatus status;
  status.reason = of::PortReason::kModify;
  status.port = phy_port(port_no);
  pending_port_status_.push_back(std::move(status));
}

bool SimulatedSwitch::port_forwarding(std::uint16_t port_no) const {
  const auto it = ports_.find(port_no);
  if (it == ports_.end()) return true;
  return (it->second.state & of::kPortStateLinkDown) == 0 &&
         (it->second.config & of::kPortConfigDown) == 0;
}

std::vector<of::PortStatus> SimulatedSwitch::drain_port_status() {
  return std::exchange(pending_port_status_, {});
}

std::size_t SimulatedSwitch::total_rules() const {
  std::size_t n = software_.size();
  for (const auto& level : levels_) n += level.size();
  return n;
}

std::size_t SimulatedSwitch::level_size(std::size_t level) const {
  if (level < levels_.size()) return levels_[level].size();
  return software_.size();
}

std::vector<const tables::FlowEntry*> SimulatedSwitch::level_entries(
    std::size_t level) const {
  std::vector<const tables::FlowEntry*> out;
  if (level < levels_.size()) {
    out.reserve(levels_[level].size());
    for (const auto& e : levels_[level].entries()) out.push_back(&e);
  } else {
    out.reserve(software_.size());
    for (const auto& e : software_.entries()) out.push_back(&e);
  }
  return out;
}

bool SimulatedSwitch::resident_at_level(const of::Match& match,
                                        std::uint16_t priority,
                                        std::size_t level) const {
  auto entries = level_entries(level);
  for (const auto* e : entries) {
    if (e->priority == priority && e->match == match) return true;
  }
  return false;
}

std::size_t SimulatedSwitch::level_capacity(std::size_t level) const {
  if (level >= levels_.size()) return 0;
  const auto& cfg = levels_[level].config();
  switch (cfg.mode) {
    case tables::TcamMode::kSingleWide:
    case tables::TcamMode::kAdaptive:
      return cfg.capacity_slots;
    case tables::TcamMode::kDoubleWide:
      return cfg.capacity_slots / 2;
  }
  return cfg.capacity_slots;
}

}  // namespace tango::switchsim
