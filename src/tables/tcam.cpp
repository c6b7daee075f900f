#include "tables/tcam.h"

#include <algorithm>
#include <cassert>

namespace tango::tables {

std::string to_string(TcamMode mode) {
  switch (mode) {
    case TcamMode::kSingleWide: return "single-wide";
    case TcamMode::kDoubleWide: return "double-wide";
    case TcamMode::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<std::size_t> Tcam::slots_for(const of::Match& match) const {
  const of::MatchLayer layer = match.layer();
  switch (config_.mode) {
    case TcamMode::kSingleWide:
      if (layer == of::MatchLayer::kL2AndL3) return std::nullopt;
      return 1;
    case TcamMode::kDoubleWide:
      return 2;
    case TcamMode::kAdaptive:
      return layer == of::MatchLayer::kL2AndL3 ? 2 : 1;
  }
  return std::nullopt;
}

bool Tcam::can_fit(const of::Match& match) const {
  const auto slots = slots_for(match);
  return slots.has_value() && slots_used_ + *slots <= config_.capacity_slots;
}

void Tcam::unindex(const FlowEntry& e) {
  slots_used_ -= slots_for(e.match).value_or(0);
  if (is_timed(e)) --timed_;
  tuple_.erase(e.match, e.id);
  strict_.erase(e.match, e.priority, e.id);
}

TcamInsertOutcome Tcam::insert(FlowEntry entry) {
  TcamInsertOutcome out;
  const auto slots = slots_for(entry.match);
  if (!slots) {
    out.reject_reason = "entry shape unsupported in " + to_string(config_.mode) + " mode";
    return out;
  }
  if (slots_used_ + *slots > config_.capacity_slots) {
    out.reject_reason = "TCAM full";
    return out;
  }
  // Physical order is ascending by priority with equal priorities in
  // insertion order: the new key sorts after every equal-priority entry, so
  // equal-priority appends cost zero shifts.
  assert(next_serial_ < (std::uint64_t{1} << 48));
  const OrderedSlots::Key key =
      (static_cast<OrderedSlots::Key>(entry.priority) << 48) | next_serial_++;
  const std::size_t pos = store_.insert(key, std::move(entry));
  out.shifts = store_.size() - 1 - pos;
  const FlowEntry& e = store_.at(pos);
  tuple_.insert(e.match, e.id);
  strict_.insert(e.match, e.priority, e.id);
  if (is_timed(e)) ++timed_;
  heap_.push(e);
  slots_used_ += *slots;
  heap_.maybe_compact(store_.size(),
                      [this](FlowId id) { return find_by_id(id); });
  out.accepted = true;
  return out;
}

TcamEraseOutcome Tcam::erase(FlowId id) {
  TcamEraseOutcome out;
  if (take(id, &out.shifts)) out.removed = 1;
  return out;
}

std::optional<FlowEntry> Tcam::take(FlowId id, std::size_t* shifts) {
  const OrderedSlots::Slot s = store_.slot_of(id);
  if (s == OrderedSlots::kNoSlot) return std::nullopt;
  const std::size_t pos = store_.position(s);
  if (shifts != nullptr) *shifts += store_.size() - pos - 1;
  FlowEntry out = store_.remove_at(pos);
  unindex(out);
  return out;
}

std::vector<FlowEntry> Tcam::remove_batch(const std::vector<std::size_t>& desc,
                                          std::size_t* shifts_out) {
  // Removing position p_j as the j-th one-at-a-time erasure (descending
  // order, j entries already gone) moves (n - j) - p_j - 1 entries.
  const std::size_t n = store_.size();
  std::size_t shifts = 0;
  for (std::size_t j = 0; j < desc.size(); ++j) shifts += n - j - 1 - desc[j];
  auto removed = store_.remove_batch(desc);
  for (const auto& e : removed) unindex(e);
  if (shifts_out != nullptr) *shifts_out = shifts;
  return removed;
}

void Tcam::collect_matching(const of::Match& filter) {
  scratch_.clear();
  tuple_.for_each_subsumable(filter, [&](FlowId id) {
    const OrderedSlots::Slot s = store_.slot_of(id);
    if (filter.subsumes(store_.entry(s).match)) scratch_.push_back(store_.position(s));
  });
}

std::vector<FlowEntry> Tcam::erase_matching(const of::Match& filter,
                                            std::size_t* shifts_out) {
  if (shifts_out != nullptr) *shifts_out = 0;
  collect_matching(filter);
  if (scratch_.empty()) return {};
  std::sort(scratch_.begin(), scratch_.end(), std::greater<>());
  return remove_batch(scratch_, shifts_out);
}

std::vector<FlowEntry> Tcam::take_expired(SimTime now) {
  if (timed_ == 0) return {};
  scratch_.clear();
  for (std::size_t i = store_.size(); i-- > 0;) {
    if (store_.at(i).expired(now)) scratch_.push_back(i);
  }
  if (scratch_.empty()) return {};
  return remove_batch(scratch_, nullptr);
}

FlowEntry* Tcam::lookup(const of::PacketHeader& pkt) {
  // Physical order is ascending (priority, insertion age), so the top-down
  // first match of a real TCAM is simply the matching entry with the
  // greatest order key.
  FlowEntry* best = nullptr;
  OrderedSlots::Key best_key = 0;
  tuple_.for_each_candidate(pkt, [&](FlowId id) {
    const OrderedSlots::Slot s = store_.slot_of(id);
    FlowEntry& e = store_.entry(s);
    if (!e.match.matches(pkt)) return;
    const OrderedSlots::Key key = store_.key(s);
    if (best == nullptr || key > best_key) {
      best = &e;
      best_key = key;
    }
  });
  return best;
}

FlowEntry* Tcam::find_strict(const of::Match& match, std::uint16_t priority) {
  const auto* ids = strict_.candidates(match, priority);
  if (ids == nullptr) return nullptr;
  for (const FlowId id : *ids) {
    FlowEntry* e = store_.find(id);
    if (e->priority == priority && e->match == match) return e;
  }
  return nullptr;
}

const FlowEntry* Tcam::find_by_id(FlowId id) const { return store_.find(id); }

FlowEntry* Tcam::find_by_id(FlowId id) { return store_.find(id); }

bool Tcam::replace(FlowId id, FlowEntry entry) {
  FlowEntry* old = store_.find(id);
  if (old == nullptr) return false;
  assert(entry.id == id && entry.match == old->match &&
         entry.priority == old->priority);
  if (is_timed(*old)) --timed_;
  if (is_timed(entry)) ++timed_;
  *old = std::move(entry);
  heap_.push(*old);
  heap_.maybe_compact(store_.size(),
                      [this](FlowId id2) { return find_by_id(id2); });
  return true;
}

void Tcam::set_eviction_policy(const LexCachePolicy* policy) {
  heap_.set_policy(policy);
  if (policy != nullptr) {
    for (const auto& e : store_.view()) heap_.push(e);
  }
}

std::optional<FlowId> Tcam::victim_id() {
  assert(heap_.policy() != nullptr);
  return heap_.victim([this](FlowId id) { return find_by_id(id); });
}

void Tcam::note_attrs_changed(FlowId id) {
  if (heap_.policy() == nullptr) return;
  // Hits only mutate use time / traffic count; when the policy ranks by
  // neither, the entry's existing records are still fresh and re-pushing
  // would only accumulate duplicates.
  if (!heap_.rank_depends_on_hits()) return;
  if (const auto* e = find_by_id(id)) {
    heap_.push(*e);
    heap_.maybe_compact(store_.size(),
                        [this](FlowId id2) { return find_by_id(id2); });
  }
}

void Tcam::clear() {
  store_.clear();
  slots_used_ = 0;
  timed_ = 0;
  tuple_.clear();
  strict_.clear();
  heap_.clear();
}

}  // namespace tango::tables
