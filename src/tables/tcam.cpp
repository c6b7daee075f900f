#include "tables/tcam.h"

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
  return slots.has_value() && slots_used() + *slots <= config_.capacity_slots;
}

TcamInsertOutcome Tcam::insert(FlowEntry entry) {
  TcamInsertOutcome out;
  const auto slots = slots_for(entry.match);
  if (!slots) {
    out.reject_reason = "entry shape unsupported in " + to_string(config_.mode) + " mode";
    return out;
  }
  if (slots_used() + *slots > config_.capacity_slots) {
    out.reject_reason = "TCAM full";
    return out;
  }
  // Physical order is ascending by priority with equal priorities in
  // insertion order: the new key sorts after every equal-priority entry, so
  // equal-priority appends cost zero shifts.
  assert(next_serial_ < (std::uint64_t{1} << 48));
  const Key key = (static_cast<Key>(entry.priority) << 48) | next_serial_++;
  heap_.push(entry);
  out.shifts = OrderedSlots::insert(key, std::move(entry), *slots);
  heap_.maybe_compact(size(), [this](FlowId id) { return find_by_id(id); });
  out.accepted = true;
  return out;
}

FlowEntry* Tcam::lookup(const of::PacketHeader& pkt) {
  // Physical order is ascending (priority, insertion age), so the top-down
  // first match of a real TCAM is simply the matching entry with the
  // greatest order key.
  return best_match(pkt, [](const FlowEntry&, Key key, const FlowEntry&, Key best_key) {
    return key > best_key;
  });
}

bool Tcam::replace(FlowId id, FlowEntry entry) {
  const Slot s = OrderedSlots::replace(id, std::move(entry));
  if (s == kNoSlot) return false;
  heap_.push(this->entry(s));
  heap_.maybe_compact(size(), [this](FlowId id2) { return find_by_id(id2); });
  return true;
}

void Tcam::set_eviction_policy(const LexCachePolicy* policy) {
  heap_.set_policy(policy);
  if (policy != nullptr) {
    for (const auto& e : entries()) heap_.push(e);
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
    heap_.maybe_compact(size(), [this](FlowId id2) { return find_by_id(id2); });
  }
}

void Tcam::clear() {
  OrderedSlots::clear();
  heap_.clear();
}

}  // namespace tango::tables
