#include "tables/ordered_slots.h"

#include <cassert>
#include <functional>

namespace tango::tables {

std::size_t OrderedSlots::insert(Key key, FlowEntry entry, std::size_t width) {
  Slot s = static_cast<Slot>(cells_.size());
  if (free_.empty()) {
    assert(s != kNoSlot);
    cells_.push_back({std::move(entry), key, width});
  } else {
    s = free_.back();
    free_.pop_back();
    cells_[s] = {std::move(entry), key, width};
  }
  const FlowEntry& e = cells_[s].entry;
  const bool fresh = slot_of_.emplace(e.id, s).second;
  assert(fresh);
  (void)fresh;
  tuple_.insert(e.match, e.id);
  strict_.insert(e.match, e.priority, e.id);
  if (is_timed(e)) ++timed_;
  width_ += width;
  // Appends (every software-table insert, and a TCAM insert at the top
  // priority) skip the search.
  const auto it = keys_.empty() || keys_.back() < key
                      ? keys_.end()
                      : std::lower_bound(keys_.begin(), keys_.end(), key);
  assert(it == keys_.end() || *it != key);
  const auto pos = it - keys_.begin();
  keys_.insert(it, key);
  order_.insert(order_.begin() + pos, s);
  return keys_.size() - 1 - static_cast<std::size_t>(pos);
}

FlowEntry OrderedSlots::release(Slot s) {
  Cell& cell = cells_[s];
  const FlowEntry& e = cell.entry;
  if (is_timed(e)) --timed_;
  tuple_.erase(e.match, e.id);
  strict_.erase(e.match, e.priority, e.id);
  width_ -= cell.width;
  slot_of_.erase(e.id);
  free_.push_back(s);
  return std::move(cell.entry);
}

FlowEntry OrderedSlots::remove_at(std::size_t pos) {
  const Slot s = order_[pos];
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  keys_.erase(keys_.begin() + offset);
  order_.erase(order_.begin() + offset);
  return release(s);
}

std::optional<FlowEntry> OrderedSlots::take(FlowId id, std::size_t* shifts) {
  const Slot s = slot_of(id);
  if (s == kNoSlot) return std::nullopt;
  const std::size_t pos = position(s);
  if (shifts != nullptr) *shifts += size() - pos - 1;
  return remove_at(pos);
}

std::vector<FlowEntry> OrderedSlots::remove_batch(const std::vector<std::size_t>& desc,
                                                  std::size_t* shifts) {
  const std::size_t n = keys_.size();
  if (shifts != nullptr) {
    // Removing position p_j as the j-th one-at-a-time erasure (descending
    // order, j entries already gone) moves (n - j) - p_j - 1 entries.
    *shifts = 0;
    for (std::size_t j = 0; j < desc.size(); ++j) *shifts += n - j - 1 - desc[j];
  }
  std::vector<FlowEntry> removed;
  removed.reserve(desc.size());
  for (const std::size_t p : desc) removed.push_back(release(order_[p]));
  // One-pass compaction over the holes (desc is strictly descending, so its
  // reverse view is ascending).
  std::size_t write = desc.back();
  std::size_t next = desc.size();  // walks desc from the back (ascending)
  std::size_t next_hole = desc[next - 1];
  for (std::size_t read = write; read < n; ++read) {
    if (next > 0 && read == next_hole) {
      --next;
      next_hole = next > 0 ? desc[next - 1] : n;
      continue;
    }
    keys_[write] = keys_[read];
    order_[write] = order_[read];
    ++write;
  }
  keys_.resize(write);
  order_.resize(write);
  return removed;
}

void OrderedSlots::collect_matching(const of::Match& filter) {
  scratch_.clear();
  tuple_.for_each_subsumable(filter, [&](FlowId id) {
    const Slot s = slot_of(id);
    if (filter.subsumes(cells_[s].entry.match)) scratch_.push_back(position(s));
  });
}

std::vector<FlowEntry> OrderedSlots::erase_matching(const of::Match& filter,
                                                    std::size_t* shifts) {
  if (shifts != nullptr) *shifts = 0;
  collect_matching(filter);
  if (scratch_.empty()) return {};
  std::sort(scratch_.begin(), scratch_.end(), std::greater<>());
  return remove_batch(scratch_, shifts);
}

std::vector<FlowEntry> OrderedSlots::take_expired(SimTime now) {
  if (timed_ == 0) return {};
  // Expiry is time-based, not match-based, so collect by scan; the timed_
  // fast path above keeps the common (no timeouts resident) case O(1).
  scratch_.clear();
  for (std::size_t i = size(); i-- > 0;) {
    if (at(i).expired(now)) scratch_.push_back(i);
  }
  if (scratch_.empty()) return {};
  return remove_batch(scratch_, nullptr);
}

FlowEntry* OrderedSlots::find_strict(const of::Match& match, std::uint16_t priority) {
  const auto* ids = strict_.candidates(match, priority);
  if (ids == nullptr) return nullptr;
  // Bucket order is insertion order, and both tables order equal
  // (match, priority) entries by insertion too, so the first verified
  // candidate is the front-to-back scan's first hit.
  for (const FlowId id : *ids) {
    FlowEntry* e = find_by_id(id);
    if (e->priority == priority && e->match == match) return e;
  }
  return nullptr;
}

OrderedSlots::Slot OrderedSlots::replace(FlowId id, FlowEntry entry) {
  const Slot s = slot_of(id);
  if (s == kNoSlot) return kNoSlot;
  FlowEntry& old = cells_[s].entry;
  assert(entry.id == id && entry.match == old.match && entry.priority == old.priority);
  if (is_timed(old)) --timed_;
  if (is_timed(entry)) ++timed_;
  old = std::move(entry);
  return s;
}

void OrderedSlots::clear() {
  cells_.clear();
  free_.clear();
  slot_of_.clear();
  keys_.clear();
  order_.clear();
  tuple_.clear();
  strict_.clear();
  timed_ = 0;
  width_ = 0;
}

}  // namespace tango::tables
