#include "tables/software_table.h"

#include <algorithm>

namespace tango::tables {

// Min-heap order on (insert time, insertion serial): the heap top is the
// oldest entry, ties resolved towards the earlier insertion — which is also
// the earlier table position, matching the original front-to-back scan.
bool SoftwareTable::age_after(const AgeRecord& a, const AgeRecord& b) {
  if (a.insert_ns != b.insert_ns) return a.insert_ns > b.insert_ns;
  return a.seq > b.seq;
}

void SoftwareTable::push_age(const FlowEntry& e, std::uint64_t seq) {
  age_heap_.push_back(AgeRecord{e.attrs.insert_time.ns(), seq, e.id});
  std::push_heap(age_heap_.begin(), age_heap_.end(), age_after);
}

void SoftwareTable::compact_age_heap() {
  if (age_heap_.size() <= 2 * store_.size() + 64) return;
  std::vector<AgeRecord> kept;
  kept.reserve(store_.size());
  for (const auto& r : age_heap_) {
    const FlowEntry* e = store_.find(r.id);
    if (e != nullptr && e->attrs.insert_time.ns() == r.insert_ns) kept.push_back(r);
  }
  age_heap_ = std::move(kept);
  std::make_heap(age_heap_.begin(), age_heap_.end(), age_after);
}

bool SoftwareTable::insert(FlowEntry entry) {
  if (capacity_ != 0 && store_.size() >= capacity_) return false;
  const std::uint64_t seq = next_seq_++;
  const FlowEntry& e = store_.at(store_.insert(seq, std::move(entry)));
  tuple_.insert(e.match, e.id);
  strict_.insert(e.match, e.priority, e.id);
  if (is_timed(e)) ++timed_;
  push_age(e, seq);
  compact_age_heap();
  return true;
}

void SoftwareTable::unindex(const FlowEntry& e) {
  if (is_timed(e)) --timed_;
  tuple_.erase(e.match, e.id);
  strict_.erase(e.match, e.priority, e.id);
}

FlowEntry SoftwareTable::remove_at(std::size_t pos) {
  FlowEntry out = store_.remove_at(pos);
  unindex(out);
  return out;
}

std::optional<FlowEntry> SoftwareTable::erase(FlowId id) {
  const OrderedSlots::Slot s = store_.slot_of(id);
  if (s == OrderedSlots::kNoSlot) return std::nullopt;
  return remove_at(store_.position(s));
}

std::vector<FlowEntry> SoftwareTable::remove_batch(
    const std::vector<std::size_t>& desc) {
  auto removed = store_.remove_batch(desc);
  for (const auto& e : removed) unindex(e);
  return removed;
}

void SoftwareTable::collect_matching(const of::Match& filter) {
  scratch_.clear();
  tuple_.for_each_subsumable(filter, [&](FlowId id) {
    const OrderedSlots::Slot s = store_.slot_of(id);
    if (filter.subsumes(store_.entry(s).match)) scratch_.push_back(store_.position(s));
  });
}

std::vector<FlowEntry> SoftwareTable::erase_matching(const of::Match& filter) {
  collect_matching(filter);
  if (scratch_.empty()) return {};
  // Removed entries come back in descending table order — the order the
  // original one-at-a-time reverse sweep produced.
  std::sort(scratch_.begin(), scratch_.end(), std::greater<>());
  return remove_batch(scratch_);
}

std::vector<FlowEntry> SoftwareTable::take_expired(SimTime now) {
  if (timed_ == 0) return {};
  // Expiry is time-based, not match-based, so collect by scan; the timed_
  // fast path above keeps the common (no timeouts resident) case O(1).
  scratch_.clear();
  for (std::size_t i = store_.size(); i-- > 0;) {
    if (store_.at(i).expired(now)) scratch_.push_back(i);
  }
  if (scratch_.empty()) return {};
  return remove_batch(scratch_);
}

std::optional<FlowEntry> SoftwareTable::pop_oldest() {
  while (!age_heap_.empty()) {
    const AgeRecord top = age_heap_.front();
    std::pop_heap(age_heap_.begin(), age_heap_.end(), age_after);
    age_heap_.pop_back();
    const OrderedSlots::Slot s = store_.slot_of(top.id);
    if (s == OrderedSlots::kNoSlot) continue;  // stale: entry left the table
    if (store_.entry(s).attrs.insert_time.ns() != top.insert_ns) continue;
    return remove_at(store_.position(s));
  }
  return std::nullopt;
}

FlowEntry* SoftwareTable::lookup(const of::PacketHeader& pkt) {
  // Winner: highest priority; ties go to the earliest-inserted entry
  // (lowest order key), matching the original front-to-back strict-> scan.
  FlowEntry* best = nullptr;
  OrderedSlots::Key best_key = 0;
  tuple_.for_each_candidate(pkt, [&](FlowId id) {
    const OrderedSlots::Slot s = store_.slot_of(id);
    FlowEntry& e = store_.entry(s);
    if (!e.match.matches(pkt)) return;
    const OrderedSlots::Key key = store_.key(s);
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && key < best_key)) {
      best = &e;
      best_key = key;
    }
  });
  return best;
}

FlowEntry* SoftwareTable::find_strict(const of::Match& match, std::uint16_t priority) {
  const auto* ids = strict_.candidates(match, priority);
  if (ids == nullptr) return nullptr;
  // Bucket order is insertion order, and relative table order among equal
  // (match, priority) keys is insertion order too, so the first verified
  // candidate is the front-to-back scan's first hit.
  for (const FlowId id : *ids) {
    FlowEntry* e = store_.find(id);
    if (e->priority == priority && e->match == match) return e;
  }
  return nullptr;
}

const FlowEntry* SoftwareTable::find_by_id(FlowId id) const { return store_.find(id); }

FlowEntry* SoftwareTable::find_by_id(FlowId id) { return store_.find(id); }

bool SoftwareTable::replace(FlowId id, FlowEntry entry) {
  const OrderedSlots::Slot s = store_.slot_of(id);
  if (s == OrderedSlots::kNoSlot) return false;
  FlowEntry& old = store_.entry(s);
  if (is_timed(old)) --timed_;
  if (is_timed(entry)) ++timed_;
  old = std::move(entry);
  // The replacement restarts the entry's clock; record the new insertion
  // time under the original serial so age order still follows position.
  push_age(old, store_.key(s));
  compact_age_heap();
  return true;
}

void SoftwareTable::clear() {
  store_.clear();
  timed_ = 0;
  tuple_.clear();
  strict_.clear();
  age_heap_.clear();
}

void MicroflowCache::insert(const of::PacketHeader& key, FlowId source_rule,
                            const of::ActionList& actions, SimTime now) {
  const std::uint64_t rule_seq = next_seq_++;
  const auto it = map_.find(key);
  std::uint64_t fifo_seq;
  if (it == map_.end()) {
    // Evict in FIFO order until a slot opens. Stale pairs (key since
    // evicted, invalidated, or re-keyed) don't shrink the map, so the loop
    // skips past them and removes exactly the victims an eagerly-maintained
    // FIFO would have.
    while (capacity_ != 0 && map_.size() >= capacity_ && !fifo_.empty()) {
      const auto& [k, fseq] = fifo_.front();
      const auto vit = map_.find(k);
      if (vit != map_.end() && vit->second.fifo_seq == fseq) map_.erase(vit);
      fifo_.pop_front();
    }
    fifo_seq = rule_seq;
    fifo_.emplace_back(key, fifo_seq);
  } else {
    // Overwriting a resident key keeps its FIFO position.
    fifo_seq = it->second.fifo_seq;
  }
  map_[key] = Entry{source_rule, actions, now, fifo_seq, rule_seq};
  by_rule_[source_rule].emplace_back(key, rule_seq);
  ++by_rule_total_;
  maybe_compact();
}

std::optional<MicroflowCache::Hit> MicroflowCache::lookup(
    const of::PacketHeader& key, SimTime now) {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  it->second.last_use = now;
  return Hit{it->second.source_rule, &it->second.actions};
}

void MicroflowCache::invalidate_rule(FlowId source_rule) {
  const auto it = by_rule_.find(source_rule);
  if (it == by_rule_.end()) return;
  for (const auto& [key, rseq] : it->second) {
    const auto mit = map_.find(key);
    if (mit != map_.end() && mit->second.rule_seq == rseq) map_.erase(mit);
  }
  by_rule_total_ -= it->second.size();
  by_rule_.erase(it);
  // fifo_ may keep stale pairs; eviction and compaction skip them lazily.
}

void MicroflowCache::maybe_compact() {
  if (fifo_.size() > 2 * map_.size() + 64) {
    std::erase_if(fifo_, [this](const auto& pair) {
      const auto it = map_.find(pair.first);
      return it == map_.end() || it->second.fifo_seq != pair.second;
    });
  }
  if (by_rule_total_ > 4 * map_.size() + 64) {
    by_rule_total_ = 0;
    for (auto it = by_rule_.begin(); it != by_rule_.end();) {
      auto& vec = it->second;
      std::erase_if(vec, [this](const auto& pair) {
        const auto mit = map_.find(pair.first);
        return mit == map_.end() || mit->second.rule_seq != pair.second;
      });
      if (vec.empty()) {
        it = by_rule_.erase(it);
      } else {
        by_rule_total_ += vec.size();
        ++it;
      }
    }
  }
}

void MicroflowCache::clear() {
  map_.clear();
  fifo_.clear();
  by_rule_.clear();
  by_rule_total_ = 0;
}

}  // namespace tango::tables
