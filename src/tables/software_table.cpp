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

const FlowEntry* SoftwareTable::live(const AgeRecord& r) const {
  const FlowEntry* e = find_by_id(r.id);
  return e != nullptr && e->attrs.insert_time.ns() == r.insert_ns ? e : nullptr;
}

void SoftwareTable::compact_age_heap() {
  if (age_heap_.size() <= 2 * size() + 64) return;
  std::vector<AgeRecord> kept;
  kept.reserve(size());
  for (const auto& r : age_heap_) {
    if (live(r) != nullptr) kept.push_back(r);
  }
  age_heap_ = std::move(kept);
  std::make_heap(age_heap_.begin(), age_heap_.end(), age_after);
}

void SoftwareTable::insert(FlowEntry entry) {
  const std::uint64_t seq = next_seq_++;
  push_age(entry, seq);
  OrderedSlots::insert(seq, std::move(entry), 1);
  compact_age_heap();
}

const FlowEntry* SoftwareTable::oldest() {
  while (!age_heap_.empty()) {
    if (const FlowEntry* e = live(age_heap_.front())) return e;
    std::pop_heap(age_heap_.begin(), age_heap_.end(), age_after);
    age_heap_.pop_back();
  }
  return nullptr;
}

FlowEntry* SoftwareTable::lookup(const of::PacketHeader& pkt) {
  // Winner: highest priority; ties go to the earliest-inserted entry
  // (lowest order key), matching the original front-to-back strict-> scan.
  return best_match(pkt, [](const FlowEntry& e, Key key, const FlowEntry& best,
                            Key best_key) {
    return e.priority > best.priority || (e.priority == best.priority && key < best_key);
  });
}

bool SoftwareTable::replace(FlowId id, FlowEntry entry) {
  const Slot s = OrderedSlots::replace(id, std::move(entry));
  if (s == kNoSlot) return false;
  // The replacement restarts the entry's clock; record the new insertion
  // time under the original serial so age order still follows position.
  push_age(this->entry(s), key(s));
  compact_age_heap();
  return true;
}

void SoftwareTable::clear() {
  OrderedSlots::clear();
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
