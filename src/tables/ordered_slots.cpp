#include "tables/ordered_slots.h"

#include <cassert>

namespace tango::tables {

std::size_t OrderedSlots::insert(Key key, FlowEntry entry) {
  Slot s = static_cast<Slot>(cells_.size());
  if (free_.empty()) {
    assert(s != kNoSlot);
    cells_.push_back({std::move(entry), key});
  } else {
    s = free_.back();
    free_.pop_back();
    cells_[s] = {std::move(entry), key};
  }
  const bool fresh = slot_of_.emplace(cells_[s].entry.id, s).second;
  assert(fresh);
  (void)fresh;
  // Appends (every software-table insert, and a TCAM insert at the top
  // priority) skip the search.
  const auto it = keys_.empty() || keys_.back() < key
                      ? keys_.end()
                      : std::lower_bound(keys_.begin(), keys_.end(), key);
  assert(it == keys_.end() || *it != key);
  const auto pos = it - keys_.begin();
  keys_.insert(it, key);
  order_.insert(order_.begin() + pos, s);
  return static_cast<std::size_t>(pos);
}

FlowEntry OrderedSlots::release(Slot s) {
  FlowEntry out = std::move(cells_[s].entry);
  slot_of_.erase(out.id);
  free_.push_back(s);
  return out;
}

FlowEntry OrderedSlots::remove_at(std::size_t pos) {
  const Slot s = order_[pos];
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  keys_.erase(keys_.begin() + offset);
  order_.erase(order_.begin() + offset);
  return release(s);
}

std::vector<FlowEntry> OrderedSlots::remove_batch(const std::vector<std::size_t>& desc) {
  std::vector<FlowEntry> removed;
  removed.reserve(desc.size());
  for (const std::size_t p : desc) removed.push_back(release(order_[p]));
  // One-pass compaction over the holes (desc is strictly descending, so its
  // reverse view is ascending).
  const std::size_t n = keys_.size();
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

void OrderedSlots::clear() {
  cells_.clear();
  free_.clear();
  slot_of_.clear();
  keys_.clear();
  order_.clear();
}

}  // namespace tango::tables
