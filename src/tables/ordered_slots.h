// Ordered-slot store shared by the TCAM and the software table.
//
// Entries live in slots that never move: an insert takes a freed slot (or
// appends a new one) and an erase returns its slot to the free list, so the
// id -> slot map is written only for the entry being inserted or erased.
// Physical order is kept apart from the entries, as a sorted array of 64-bit
// order keys beside an array of slot numbers. The owning table picks the
// key: the TCAM uses priority << 48 | insertion serial, the software table
// the serial alone. An entry's position is a binary search over the keys,
// and an insert or erase in the middle of the order moves only those 8- and
// 4-byte values — never an entry, and never another entry's index record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <vector>

#include "tables/flow_entry.h"

namespace tango::tables {

class OrderedSlots {
 public:
  using Key = std::uint64_t;
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

 private:
  struct Cell {
    FlowEntry entry;
    Key key = 0;
  };

 public:

  /// Read-only view of the resident entries in physical (ascending key)
  /// order. Like an iterator, it is invalidated by any insert or erase.
  class View {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FlowEntry;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowEntry*;
      using reference = const FlowEntry&;

      iterator() = default;
      reference operator*() const { return cells_[*slot_].entry; }
      pointer operator->() const { return &cells_[*slot_].entry; }
      iterator& operator++() {
        ++slot_;
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++slot_;
        return before;
      }
      bool operator==(const iterator& other) const { return slot_ == other.slot_; }

     private:
      friend class View;
      iterator(const Cell* cells, const Slot* slot) : cells_(cells), slot_(slot) {}
      const Cell* cells_ = nullptr;
      const Slot* slot_ = nullptr;  // into the physical-order slot array
    };

    explicit View(const OrderedSlots& store)
        : cells_(store.cells_.data()), order_(store.order_.data()),
          size_(store.order_.size()) {}
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    const FlowEntry& operator[](std::size_t pos) const { return cells_[order_[pos]].entry; }
    [[nodiscard]] const FlowEntry& back() const { return (*this)[size_ - 1]; }
    [[nodiscard]] iterator begin() const { return {cells_, order_}; }
    [[nodiscard]] iterator end() const { return {cells_, order_ + size_}; }

   private:
    const Cell* cells_;
    const Slot* order_;
    std::size_t size_;
  };

  /// Store `entry` under `key`, which no resident entry may hold. Returns
  /// the entry's physical position (the number of smaller resident keys).
  std::size_t insert(Key key, FlowEntry entry);

  /// Remove and return the entry at physical position `pos`.
  FlowEntry remove_at(std::size_t pos);

  /// Remove the entries at `desc` (positions, strictly descending) with one
  /// compaction pass over the order arrays; returns them in `desc` order.
  std::vector<FlowEntry> remove_batch(const std::vector<std::size_t>& desc);

  void clear();

  /// Slot of the resident entry with this id, or kNoSlot.
  [[nodiscard]] Slot slot_of(FlowId id) const {
    const auto it = slot_of_.find(id);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }
  FlowEntry& entry(Slot s) { return cells_[s].entry; }
  [[nodiscard]] const FlowEntry& entry(Slot s) const { return cells_[s].entry; }
  [[nodiscard]] Key key(Slot s) const { return cells_[s].key; }

  /// Physical position of the resident entry in slot `s`.
  [[nodiscard]] std::size_t position(Slot s) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), cells_[s].key) - keys_.begin());
  }

  FlowEntry* find(FlowId id) {
    const Slot s = slot_of(id);
    return s == kNoSlot ? nullptr : &cells_[s].entry;
  }
  [[nodiscard]] const FlowEntry* find(FlowId id) const {
    const Slot s = slot_of(id);
    return s == kNoSlot ? nullptr : &cells_[s].entry;
  }

  /// The entry at physical position `pos`.
  FlowEntry& at(std::size_t pos) { return cells_[order_[pos]].entry; }
  [[nodiscard]] const FlowEntry& at(std::size_t pos) const {
    return cells_[order_[pos]].entry;
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] View view() const { return View(*this); }

 private:
  /// Hand slot `s` back to the free list, returning its entry.
  FlowEntry release(Slot s);

  std::vector<Cell> cells_;                // entry and order key, by slot
  std::vector<Slot> free_;                 // released slots, reused LIFO
  std::unordered_map<FlowId, Slot> slot_of_;
  std::vector<Key> keys_;                  // physical order, ascending
  std::vector<Slot> order_;                // slot at each physical position
};

}  // namespace tango::tables
