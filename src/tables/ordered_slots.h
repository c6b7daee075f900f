// Ordered-slot store: the one implementation of everything the TCAM and the
// software table share.
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
//
// The store also owns the side indexes, so nothing scans the table: a
// tuple-space index for lookup and subsumption, a strict (match, priority)
// hash for OpenFlow strict ops, the count of entries that carry a timeout,
// and the total width of the entries (TCAM slots). They are updated only in
// insert() and in the private slot release. Each table inherits the store
// and keeps only its policy: the order key, the entry width, the lookup tie
// rule it passes to best_match(), and its own victim or age heap. The
// indexes are accelerators only — every result is bit-identical to the
// linear scans they replaced (see the reference tables in
// tests/test_table_diff.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tables/flow_entry.h"
#include "tables/tuple_index.h"

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
    std::size_t width = 0;
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

  /// Store `entry` under `key`, which no resident entry may hold, adding
  /// `width` to slots_used(). Returns the number of resident entries
  /// ordered after it: the shifts a physical array pays to open its slot.
  std::size_t insert(Key key, FlowEntry entry, std::size_t width);

  /// Remove by flow id, returning the entry. Compaction shifts (the
  /// entries ordered after it) are *added* to `*shifts` when non-null, so
  /// callers can accumulate across tables.
  std::optional<FlowEntry> take(FlowId id, std::size_t* shifts = nullptr);

  /// Remove all entries whose match is subsumed by `filter` (non-strict
  /// OpenFlow delete). Removed entries come back in descending physical
  /// order, and `*shifts` (when non-null) is *set* to the compaction moves,
  /// both as the original one-at-a-time reverse sweep produced them.
  std::vector<FlowEntry> erase_matching(const of::Match& filter,
                                        std::size_t* shifts = nullptr);

  /// Remove every entry whose idle/hard timeout elapsed by `now`, in
  /// descending physical order. O(1) when no resident entry carries a
  /// timeout.
  std::vector<FlowEntry> take_expired(SimTime now);

  /// Apply `fn` to every entry subsumed by `filter`, in physical order.
  /// `fn` must not change an entry's match, priority, or id, which the
  /// indexes are keyed on. Returns the number of entries visited.
  template <typename Fn>
  std::size_t for_each_matching(const of::Match& filter, Fn&& fn) {
    collect_matching(filter);
    std::sort(scratch_.begin(), scratch_.end());
    for (const std::size_t pos : scratch_) fn(at(pos));
    return scratch_.size();
  }

  /// Exact (match, priority) find, nullptr if absent.
  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority);

  FlowEntry* find_by_id(FlowId id) {
    const Slot s = slot_of(id);
    return s == kNoSlot ? nullptr : &cells_[s].entry;
  }
  [[nodiscard]] const FlowEntry* find_by_id(FlowId id) const {
    const Slot s = slot_of(id);
    return s == kNoSlot ? nullptr : &cells_[s].entry;
  }

  /// Overwrite the entry with this id in place (the OpenFlow ADD-replaces-
  /// duplicate path). The replacement must carry the same id, match, and
  /// priority; its key, width and position are untouched. Returns its slot,
  /// or kNoSlot if absent.
  Slot replace(FlowId id, FlowEntry entry);

  void clear();

  /// The matching entry that wins under `better(e, key, best, best_key)`,
  /// which says whether candidate `e` (order key `key`) beats the best so
  /// far. The rule must order resident entries strictly — order keys are
  /// unique, so a rule that ends in a key comparison does — because the
  /// index visits candidates in no particular order. nullptr if none match.
  template <typename Better>
  FlowEntry* best_match(const of::PacketHeader& pkt, Better&& better) {
    Cell* best = nullptr;
    tuple_.for_each_candidate(pkt, [&](FlowId id) {
      Cell& c = cells_[slot_of(id)];
      if (!c.entry.match.matches(pkt)) return;
      if (best == nullptr || better(c.entry, c.key, best->entry, best->key)) best = &c;
    });
    return best == nullptr ? nullptr : &best->entry;
  }

  /// The entry and order key in a slot replace() returned.
  FlowEntry& entry(Slot s) { return cells_[s].entry; }
  [[nodiscard]] Key key(Slot s) const { return cells_[s].key; }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// Sum of the resident entries' widths: the slots they occupy.
  [[nodiscard]] std::size_t slots_used() const { return width_; }
  /// Entries in physical (ascending key) order.
  [[nodiscard]] View entries() const { return View(*this); }

 private:
  static bool is_timed(const FlowEntry& e) {
    return e.idle_timeout != 0 || e.hard_timeout != 0;
  }

  /// Slot of the resident entry with this id, or kNoSlot.
  [[nodiscard]] Slot slot_of(FlowId id) const {
    const auto it = slot_of_.find(id);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }

  /// Physical position of the resident entry in slot `s`.
  [[nodiscard]] std::size_t position(Slot s) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), cells_[s].key) - keys_.begin());
  }
  /// The entry at physical position `pos`.
  FlowEntry& at(std::size_t pos) { return cells_[order_[pos]].entry; }

  /// Remove and return the entry at physical position `pos`.
  FlowEntry remove_at(std::size_t pos);
  /// Remove the entries at `desc` (positions, strictly descending) with one
  /// compaction pass over the order arrays; returns them in `desc` order and
  /// sets `*shifts` (when non-null) to the moves one-at-a-time erasure in
  /// that order would make.
  std::vector<FlowEntry> remove_batch(const std::vector<std::size_t>& desc,
                                      std::size_t* shifts);
  /// Fill scratch_ with the positions of the entries `filter` subsumes.
  void collect_matching(const of::Match& filter);
  /// Unindex slot `s` and hand it back to the free list, returning its entry.
  FlowEntry release(Slot s);

  std::vector<Cell> cells_;                // entry, order key and width, by slot
  std::vector<Slot> free_;                 // released slots, reused LIFO
  std::unordered_map<FlowId, Slot> slot_of_;
  std::vector<Key> keys_;                  // physical order, ascending
  std::vector<Slot> order_;                // slot at each physical position
  TupleSpaceIndex tuple_;
  StrictIndex strict_;
  std::size_t timed_ = 0;                  // resident entries with a timeout set
  std::size_t width_ = 0;                  // sum of resident widths
  std::vector<std::size_t> scratch_;       // candidate positions, reused
};

}  // namespace tango::tables
