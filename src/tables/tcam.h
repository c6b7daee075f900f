// TCAM model with physical-ordering (shift) accounting.
//
// Hardware TCAMs resolve priority by physical position: the entry array is
// kept sorted by rule priority, and inserting a rule "between" existing
// entries forces the switch software to shift entries to open a slot. That
// shifting is what makes descending-priority installation dramatically
// slower than ascending on real switches (paper §3, Fig 3(c)); this model
// counts the shifts so the latency model can charge for them.
//
// Capacity accounting follows §3's Table 1 discussion: a TCAM operates in
// single-wide mode (entries match only L2 *or* only L3 headers, 1 slot
// each), double-wide mode (every entry occupies 2 slots, any layer mix), or
// adaptive mode (L2-only/L3-only cost 1 slot, L2+L3 cost 2 — Switch #3).
//
// Physical order is the source of truth (entries() is the observable
// physical order and the shift counts derive from it). The entries, their
// side indexes and every operation the TCAM shares with the software table
// live in the OrderedSlots store it inherits. The TCAM adds only its
// policy: the mode and its slot widths, the priority << 48 | insertion
// serial order key (so the physical position of an entry is the rank of its
// key and an insert or erase moves no other entry), the newest-wins lookup
// tie, and a lazy eviction heap when a cache policy is attached.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <string>

#include "tables/eviction_heap.h"
#include "tables/flow_entry.h"
#include "tables/ordered_slots.h"

namespace tango::tables {

enum class TcamMode { kSingleWide, kDoubleWide, kAdaptive };

std::string to_string(TcamMode mode);

struct TcamConfig {
  std::size_t capacity_slots = 4096;
  TcamMode mode = TcamMode::kSingleWide;
};

struct TcamInsertOutcome {
  bool accepted = false;
  std::size_t shifts = 0;        ///< entries physically moved to open the slot
  std::string reject_reason;     ///< set when !accepted
};

class Tcam : private OrderedSlots {
 public:
  explicit Tcam(TcamConfig config) : config_(config) {}

  /// Slots an entry of this shape occupies, or nullopt if the mode cannot
  /// hold it at all (e.g. L2+L3 in single-wide mode).
  [[nodiscard]] std::optional<std::size_t> slots_for(const of::Match& match) const;

  [[nodiscard]] bool can_fit(const of::Match& match) const;

  /// Insert keeping priority order. Rejects when slots are exhausted or the
  /// entry shape is unsupported; never evicts (eviction is the owning
  /// switch's cache-policy decision).
  TcamInsertOutcome insert(FlowEntry entry);

  // Shared with the software table (see ordered_slots.h): removal by id
  // with shift counting, subsumption delete, expiry, MODIFY visits, strict
  // and by-id finds, occupancy, and the physical (ascending-priority) order.
  // for_each_matching's `fn` must leave policy attributes to
  // note_attrs_changed().
  using OrderedSlots::take;
  using OrderedSlots::erase_matching;
  using OrderedSlots::take_expired;
  using OrderedSlots::for_each_matching;
  using OrderedSlots::find_strict;
  using OrderedSlots::find_by_id;
  using OrderedSlots::size;
  using OrderedSlots::slots_used;
  using OrderedSlots::entries;

  /// Highest-priority entry matching the packet (ties: most recent insert).
  FlowEntry* lookup(const of::PacketHeader& pkt);

  /// Overwrite the entry with this id in place (the OpenFlow ADD-replaces-
  /// duplicate path) and re-rank it in the eviction heap. The replacement
  /// must carry the same id, match, and priority; position and shift state
  /// are untouched. False if absent.
  bool replace(FlowId id, FlowEntry entry);

  // --- cache-policy eviction (kPolicyCache levels) -------------------------
  /// Attach the owning switch's policy (non-owning; nullptr detaches).
  /// Enables victim_id(); resident entries are re-indexed into the heap.
  void set_eviction_policy(const LexCachePolicy* policy);

  /// The policy's eviction victim among resident entries — identical to
  /// LexCachePolicy::victim_index over entries() — or nullopt when empty.
  /// Requires an attached policy.
  std::optional<FlowId> victim_id();

  /// Re-rank `id` after an external mutation of its policy attributes
  /// (e.g. record_hit). No-op when no policy is attached.
  void note_attrs_changed(FlowId id);

  [[nodiscard]] std::size_t slots_total() const { return config_.capacity_slots; }
  [[nodiscard]] const TcamConfig& config() const { return config_; }

  /// Shrink (or grow) raw slot capacity in place — models a partial
  /// hardware failure or firmware change. The caller must first evict
  /// entries until slots_used() fits the new capacity (asserted).
  void set_capacity_slots(std::size_t n) {
    assert(slots_used() <= n);
    config_.capacity_slots = n;
  }

  void clear();

 private:
  TcamConfig config_;
  std::uint64_t next_serial_ = 0;  // keys: ascending priority, equal-priority FIFO
  EvictionHeap heap_;
};

}  // namespace tango::tables
