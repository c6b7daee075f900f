// Software flow tables: the user-space wildcard table (virtually unbounded;
// the *simulated* lookup stays slow via the path-delay model) and the kernel
// exact-match microflow cache that OVS populates from data-plane traffic
// (§3 "Diverse flow installation behaviors": one user-space entry can map to
// many kernel microflows).
//
// Both tables are index-backed so wall-clock cost per simulated operation
// stays near O(1). The wildcard table inherits the OrderedSlots store, with
// its side indexes and every operation it shares with the TCAM, and keeps
// only its policy: the insertion-serial order key (so an erase from the
// middle moves no other entry), the earliest-wins lookup tie, and a lazy
// min-heap over insertion times for oldest(). The microflow cache keeps a
// per-rule key index and a sequence-guarded FIFO so rule invalidation no
// longer walks the whole cache. Observable behaviour is bit-identical to the
// linear-scan implementations these replaced (see
// tests/test_table_diff.cpp).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tables/flow_entry.h"
#include "tables/ordered_slots.h"

namespace tango::tables {

/// Priority-ordered wildcard table, unbounded. Entries are kept in
/// insertion order (the observable order of entries() and stats).
class SoftwareTable : private OrderedSlots {
 public:
  void insert(FlowEntry entry);

  // Shared with the TCAM (see ordered_slots.h): removal by id, subsumption
  // delete, expiry, MODIFY visits, strict and by-id finds, occupancy, and
  // the table (insertion) order. for_each_matching's `fn` must not change
  // an entry's insertion time either.
  using OrderedSlots::take;
  using OrderedSlots::erase_matching;
  using OrderedSlots::take_expired;
  using OrderedSlots::for_each_matching;
  using OrderedSlots::find_strict;
  using OrderedSlots::find_by_id;
  using OrderedSlots::size;
  using OrderedSlots::entries;

  /// The oldest-inserted entry, left in place (Switch #1's FIFO promotion
  /// source), or nullptr when empty. Ties on insertion time break towards
  /// the earlier position.
  const FlowEntry* oldest();

  /// Highest-priority entry matching the packet (ties: earliest insert).
  FlowEntry* lookup(const of::PacketHeader& pkt);

  /// Overwrite the entry with this id in place (ADD-replaces-duplicate).
  /// Must carry the same id, match, and priority; false if absent.
  bool replace(FlowId id, FlowEntry entry);

  void clear();

 private:
  struct AgeRecord {
    std::int64_t insert_ns = 0;
    std::uint64_t seq = 0;  ///< insertion serial; orders equal timestamps
    FlowId id = 0;
  };
  static bool age_after(const AgeRecord& a, const AgeRecord& b);
  /// The entry `r` still describes, or nullptr when the record is stale:
  /// the entry left the table or a replacement restarted its clock.
  [[nodiscard]] const FlowEntry* live(const AgeRecord& r) const;
  void push_age(const FlowEntry& e, std::uint64_t seq);
  void compact_age_heap();

  std::uint64_t next_seq_ = 0;  // the order key
  /// Lazy min-heap on (insert_ns, seq); oldest() and compaction discard
  /// stale records.
  std::vector<AgeRecord> age_heap_;
};

/// Exact-match cache keyed by full packet header. FIFO-evicting, like the
/// bounded kernel flow cache in OVS.
///
/// The FIFO and the per-rule index hold (key, sequence) pairs and are
/// cleaned lazily: a pair is live only while the mapped entry still carries
/// the same sequence, so eviction order and invalidation results are
/// identical to eagerly-maintained structures without the O(cache) sweeps.
class MicroflowCache {
 public:
  explicit MicroflowCache(std::size_t capacity = 200000) : capacity_(capacity) {}

  /// Cache the forwarding decision for this exact header. The entry
  /// remembers which wildcard rule produced it so stats can be attributed.
  void insert(const of::PacketHeader& key, FlowId source_rule,
              const of::ActionList& actions, SimTime now);

  struct Hit {
    FlowId source_rule;
    const of::ActionList* actions;
  };
  std::optional<Hit> lookup(const of::PacketHeader& key, SimTime now);

  /// Drop every microflow derived from the given wildcard rule (rule
  /// deletion/modification must invalidate its microflows). O(microflows
  /// of that rule), not O(cache).
  void invalidate_rule(FlowId source_rule);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool contains(const of::PacketHeader& key) const {
    return map_.find(key) != map_.end();
  }
  void clear();

 private:
  struct Entry {
    FlowId source_rule;
    of::ActionList actions;
    SimTime last_use;
    std::uint64_t fifo_seq = 0;  ///< constant while the key stays resident
    std::uint64_t rule_seq = 0;  ///< bumped on every (re)insert
  };
  void maybe_compact();

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<of::PacketHeader, Entry, of::PacketHeaderHash> map_;
  std::deque<std::pair<of::PacketHeader, std::uint64_t>> fifo_;
  std::unordered_map<FlowId,
                     std::vector<std::pair<of::PacketHeader, std::uint64_t>>>
      by_rule_;
  std::size_t by_rule_total_ = 0;
};

}  // namespace tango::tables
