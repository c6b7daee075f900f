// Tuple-space search indexes for the flow tables (OVS-style).
//
// Entries are grouped by their *normalized wildcard mask* (which exact
// fields are constrained plus the two IP prefix lengths). Within a group,
// every member constrains exactly the same bits, so "match.matches(pkt)"
// is equivalent to "masked packet key == masked match key" — each group is
// an exact-match hash table. A lookup hashes the packet once per group
// (group counts are small in practice: rule sets reuse a handful of masks)
// instead of testing every entry; candidates are still re-verified with
// matches()/subsumes(), which keeps hash collisions harmless and makes the
// index a pure accelerator with no observable behaviour of its own.
//
// StrictIndex is the companion exact (match, priority) hash used by
// OpenFlow strict operations and the replace-on-duplicate ADD path.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "openflow/match.h"
#include "tables/flow_entry.h"

namespace tango::tables {

/// Normalized wildcard pattern of a Match: a bit per constrained exact
/// field plus the two prefix lengths.
struct MaskSignature {
  std::uint16_t exact = 0;
  std::uint8_t src_plen = 0;
  std::uint8_t dst_plen = 0;

  bool operator==(const MaskSignature&) const = default;

  [[nodiscard]] std::uint32_t packed() const {
    return static_cast<std::uint32_t>(exact) |
           (static_cast<std::uint32_t>(src_plen) << 16) |
           (static_cast<std::uint32_t>(dst_plen) << 24);
  }

  /// True when a filter with this signature could subsume an entry stored
  /// under `other`: the filter constrains a subset of the fields, with
  /// prefixes no longer than the entry's.
  [[nodiscard]] bool constrains_subset_of(const MaskSignature& other) const {
    return (exact & ~other.exact) == 0 && src_plen <= other.src_plen &&
           dst_plen <= other.dst_plen;
  }

  static MaskSignature of(const of::Match& m);
};

/// Hash of the constrained field values of `m` under signature `sig`.
/// masked_key_of(sig, match) == masked_key_of(sig, packet) whenever
/// match.matches(packet) and MaskSignature::of(match) == sig.
std::uint64_t masked_key_of(const MaskSignature& sig, const of::Match& m);
std::uint64_t masked_key_of(const MaskSignature& sig, const of::PacketHeader& h);

class TupleSpaceIndex {
 public:
  void insert(const of::Match& m, FlowId id);
  void erase(const of::Match& m, FlowId id);
  void clear();

  /// Invoke fn(id) for every entry in some group's bucket the packet hashes
  /// into. Callers re-verify with match.matches(pkt).
  template <typename Fn>
  void for_each_candidate(const of::PacketHeader& pkt, Fn&& fn) const {
    for (const auto& [key, group] : groups_) {
      (void)key;
      const auto it = group.buckets.find(masked_key_of(group.sig, pkt));
      if (it == group.buckets.end()) continue;
      for (const FlowId id : it->second) fn(id);
    }
  }

  /// Invoke fn(id) for every entry a filter with signature `filter_sig`
  /// could subsume. Groups with the identical signature collapse to one
  /// bucket probe; strictly-wider groups are scanned and callers verify
  /// with filter.subsumes().
  template <typename Fn>
  void for_each_subsumable(const of::Match& filter, Fn&& fn) const {
    const MaskSignature filter_sig = MaskSignature::of(filter);
    for (const auto& [key, group] : groups_) {
      (void)key;
      if (!filter_sig.constrains_subset_of(group.sig)) continue;
      if (group.sig == filter_sig) {
        const auto it = group.buckets.find(masked_key_of(group.sig, filter));
        if (it == group.buckets.end()) continue;
        for (const FlowId id : it->second) fn(id);
        continue;
      }
      for (const auto& [bucket_key, ids] : group.buckets) {
        (void)bucket_key;
        for (const FlowId id : ids) fn(id);
      }
    }
  }

 private:
  struct Group {
    MaskSignature sig;
    std::unordered_map<std::uint64_t, std::vector<FlowId>> buckets;
    std::size_t size = 0;
  };
  std::unordered_map<std::uint32_t, Group> groups_;
};

/// Exact (match, priority) index. Buckets hold ids in insertion order, so
/// the first verified candidate is the earliest-inserted duplicate —
/// matching the linear-scan find_strict it replaces.
class StrictIndex {
 public:
  void insert(const of::Match& m, std::uint16_t priority, FlowId id);
  void erase(const of::Match& m, std::uint16_t priority, FlowId id);
  void clear() { buckets_.clear(); }

  /// Candidate ids (insertion-ordered; may contain hash collisions — the
  /// caller verifies match equality). nullptr when the bucket is empty.
  [[nodiscard]] const std::vector<FlowId>* candidates(
      const of::Match& m, std::uint16_t priority) const;

 private:
  static std::uint64_t key_of(const of::Match& m, std::uint16_t priority);
  std::unordered_map<std::uint64_t, std::vector<FlowId>> buckets_;
};

}  // namespace tango::tables
