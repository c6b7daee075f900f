// Lazy eviction heap over LexCachePolicy keys: O(log n) victim selection
// with semantics identical to the O(n) LexCachePolicy::victim_index scan.
//
// Records are (snapshot of the policy's attribute values, flow id). Every
// table mutation that could change an entry's rank pushes a *fresh* record;
// stale records (entry gone, or its live attribute values no longer equal
// the snapshot) are discarded lazily when they surface at the top. The
// invariant is that every resident entry always has at least one valid
// record, so the first valid record found at the top is the true victim.
//
// Snapshots store the same doubles attribute_value() feeds prefers(), and
// the record comparator replays prefers() exactly — key by key, with the
// final lower-id-stays tie-break — so victim() agrees with victim_index()
// on every input, ties and serial attributes included (the differential
// property suite in tests/test_tables.cpp asserts this).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "tables/cache_policy.h"
#include "tables/flow_entry.h"

namespace tango::tables {

class EvictionHeap {
 public:
  /// Maximum lexicographic depth (distinct attributes in Attribute).
  static constexpr std::size_t kMaxKeys = 4;

  EvictionHeap() = default;

  /// Attach a policy (non-owning; nullptr detaches). Clears the heap; the
  /// owner re-pushes its resident entries.
  void set_policy(const LexCachePolicy* policy);
  [[nodiscard]] const LexCachePolicy* policy() const { return policy_; }

  /// True when some policy key ranks by an attribute record_hit() mutates
  /// (use time, traffic count). When false, hits cannot change any entry's
  /// rank, so per-hit re-pushes are pointless: the existing records stay
  /// fresh forever and duplicate pushes would only grow the heap.
  [[nodiscard]] bool rank_depends_on_hits() const { return hit_sensitive_; }

  /// Record the entry's current rank. Call on insert and after any
  /// attribute mutation (replace, record_hit). No-op when detached.
  void push(const FlowEntry& e);

  void clear() { heap_.clear(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// The eviction victim among live entries, or nullopt when none remain.
  /// `resolve(id)` returns the live entry or nullptr if it left the table.
  /// Stale records are popped; the returned victim's record stays valid at
  /// the top, so repeated calls are cheap.
  template <typename Resolve>
  std::optional<FlowId> victim(Resolve&& resolve) {
    while (!heap_.empty()) {
      const Record& top = heap_.front();
      const FlowEntry* live = resolve(top.id);
      if (live != nullptr && fresh(top, *live)) return top.id;
      pop_top();
    }
    return std::nullopt;
  }

  /// Drop stale records when they dominate the heap (amortized O(1) per
  /// mutation). `resolve` as in victim().
  template <typename Resolve>
  void maybe_compact(std::size_t resident, Resolve&& resolve) {
    if (heap_.size() <= 2 * resident + 64) return;
    // Keep one fresh record per live id, in place. Fresh duplicates are
    // bit-identical (both equal the live attribute values), so dropping all
    // but one cannot change the victim — but keeping them would let the
    // heap stay above the compaction threshold forever. The victim is the
    // unique greatest record under record_prefers() (ties fall to the id),
    // so the rebuilt layout may differ without moving any victim.
    std::erase_if(heap_, [&](const Record& r) {
      const FlowEntry* live = resolve(r.id);
      return live == nullptr || !fresh(r, *live);
    });
    std::sort(heap_.begin(), heap_.end(),
              [](const Record& a, const Record& b) { return a.id < b.id; });
    heap_.erase(std::unique(heap_.begin(), heap_.end(),
                            [](const Record& a, const Record& b) {
                              return a.id == b.id;
                            }),
                heap_.end());
    rebuild();
  }

 private:
  struct Record {
    std::array<double, kMaxKeys> key{};
    FlowId id = 0;
  };

  /// prefers() over snapshots: true when `a` outranks `b` (b evicted
  /// first). The heap is a max-heap under this order, so the top is the
  /// entry everything else outranks — the victim.
  [[nodiscard]] bool record_prefers(const Record& a, const Record& b) const;
  [[nodiscard]] bool fresh(const Record& r, const FlowEntry& live) const;
  [[nodiscard]] Record snapshot(const FlowEntry& e) const;
  void pop_top();
  void rebuild();

  const LexCachePolicy* policy_ = nullptr;
  bool hit_sensitive_ = false;
  std::vector<Record> heap_;
};

}  // namespace tango::tables
