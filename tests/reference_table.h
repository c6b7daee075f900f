// Reference (oracle) flow tables for the differential property suite.
//
// These are the pre-index linear-scan implementations, kept verbatim in
// test-land: every operation walks the entry vector exactly the way
// tables::Tcam / tables::SoftwareTable / tables::MicroflowCache did before
// they grew tuple-space, strict, and heap indexes. The production tables
// must agree with these on every observable output — lookup winners, strict
// finds, removal sets and their order, shift counts, occupancy, eviction
// victims, FIFO casualties — for arbitrary operation sequences; see
// tests/test_table_diff.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "tables/cache_policy.h"
#include "tables/flow_entry.h"
#include "tables/tcam.h"

namespace tango::tables::testing {

/// What one by-id erase removed and the compaction moves it cost.
struct TcamEraseOutcome {
  std::size_t removed = 0;
  std::size_t shifts = 0;        ///< compaction moves
};

/// Linear-scan TCAM with the seed's exact shift accounting and tie-breaks.
class ReferenceTcam {
 public:
  explicit ReferenceTcam(TcamConfig config) : config_(config) {}

  [[nodiscard]] std::optional<std::size_t> slots_for(const of::Match& match) const {
    const of::MatchLayer layer = match.layer();
    switch (config_.mode) {
      case TcamMode::kSingleWide:
        if (layer == of::MatchLayer::kL2AndL3) return std::nullopt;
        return 1;
      case TcamMode::kDoubleWide:
        return 2;
      case TcamMode::kAdaptive:
        return layer == of::MatchLayer::kL2AndL3 ? 2 : 1;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool can_fit(const of::Match& match) const {
    const auto slots = slots_for(match);
    return slots.has_value() && slots_used_ + *slots <= config_.capacity_slots;
  }

  TcamInsertOutcome insert(FlowEntry entry) {
    TcamInsertOutcome out;
    const auto slots = slots_for(entry.match);
    if (!slots) {
      out.reject_reason = "entry shape unsupported";
      return out;
    }
    if (slots_used_ + *slots > config_.capacity_slots) {
      out.reject_reason = "TCAM full";
      return out;
    }
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry.priority,
        [](std::uint16_t p, const FlowEntry& e) { return p < e.priority; });
    out.shifts = static_cast<std::size_t>(entries_.end() - pos);
    entries_.insert(pos, std::move(entry));
    slots_used_ += *slots;
    out.accepted = true;
    return out;
  }

  TcamEraseOutcome erase(FlowId id) {
    TcamEraseOutcome out;
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const FlowEntry& e) { return e.id == id; });
    if (it == entries_.end()) return out;
    slots_used_ -= slots_for(it->match).value_or(0);
    out.shifts = static_cast<std::size_t>(entries_.end() - it) - 1;
    entries_.erase(it);
    out.removed = 1;
    return out;
  }

  std::optional<FlowEntry> take(FlowId id, std::size_t* shifts = nullptr) {
    for (const auto& e : entries_) {
      if (e.id == id) {
        FlowEntry copy = e;
        const auto out = erase(id);
        if (shifts != nullptr) *shifts += out.shifts;
        return copy;
      }
    }
    return std::nullopt;
  }

  std::vector<FlowEntry> erase_matching(const of::Match& filter,
                                        std::size_t* shifts_out = nullptr) {
    std::vector<FlowEntry> removed;
    std::size_t shifts = 0;
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (filter.subsumes(entries_[i].match)) {
        slots_used_ -= slots_for(entries_[i].match).value_or(0);
        shifts += entries_.size() - i - 1;
        removed.push_back(std::move(entries_[i]));
        entries_.erase(entries_.begin() + static_cast<long>(i));
      }
    }
    if (shifts_out != nullptr) *shifts_out = shifts;
    return removed;
  }

  std::vector<FlowEntry> take_expired(SimTime now) {
    std::vector<FlowEntry> expired;
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].expired(now)) {
        expired.push_back(std::move(entries_[i]));
        entries_.erase(entries_.begin() + static_cast<long>(i));
        slots_used_ -= slots_for(expired.back().match).value_or(0);
      }
    }
    return expired;
  }

  FlowEntry* lookup(const of::PacketHeader& pkt) {
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].match.matches(pkt)) return &entries_[i];
    }
    return nullptr;
  }

  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority) {
    for (auto& e : entries_) {
      if (e.priority == priority && e.match == match) return &e;
    }
    return nullptr;
  }

  std::size_t modify_matching(const of::Match& filter, const of::ActionList& actions) {
    std::size_t updated = 0;
    for (auto& e : entries_) {
      if (filter.subsumes(e.match)) {
        e.actions = actions;
        ++updated;
      }
    }
    return updated;
  }

  bool replace(FlowId id, FlowEntry entry) {
    for (auto& e : entries_) {
      if (e.id == id) {
        e = std::move(entry);
        return true;
      }
    }
    return false;
  }

  /// Victim via the O(n) policy scan over live entries.
  std::optional<FlowId> victim_id(const LexCachePolicy& policy) const {
    if (entries_.empty()) return std::nullopt;
    std::vector<const FlowEntry*> ptrs;
    ptrs.reserve(entries_.size());
    for (const auto& e : entries_) ptrs.push_back(&e);
    return ptrs[policy.victim_index({ptrs.data(), ptrs.size()})]->id;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t slots_used() const { return slots_used_; }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return entries_; }
  /// Direct entry access so differential tests can mirror attribute
  /// mutations (record_hit) that the production table applies in place.
  std::vector<FlowEntry>& mutable_entries() { return entries_; }
  void clear() {
    entries_.clear();
    slots_used_ = 0;
  }

 private:
  TcamConfig config_;
  std::vector<FlowEntry> entries_;
  std::size_t slots_used_ = 0;
};

/// Linear-scan software table with the seed's tie-breaks.
class ReferenceSoftwareTable {
 public:
  explicit ReferenceSoftwareTable(std::size_t capacity = 0) : capacity_(capacity) {}

  bool insert(FlowEntry entry) {
    if (capacity_ != 0 && entries_.size() >= capacity_) return false;
    entries_.push_back(std::move(entry));
    return true;
  }

  std::optional<FlowEntry> erase(FlowId id) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const FlowEntry& e) { return e.id == id; });
    if (it == entries_.end()) return std::nullopt;
    FlowEntry out = std::move(*it);
    entries_.erase(it);
    return out;
  }

  std::vector<FlowEntry> erase_matching(const of::Match& filter) {
    std::vector<FlowEntry> removed;
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (filter.subsumes(entries_[i].match)) {
        removed.push_back(std::move(entries_[i]));
        entries_.erase(entries_.begin() + static_cast<long>(i));
      }
    }
    return removed;
  }

  std::vector<FlowEntry> take_expired(SimTime now) {
    std::vector<FlowEntry> expired;
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].expired(now)) {
        expired.push_back(std::move(entries_[i]));
        entries_.erase(entries_.begin() + static_cast<long>(i));
      }
    }
    return expired;
  }

  std::optional<FlowEntry> pop_oldest() {
    if (entries_.empty()) return std::nullopt;
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->attrs.insert_time < oldest->attrs.insert_time) oldest = it;
    }
    FlowEntry out = std::move(*oldest);
    entries_.erase(oldest);
    return out;
  }

  FlowEntry* lookup(const of::PacketHeader& pkt) {
    FlowEntry* best = nullptr;
    for (auto& e : entries_) {
      if (!e.match.matches(pkt)) continue;
      if (best == nullptr || e.priority > best->priority) best = &e;
    }
    return best;
  }

  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority) {
    for (auto& e : entries_) {
      if (e.priority == priority && e.match == match) return &e;
    }
    return nullptr;
  }

  std::size_t modify_matching(const of::Match& filter, const of::ActionList& actions) {
    std::size_t updated = 0;
    for (auto& e : entries_) {
      if (filter.subsumes(e.match)) {
        e.actions = actions;
        ++updated;
      }
    }
    return updated;
  }

  bool replace(FlowId id, FlowEntry entry) {
    for (auto& e : entries_) {
      if (e.id == id) {
        e = std::move(entry);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::vector<FlowEntry> entries_;
};

/// Eagerly-maintained FIFO microflow cache (the seed implementation).
class ReferenceMicroflowCache {
 public:
  explicit ReferenceMicroflowCache(std::size_t capacity) : capacity_(capacity) {}

  void insert(const of::PacketHeader& key, FlowId source_rule,
              const of::ActionList& actions, SimTime now) {
    if (map_.find(key) == map_.end()) {
      while (capacity_ != 0 && map_.size() >= capacity_ && !fifo_.empty()) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
      }
      fifo_.push_back(key);
    }
    map_[key] = Entry{source_rule, actions, now};
  }

  struct Hit {
    FlowId source_rule;
    const of::ActionList* actions;
  };
  std::optional<Hit> lookup(const of::PacketHeader& key, SimTime now) {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    it->second.last_use = now;
    return Hit{it->second.source_rule, &it->second.actions};
  }

  void invalidate_rule(FlowId source_rule) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.source_rule == source_rule) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(fifo_, [this](const of::PacketHeader& k) {
      return map_.find(k) == map_.end();
    });
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool contains(const of::PacketHeader& key) const {
    return map_.find(key) != map_.end();
  }
  void clear() {
    map_.clear();
    fifo_.clear();
  }

 private:
  struct Entry {
    FlowId source_rule;
    of::ActionList actions;
    SimTime last_use;
  };
  std::size_t capacity_;
  std::unordered_map<of::PacketHeader, Entry, of::PacketHeaderHash> map_;
  std::deque<of::PacketHeader> fifo_;
};

}  // namespace tango::tables::testing
