// Reference (oracle) journal builder for the differential property suite
// and the journal microbenchmark.
//
// This is the UpdateTransaction constructor's journal loop as it was before
// the post images were indexed, kept verbatim in test-land: rule_key strings
// as rule identity, and a walk over the whole post image with
// Match::subsumes for every MODIFY and DELETE (strict branches included,
// though to_flow_mod never emits them). sched::build_journal must return
// exactly what this returns for every DAG and pre image, and a transaction
// must issue exactly the repairs this journal's attribution would; see
// JournalProperties in tests/test_properties.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "scheduler/executor.h"
#include "scheduler/reconciler.h"
#include "scheduler/request.h"
#include "scheduler/transaction.h"

namespace tango::sched::testing {

/// Rule key string -> DAG node.
using StringOwners = std::map<std::string, std::size_t>;

struct ReferenceJournal {
  std::vector<JournalEntry> entries;
  std::map<SwitchId, TableImage> post;
  std::map<SwitchId, StringOwners> writers;
  std::map<SwitchId, StringOwners> touched;
};

namespace detail {

inline of::FlowMod restore(const RuleImage& rule) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kAdd;
  fm.match = rule.match;
  fm.priority = rule.priority;
  fm.actions = rule.actions;
  fm.cookie = rule.cookie;
  return fm;
}

inline of::FlowMod erase_strict(const of::Match& match, std::uint16_t priority) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kDeleteStrict;
  fm.match = match;
  fm.priority = priority;
  return fm;
}

}  // namespace detail

inline ReferenceJournal reference_build_journal(
    const RequestDag& dag, std::map<SwitchId, TableImage> pre) {
  using detail::erase_strict;
  using detail::restore;
  ReferenceJournal out;
  out.post = pre;
  const auto level = dag.levels();
  std::vector<std::size_t> order(dag.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return level[a] < level[b];
                   });

  for (const std::size_t id : order) {
    const SwitchRequest& req = dag.request(id);
    const of::FlowMod fm = to_flow_mod(req);
    TableImage& image = out.post[req.location];
    const TableImage& pre_image = pre[req.location];
    auto& touched = out.touched[req.location];
    auto& writers = out.writers[req.location];

    JournalEntry entry;
    entry.dag_id = id;
    entry.location = req.location;
    entry.intent = fm;

    const std::string key = rule_key(fm.match, fm.priority);
    switch (fm.command) {
      case of::FlowModCommand::kAdd: {
        const auto prev = image.find(key);
        if (prev != image.end()) {
          entry.inverse.push_back(restore(prev->second));
        } else {
          entry.inverse.push_back(erase_strict(fm.match, fm.priority));
        }
        if (pre_image.count(key) != 0) touched.emplace(key, id);
        writers[key] = id;
        break;
      }
      case of::FlowModCommand::kModify:
      case of::FlowModCommand::kModifyStrict: {
        std::size_t hits = 0;
        for (const auto& [k, rule] : image) {
          if (!fm.match.subsumes(rule.match)) continue;
          entry.inverse.push_back(restore(rule));
          if (pre_image.count(k) != 0) touched.emplace(k, id);
          writers[k] = id;
          ++hits;
        }
        if (hits == 0) {
          // The modify will act as an ADD of a fresh entry.
          entry.inverse.push_back(erase_strict(fm.match, fm.priority));
          writers[key] = id;
        }
        break;
      }
      case of::FlowModCommand::kDelete:
      case of::FlowModCommand::kDeleteStrict: {
        for (const auto& [k, rule] : image) {
          if (!fm.match.subsumes(rule.match)) continue;
          entry.inverse.push_back(restore(rule));
          if (pre_image.count(k) != 0) touched.emplace(k, id);
        }
        break;
      }
    }
    apply_to_image(image, fm);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

/// The transaction's Reconciler::Author over a reference journal, as it was
/// written against string-keyed attribution: a rule carrying transaction
/// `txn_id`'s cookie maps to its node, any other rule by rule_key through
/// the writers (`forward`) or touched maps.
inline std::optional<std::size_t> reference_author(
    const ReferenceJournal& journal, std::uint32_t txn_id,
    std::size_t dag_size, SwitchId sw, const RuleImage& rule, bool forward) {
  if (UpdateTransaction::txn_of_cookie(rule.cookie) == txn_id) {
    const auto id =
        static_cast<std::size_t>(static_cast<std::uint32_t>(rule.cookie));
    if (id < dag_size) return id;
  }
  const std::string key = rule_key(rule.match, rule.priority);
  const auto& attribution = forward ? journal.writers : journal.touched;
  const auto per_switch = attribution.find(sw);
  if (per_switch != attribution.end()) {
    const auto hit = per_switch->second.find(key);
    if (hit != per_switch->second.end()) return hit->second;
  }
  return std::nullopt;
}

/// Typed attribution restated by key string, to compare with the reference.
inline std::map<SwitchId, StringOwners> by_key_string(
    const std::map<SwitchId, RuleOwners>& owners) {
  std::map<SwitchId, StringOwners> out;
  for (const auto& [sw, per_switch] : owners) {
    auto& strings = out[sw];
    for (const auto& [key, id] : per_switch) {
      strings.emplace(rule_key(key.match(), key.priority()), id);
    }
  }
  return out;
}

/// The first difference between a production and a reference journal, or
/// an empty string when they agree entry for entry (intents, inverses in
/// order, states), image for image and in attribution.
inline std::string journal_difference(const Journal& got,
                                      const ReferenceJournal& want) {
  if (got.entries.size() != want.entries.size()) return "entry count";
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const JournalEntry& a = got.entries[i];
    const JournalEntry& b = want.entries[i];
    const std::string at = "entry " + std::to_string(i) + " (dag " +
                           std::to_string(b.dag_id) + "): ";
    if (a.dag_id != b.dag_id || a.location != b.location) return at + "node";
    if (!(a.intent == b.intent)) return at + "intent";
    if (a.inverse != b.inverse) return at + "inverse";
    if (a.state != b.state) return at + "state";
    if (got.entry_of.size() <= a.dag_id || got.entry_of[a.dag_id] != i) {
      return at + "entry_of";
    }
  }
  if (got.entry_of.size() != want.entries.size()) return "entry_of size";
  if (got.post != want.post) return "post images";
  if (by_key_string(got.writers) != want.writers) return "writers";
  if (by_key_string(got.touched) != want.touched) return "touched";
  return "";
}

}  // namespace tango::sched::testing
