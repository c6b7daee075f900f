#include "scheduler/reconciler.h"

#include <charconv>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "openflow/epoch.h"
#include "scheduler/schedulers.h"

namespace tango::sched {

namespace {

/// Settle time before each readback round. A commit that aborted early
/// (crash detected, requests failed) can leave duplicated or reordered
/// frames of the dead attempt still in flight; without letting the queue
/// drain for a moment, those land AFTER the readback and re-apply a dead
/// transaction's intent behind the reconciler's back — catastrophic under
/// rollback, where they reinstate a rule that was just rolled back.
constexpr SimDuration kQuiesce = millis(5);
/// Per-attempt timeout for one FLOW_STATS readback.
constexpr SimDuration kReadbackTimeout = millis(200);
/// Extra attempts after a lost readback before the switch is declared
/// unreconcilable (this round).
constexpr std::size_t kMaxReadbackRetries = 6;

}  // namespace

std::string rule_key(const of::Match& match, std::uint16_t priority) {
  std::string key;
  key.reserve(96);
  match.append_to(key);
  key += '/';
  char buf[8];
  const auto res = std::to_chars(buf, buf + sizeof(buf), priority);
  key.append(buf, res.ptr);
  return key;
}

RuleKey::RuleKey(const of::Match& match, std::uint16_t priority)
    : priority_(priority) {
  // Exact fields to_string() prints keep their wildcard bit and, when
  // constrained, their value; everything else stays at its default.
  constexpr std::uint32_t kPrinted =
      of::kWildcardInPort | of::kWildcardDlSrc | of::kWildcardDlDst |
      of::kWildcardDlVlan | of::kWildcardDlType | of::kWildcardNwProto |
      of::kWildcardTpSrc | of::kWildcardTpDst;
  of::Match& m = match_;
  m.wildcards = match.wildcards & kPrinted;
  if (!m.field_wildcarded(of::kWildcardInPort)) m.in_port = match.in_port;
  if (!m.field_wildcarded(of::kWildcardDlSrc)) m.dl_src = match.dl_src;
  if (!m.field_wildcarded(of::kWildcardDlDst)) m.dl_dst = match.dl_dst;
  if (!m.field_wildcarded(of::kWildcardDlVlan)) m.dl_vlan = match.dl_vlan;
  if (!m.field_wildcarded(of::kWildcardDlType)) m.dl_type = match.dl_type;
  if (!m.field_wildcarded(of::kWildcardNwProto)) m.nw_proto = match.nw_proto;
  if (!m.field_wildcarded(of::kWildcardTpSrc)) m.tp_src = match.tp_src;
  if (!m.field_wildcarded(of::kWildcardTpDst)) m.tp_dst = match.tp_dst;
  // Prefix lengths in canonical form (wildcard counts above 32 read as 32);
  // the address as stored, unmasked, as to_string() prints it.
  const int src_plen = match.nw_src_prefix_len();
  const int dst_plen = match.nw_dst_prefix_len();
  m.wildcards |=
      (static_cast<std::uint32_t>(32 - src_plen) << of::kWildcardNwSrcShift) |
      (static_cast<std::uint32_t>(32 - dst_plen) << of::kWildcardNwDstShift);
  if (src_plen > 0) m.nw_src = match.nw_src;
  if (dst_plen > 0) m.nw_dst = match.nw_dst;
}

std::size_t RuleKeyHash::operator()(const RuleKey& key) const {
  const of::Match& m = key.match();
  std::uint64_t h = key.priority();
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  };
  const auto mac = [](const of::MacAddr& a) {
    std::uint64_t v = 0;
    for (const auto b : a) v = (v << 8) | b;
    return v;
  };
  mix(m.wildcards);
  mix((std::uint64_t{m.in_port} << 32) | (std::uint64_t{m.dl_vlan} << 16) |
      m.dl_type);
  mix(mac(m.dl_src));
  mix(mac(m.dl_dst));
  mix((std::uint64_t{m.nw_src} << 32) | m.nw_dst);
  mix((std::uint64_t{m.tp_src} << 24) | (std::uint64_t{m.tp_dst} << 8) |
      m.nw_proto);
  return static_cast<std::size_t>(h);
}

TableImage image_of(const of::FlowStatsReply& reply) {
  TableImage image;
  for (const auto& e : reply.entries) {
    image[rule_key(e.match, e.priority)] =
        RuleImage{e.match, e.priority, e.actions, e.cookie};
  }
  return image;
}

void apply_to_image(TableImage& image, const of::FlowMod& fm) {
  switch (fm.command) {
    case of::FlowModCommand::kAdd:
      image[rule_key(fm.match, fm.priority)] =
          RuleImage{fm.match, fm.priority, fm.actions, fm.cookie};
      return;
    case of::FlowModCommand::kModify:
    case of::FlowModCommand::kModifyStrict: {
      std::size_t updated = 0;
      for (auto& [key, rule] : image) {
        const bool hit = fm.command == of::FlowModCommand::kModifyStrict
                             ? rule.match == fm.match && rule.priority == fm.priority
                             : fm.match.subsumes(rule.match);
        if (!hit) continue;
        rule.actions = fm.actions;
        rule.cookie = fm.cookie;
        ++updated;
      }
      if (updated == 0) {
        // Per OpenFlow 1.0, MODIFY with no matching entry behaves like ADD.
        image[rule_key(fm.match, fm.priority)] =
            RuleImage{fm.match, fm.priority, fm.actions, fm.cookie};
      }
      return;
    }
    case of::FlowModCommand::kDelete:
      for (auto it = image.begin(); it != image.end();) {
        if (fm.match.subsumes(it->second.match)) {
          it = image.erase(it);
        } else {
          ++it;
        }
      }
      return;
    case of::FlowModCommand::kDeleteStrict:
      image.erase(rule_key(fm.match, fm.priority));
      return;
  }
}

std::optional<TableImage> Reconciler::read_table(SwitchId id,
                                                ReconcileStats& stats) {
  for (std::size_t attempt = 0; attempt <= kMaxReadbackRetries; ++attempt) {
    ++stats.readback_requests;
    auto reply = network_.try_flow_stats(id, of::Match::any(), kReadbackTimeout);
    if (reply.has_value()) return image_of(*reply);
    ++stats.readback_lost;
  }
  log::warn("reconciler: switch " + std::to_string(id) +
            " table unreadable after " +
            std::to_string(kMaxReadbackRetries + 1) + " attempts");
  return std::nullopt;
}

ReconcileStats Reconciler::run(const std::map<SwitchId, TableImage>& desired,
                               const Author& author,
                               const MustPrecede& must_precede) {
  ReconcileStats stats;

  struct Repair {
    SwitchId sw = 0;
    RequestType type = RequestType::kAdd;
    RuleImage rule;
    std::optional<std::size_t> author;
  };

  for (;;) {
    // --- quiesce: let in-flight frames of the aborted commit land ---------
    network_.events().run_until(network_.now() + kQuiesce);

    // --- readback + diff --------------------------------------------------
    std::vector<Repair> repairs;
    std::set<SwitchId> unread;
    for (const auto& [sw, want] : desired) {
      const auto actual = read_table(sw, stats);
      if (!actual.has_value()) {
        unread.insert(sw);
        continue;
      }
      for (const auto& [key, rule] : want) {
        const auto it = actual->find(key);
        if (it == actual->end() || !(it->second == rule)) {
          repairs.push_back(
              {sw, RequestType::kAdd, rule,
               author ? author(sw, rule) : std::nullopt});
        }
      }
      for (const auto& [key, rule] : *actual) {
        if (options_.scope && !options_.scope(sw, rule)) continue;
        if (want.find(key) == want.end()) {
          repairs.push_back(
              {sw, RequestType::kDel, rule,
               author ? author(sw, rule) : std::nullopt});
        }
      }
    }
    stats.unreconciled = std::move(unread);
    if (repairs.empty()) {
      stats.converged = stats.unreconciled.empty();
      return stats;
    }
    if (stats.rounds >= options_.max_rounds) {
      log::warn("reconciler: round budget exhausted with " +
                std::to_string(repairs.size()) + " repairs outstanding");
      return stats;
    }
    ++stats.rounds;

    // --- collateral: a non-strict DELETE also sweeps desired rules its
    // match subsumes; re-add them behind it. --------------------------------
    std::map<SwitchId, std::unordered_set<RuleKey, RuleKeyHash>> added;
    for (const auto& r : repairs) {
      if (r.type == RequestType::kAdd) {
        added[r.sw].emplace(r.rule.match, r.rule.priority);
      }
    }
    const std::size_t direct = repairs.size();
    for (std::size_t i = 0; i < direct; ++i) {
      if (repairs[i].type != RequestType::kDel) continue;
      const SwitchId sw = repairs[i].sw;
      for (const auto& [key, rule] : desired.at(sw)) {
        (void)key;
        if (!repairs[i].rule.match.subsumes(rule.match)) continue;
        if (!added[sw].emplace(rule.match, rule.priority).second) continue;
        repairs.push_back(
            {sw, RequestType::kAdd, rule, author ? author(sw, rule) : std::nullopt});
      }
    }

    // --- build the repair DAG ---------------------------------------------
    RequestDag rdag;
    for (const auto& r : repairs) {
      SwitchRequest req;
      req.location = r.sw;
      req.type = r.type;
      req.priority = r.rule.priority;
      req.match = r.rule.match;
      req.actions = r.rule.actions;
      req.cookie = options_.repair_epoch != 0
                       ? of::refence_cookie(r.rule.cookie, options_.repair_epoch)
                       : r.rule.cookie;
      rdag.add(std::move(req));
      if (r.type == RequestType::kAdd) {
        ++stats.repairs_issued;
      } else {
        ++stats.stale_rules_removed;
      }
    }
    for (std::size_t i = 0; i < repairs.size(); ++i) {
      if (repairs[i].type != RequestType::kDel) continue;
      for (std::size_t j = 0; j < repairs.size(); ++j) {
        if (repairs[j].type != RequestType::kAdd ||
            repairs[j].sw != repairs[i].sw) {
          continue;
        }
        if (repairs[i].rule.match.subsumes(repairs[j].rule.match)) {
          rdag.add_dependency(i, j);
        }
      }
    }
    if (must_precede) {
      for (std::size_t i = 0; i < repairs.size(); ++i) {
        if (!repairs[i].author.has_value()) continue;
        for (std::size_t j = 0; j < repairs.size(); ++j) {
          if (i == j || !repairs[j].author.has_value()) continue;
          if (must_precede(*repairs[i].author, *repairs[j].author)) {
            rdag.add_dependency(i, j);
          }
        }
      }
    }

    // --- issue the repairs -------------------------------------------------
    log::info("reconciler: round " + std::to_string(stats.rounds) + ", " +
              std::to_string(repairs.size()) + " repairs across " +
              std::to_string(desired.size()) + " switches");
    DionysusScheduler scheduler;
    ExecutorOptions exec = options_.exec;
    exec.on_complete = nullptr;  // journal bookkeeping is the commit's, not ours
    exec.on_failed = nullptr;
    execute(network_, rdag, scheduler, exec);
    // Loop: the next readback round verifies the repairs landed.
  }
}

}  // namespace tango::sched
