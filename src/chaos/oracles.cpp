#include "chaos/oracles.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "openflow/actions.h"
#include "scheduler/reconciler.h"
#include "scheduler/verifier.h"

namespace tango::chaos {

std::string to_string(const OracleViolation& v) {
  return v.oracle + ": " + v.detail;
}

const sched::TableImage& desired_image(const sched::UpdateTransaction& txn,
                                       SwitchId id) {
  const auto& report = txn.report();
  if (report.policy == sched::RecoveryPolicy::kRollBack &&
      report.rolled_back) {
    return txn.pre_image(id);
  }
  return txn.post_image(id);
}

namespace {

using sched::TableImage;

std::set<SwitchId> affected_switches(const sched::UpdateTransaction& txn) {
  std::set<SwitchId> out;
  for (const auto& entry : txn.journal()) out.insert(entry.location);
  return out;
}

/// Truth straight from the simulator, bypassing the control channel.
TableImage actual_image(net::Network& net, SwitchId id) {
  return sched::image_of(net.sw(id).flow_stats(of::Match::any()));
}

std::string describe_diff(const TableImage& want, const TableImage& got) {
  for (const auto& [key, rule] : want) {
    const auto it = got.find(key);
    if (it == got.end()) return "missing rule {" + key + "}";
    if (!(it->second == rule)) return "divergent rule {" + key + "}";
  }
  for (const auto& [key, rule] : got) {
    if (want.find(key) == want.end()) return "stale rule {" + key + "}";
  }
  return "tables differ";
}

/// Construct a packet that matches `m` (every constrained field copied,
/// wildcarded fields left at defaults). Returns false when the constructed
/// packet does not actually match — the caller skips the flow.
bool packet_from(const of::Match& m, of::PacketHeader& pkt) {
  pkt = of::PacketHeader{};
  if (!m.field_wildcarded(of::kWildcardInPort)) pkt.in_port = m.in_port;
  if (!m.field_wildcarded(of::kWildcardDlSrc)) pkt.dl_src = m.dl_src;
  if (!m.field_wildcarded(of::kWildcardDlDst)) pkt.dl_dst = m.dl_dst;
  if (!m.field_wildcarded(of::kWildcardDlVlan)) pkt.dl_vlan = m.dl_vlan;
  if (!m.field_wildcarded(of::kWildcardDlVlanPcp)) pkt.dl_vlan_pcp = m.dl_vlan_pcp;
  if (!m.field_wildcarded(of::kWildcardDlType)) pkt.dl_type = m.dl_type;
  if (!m.field_wildcarded(of::kWildcardNwTos)) pkt.nw_tos = m.nw_tos;
  if (!m.field_wildcarded(of::kWildcardNwProto)) pkt.nw_proto = m.nw_proto;
  if (!m.field_wildcarded(of::kWildcardTpSrc)) pkt.tp_src = m.tp_src;
  if (!m.field_wildcarded(of::kWildcardTpDst)) pkt.tp_dst = m.tp_dst;
  if (m.nw_src_prefix_len() > 0) pkt.nw_src = m.nw_src;
  if (m.nw_dst_prefix_len() > 0) pkt.nw_dst = m.nw_dst;
  return m.matches(pkt);
}

void check_committed(const OracleInput& in,
                     std::vector<OracleViolation>& out) {
  const auto& report = in.txn->report();
  if (!report.committed) {
    out.push_back({"committed",
                   "transaction did not reach its end state (reconciled=" +
                       std::string(report.reconciled ? "true" : "false") +
                       ", rounds=" + std::to_string(report.reconcile_rounds) +
                       ")"});
  }
  for (const auto id : report.unreconciled) {
    out.push_back({"committed",
                   "switch " + std::to_string(id) + " unreconciled"});
  }
  if (report.exec.lost_requests != 0) {
    out.push_back({"committed",
                   std::to_string(report.exec.lost_requests) +
                       " requests neither completed nor failed"});
  }
}

void check_image_agreement(const OracleInput& in,
                           std::vector<OracleViolation>& out) {
  for (const auto id : affected_switches(*in.txn)) {
    const auto& want = desired_image(*in.txn, id);
    const auto got = actual_image(*in.net, id);
    if (got != want) {
      out.push_back({"image-agreement",
                     "switch " + std::to_string(id) + ": " +
                         describe_diff(want, got)});
    }
  }
}

void check_readback(const OracleInput& in, std::vector<OracleViolation>& out) {
  sched::Reconciler reconciler(*in.net);
  for (const auto id : affected_switches(*in.txn)) {
    sched::ReconcileStats stats;
    const auto wire = reconciler.read_table(id, stats);
    if (!wire.has_value()) {
      out.push_back({"readback",
                     "switch " + std::to_string(id) +
                         " unreadable over a clean channel"});
      continue;
    }
    const auto direct = actual_image(*in.net, id);
    if (*wire != direct) {
      out.push_back({"readback",
                     "switch " + std::to_string(id) +
                         ": wire readback disagrees with switch table: " +
                         describe_diff(direct, *wire)});
    }
  }
}

void check_verifier(const OracleInput& in, std::vector<OracleViolation>& out) {
  const auto flows = verifier_flows(*in.txn, in.cookie_checks);
  sched::ConsistencyVerifier verifier(*in.net);
  const auto report = verifier.verify(flows);
  for (const auto& v : report.violations) {
    out.push_back({"verifier",
                   sched::to_string(v.kind) + " at switch " +
                       std::to_string(v.at) + ": " + v.detail});
  }
}

void check_counters(const OracleInput& in, std::vector<OracleViolation>& out) {
  const auto& exec = in.txn->report().exec;
  if (exec.retries > exec.timeouts) {
    out.push_back({"counters",
                   "retries (" + std::to_string(exec.retries) +
                       ") exceed timeouts (" + std::to_string(exec.timeouts) +
                       ")"});
  }
  const bool fault_free =
      in.schedule->events.empty() && in.schedule->base_loss == 0.0;
  if (fault_free && exec.timeouts != 0) {
    out.push_back({"counters",
                   "fault-free schedule produced " +
                       std::to_string(exec.timeouts) + " timeouts"});
  }

  // Per-fault-type accounting: every scheduled event must have fired
  // exactly once, and partition losses require a partition window.
  std::map<SwitchId, std::map<FaultKind, std::uint64_t>> scheduled;
  for (const auto& ev : in.schedule->events) ++scheduled[ev.target][ev.kind];
  for (const auto& [id, stats] : in.fault_stats) {
    const auto& mine = scheduled[id];
    const auto expect = [&](FaultKind k) {
      const auto it = mine.find(k);
      return it == mine.end() ? std::uint64_t{0} : it->second;
    };
    if (stats.crashes != expect(FaultKind::kCrash)) {
      out.push_back({"counters",
                     "switch " + std::to_string(id) + ": " +
                         std::to_string(stats.crashes) + " crashes vs " +
                         std::to_string(expect(FaultKind::kCrash)) +
                         " scheduled"});
    }
    if (stats.stalls != expect(FaultKind::kStall)) {
      out.push_back({"counters",
                     "switch " + std::to_string(id) + ": " +
                         std::to_string(stats.stalls) + " stalls vs " +
                         std::to_string(expect(FaultKind::kStall)) +
                         " scheduled"});
    }
    if (stats.partitions != expect(FaultKind::kPartition)) {
      out.push_back({"counters",
                     "switch " + std::to_string(id) + ": " +
                         std::to_string(stats.partitions) +
                         " partition windows vs " +
                         std::to_string(expect(FaultKind::kPartition)) +
                         " scheduled"});
    }
    if (stats.partitions == 0 && stats.lost_to_partition != 0) {
      out.push_back({"counters",
                     "switch " + std::to_string(id) + ": " +
                         std::to_string(stats.lost_to_partition) +
                         " partition losses without a partition window"});
    }
  }
}

}  // namespace

std::vector<sched::FlowCheck> verifier_flows(const sched::UpdateTransaction& txn,
                                             bool cookie_checks) {
  std::vector<sched::FlowCheck> flows;
  for (const auto id : affected_switches(txn)) {
    const auto& want = desired_image(txn, id);
    // Only matches with a single desired rule on this switch: when the
    // same match exists at two priorities, the lower one is legitimately
    // shadowed by its sibling and a walk cannot distinguish that from a
    // stale leftover. A key at priority 0 is equal exactly when the
    // matches print alike.
    std::unordered_map<sched::RuleKey, std::size_t, sched::RuleKeyHash> by_match;
    for (const auto& [key, rule] : want) ++by_match[sched::RuleKey(rule.match, 0)];
    for (const auto& [key, rule] : want) {
      if (by_match.at(sched::RuleKey(rule.match, 0)) != 1) continue;
      // Walk only rules that forward somewhere. The switch's own table-miss
      // rule (and any deliberate punt-to-controller rule) is not a flow.
      const auto port = of::output_port(rule.actions);
      if (port == of::kPortNone || port == of::kPortController) continue;
      sched::FlowCheck flow;
      flow.ingress = id;
      if (!packet_from(rule.match, flow.packet)) continue;
      if (cookie_checks && rule.cookie != 0) {
        flow.expected_cookies[id] = rule.cookie;
      }
      flows.push_back(std::move(flow));
    }
  }
  return flows;
}

std::vector<OracleViolation> check_invariants(const OracleInput& in) {
  std::vector<OracleViolation> out;
  check_committed(in, out);
  check_image_agreement(in, out);
  check_readback(in, out);
  check_verifier(in, out);
  check_counters(in, out);
  return out;
}

}  // namespace tango::chaos
