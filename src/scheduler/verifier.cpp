#include "scheduler/verifier.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>

#include "net/topology.h"
#include "openflow/actions.h"

namespace tango::sched {

std::string to_string(VerifierViolation::Kind kind) {
  switch (kind) {
    case VerifierViolation::Kind::kBlackHole: return "black-hole";
    case VerifierViolation::Kind::kLoop: return "loop";
    case VerifierViolation::Kind::kShadowed: return "shadowed";
    case VerifierViolation::Kind::kWrongEgress: return "wrong-egress";
  }
  return "?";
}

namespace {

/// Hops a walk may take: a backstop against port-aliasing topologies
/// where the visited-set loop check cannot fire first.
constexpr std::size_t kMaxHops = 64;

/// One switch's flow_stats(any) entries in resolution order: descending
/// priority, ties in the order flow_stats lists them (level 0 first,
/// software last).
using TableSnapshot = std::vector<of::FlowStatsEntry>;

/// The rule the switch's lookup resolves for `pkt`: the first matching
/// entry in resolution order, i.e. the highest-priority match with ties
/// to table order.
const of::FlowStatsEntry* resolve(const TableSnapshot& table,
                                  const of::PacketHeader& pkt) {
  for (const auto& e : table) {
    if (e.match.matches(pkt)) return &e;
  }
  return nullptr;
}

/// The snapshots of one verify() call, keyed by switch. Tables do not
/// change within a call, so each switch is read once, on its first visit;
/// the next call starts from an empty map.
using Snapshots = std::unordered_map<SwitchId, TableSnapshot>;

const TableSnapshot& snapshot(net::Network& network, Snapshots& snapshots,
                              SwitchId id) {
  auto [it, inserted] = snapshots.try_emplace(id);
  if (inserted) {
    it->second = network.sw(id).flow_stats(of::Match::any()).entries;
    std::stable_sort(it->second.begin(), it->second.end(),
                     [](const of::FlowStatsEntry& a, const of::FlowStatsEntry& b) {
                       return a.priority > b.priority;
                     });
  }
  return it->second;
}

void walk(net::Network& network, Snapshots& snapshots, const FlowCheck& flow,
          std::size_t index, VerifierReport& report) {
  auto violate = [&](VerifierViolation::Kind kind, SwitchId at,
                     std::string detail) {
    VerifierViolation v;
    v.kind = kind;
    v.flow = index;
    v.at = at;
    v.detail = std::move(detail);
    switch (kind) {
      case VerifierViolation::Kind::kBlackHole: ++report.black_holes; break;
      case VerifierViolation::Kind::kLoop: ++report.loops; break;
      case VerifierViolation::Kind::kShadowed: ++report.shadowed; break;
      case VerifierViolation::Kind::kWrongEgress: ++report.wrong_egress; break;
    }
    report.violations.push_back(std::move(v));
  };

  // The packet as the current hop sees it: after the first hop it arrives
  // on the port the link it crossed occupies.
  of::PacketHeader packet = flow.packet;
  SwitchId at = flow.ingress;
  std::set<SwitchId> visited;
  for (std::size_t hop = 0; hop <= kMaxHops; ++hop) {
    // Reaching the expected egress switch counts as delivery — path
    // installers stop one hop short of the destination, so the egress
    // switch itself may hold no rule for the flow.
    if (hop > 0 && flow.expected_egress != 0 && at == flow.expected_egress) {
      return;
    }
    if (hop == kMaxHops || !visited.insert(at).second) {
      violate(VerifierViolation::Kind::kLoop, at,
              "revisited switch " + std::to_string(at) + " after " +
                  std::to_string(hop) + " hops");
      return;
    }

    const TableSnapshot& entries = snapshot(network, snapshots, at);
    const auto* rule = resolve(entries, packet);
    if (rule == nullptr) {
      violate(VerifierViolation::Kind::kBlackHole, at, "no matching rule");
      return;
    }

    const auto want = flow.expected_cookies.find(at);
    if (want != flow.expected_cookies.end() && rule->cookie != want->second) {
      // Distinguish "our rule is shadowed by a stale higher-priority
      // leftover" from "our rule is simply gone".
      const bool intended_present =
          std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
            return e.cookie == want->second && e.match.matches(packet);
          });
      violate(intended_present ? VerifierViolation::Kind::kShadowed
                               : VerifierViolation::Kind::kBlackHole,
              at,
              intended_present
                  ? "rule with cookie " + std::to_string(want->second) +
                        " shadowed by priority " + std::to_string(rule->priority)
                  : "intended rule (cookie " + std::to_string(want->second) +
                        ") missing; matched priority " +
                        std::to_string(rule->priority));
      return;
    }

    const std::uint16_t port = of::output_port(rule->actions);
    if (port == of::kPortNone || port == of::kPortController) {
      violate(VerifierViolation::Kind::kBlackHole, at,
              port == of::kPortController
                  ? "punted to controller (priority " +
                        std::to_string(rule->priority) + ")"
                  : "matching rule has no output action");
      return;
    }
    if (!network.sw(at).port_forwarding(port)) {
      violate(VerifierViolation::Kind::kBlackHole, at,
              "output port " + std::to_string(port) + " is down");
      return;
    }

    // Map the output port back to a topology link; a port with no link is a
    // host-facing port, i.e. the packet leaves the network here. links_of
    // is in link-index order, so an aliased port resolves to its lowest
    // link.
    const net::NodeId node = net::Network::node_of(at);
    const auto& topo = network.topology();
    std::optional<std::size_t> link;
    for (const std::size_t li : topo.links_of(node)) {
      if (net::port_for_link(li) == port) {
        link = li;
        break;
      }
    }
    if (!link.has_value()) {
      if (flow.expected_egress != 0 && flow.expected_egress != at) {
        violate(VerifierViolation::Kind::kWrongEgress, at,
                "egressed at switch " + std::to_string(at) + ", expected " +
                    std::to_string(flow.expected_egress));
      }
      return;  // left the network
    }
    if (!topo.link(*link).up) {
      violate(VerifierViolation::Kind::kBlackHole, at,
              "link " + std::to_string(*link) + " is down");
      return;
    }
    const auto& l = topo.link(*link);
    at = net::Network::switch_of(l.a == node ? l.b : l.a);
    packet.in_port = net::port_for_link(*link);
  }
}

}  // namespace

VerifierReport ConsistencyVerifier::verify(const std::vector<FlowCheck>& flows) {
  VerifierReport report;
  Snapshots snapshots;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ++report.flows_checked;
    walk(network_, snapshots, flows[i], i, report);
  }
  return report;
}

}  // namespace tango::sched
