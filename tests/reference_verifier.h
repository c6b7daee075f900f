// Reference (oracle) consistency verifier for the differential property
// suite and the verifier microbenchmark.
//
// This is ConsistencyVerifier's walk as it was before it read each switch
// once per verify() call, kept verbatim in test-land: a flow_stats(any)
// copy of the switch's table at every hop, a linear scan for the
// highest-priority matching entry (ties to the first in flow_stats order),
// and a scan over every topology link to map an output port back to its
// link. A downstream hop sees the packet with in_port set to the port of
// the link it arrived on. sched::ConsistencyVerifier must return exactly
// the report this returns for every network and flow list; see
// VerifierProperties in tests/test_properties.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "openflow/actions.h"
#include "scheduler/verifier.h"

namespace tango::sched::testing {

namespace detail {

inline const of::FlowStatsEntry* reference_resolve(
    const of::FlowStatsReply& table, const of::PacketHeader& pkt) {
  const of::FlowStatsEntry* best = nullptr;
  for (const auto& e : table.entries) {
    if (!e.match.matches(pkt)) continue;
    if (best == nullptr || e.priority > best->priority) best = &e;
  }
  return best;
}

inline void reference_walk(net::Network& network, const FlowCheck& flow,
                           std::size_t index, VerifierReport& report) {
  constexpr std::size_t kMaxHops = 64;
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

  of::PacketHeader packet = flow.packet;
  SwitchId at = flow.ingress;
  std::set<SwitchId> visited;
  for (std::size_t hop = 0; hop <= kMaxHops; ++hop) {
    if (hop > 0 && flow.expected_egress != 0 && at == flow.expected_egress) {
      return;
    }
    if (hop == kMaxHops || !visited.insert(at).second) {
      violate(VerifierViolation::Kind::kLoop, at,
              "revisited switch " + std::to_string(at) + " after " +
                  std::to_string(hop) + " hops");
      return;
    }

    const auto table = network.sw(at).flow_stats(of::Match::any());
    const auto* rule = reference_resolve(table, packet);
    if (rule == nullptr) {
      violate(VerifierViolation::Kind::kBlackHole, at, "no matching rule");
      return;
    }

    const auto want = flow.expected_cookies.find(at);
    if (want != flow.expected_cookies.end() && rule->cookie != want->second) {
      const bool intended_present = std::any_of(
          table.entries.begin(), table.entries.end(), [&](const auto& e) {
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

    const net::NodeId node = net::Network::node_of(at);
    const auto& topo = network.topology();
    std::optional<std::size_t> link;
    for (std::size_t li = 0; li < topo.link_count(); ++li) {
      const auto& l = topo.link(li);
      if ((l.a == node || l.b == node) && net::port_for_link(li) == port) {
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
      return;
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

}  // namespace detail

inline VerifierReport reference_verify(net::Network& network,
                                       const std::vector<FlowCheck>& flows) {
  VerifierReport report;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ++report.flows_checked;
    detail::reference_walk(network, flows[i], i, report);
  }
  return report;
}

/// "" when the reports are equal field for field, else the first difference.
inline std::string verifier_difference(const VerifierReport& got,
                                       const VerifierReport& want) {
  const auto count = [](const char* name, std::size_t a, std::size_t b) {
    return a == b ? std::string()
                  : std::string(name) + " " + std::to_string(a) + " vs " +
                        std::to_string(b);
  };
  for (const auto& diff :
       {count("flows_checked", got.flows_checked, want.flows_checked),
        count("black_holes", got.black_holes, want.black_holes),
        count("loops", got.loops, want.loops),
        count("shadowed", got.shadowed, want.shadowed),
        count("wrong_egress", got.wrong_egress, want.wrong_egress),
        count("violations", got.violations.size(), want.violations.size())}) {
    if (!diff.empty()) return diff;
  }
  const auto describe = [](const VerifierViolation& v) {
    return to_string(v.kind) + " flow " + std::to_string(v.flow) + " at " +
           std::to_string(v.at) + ": " + v.detail;
  };
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const std::string a = describe(got.violations[i]);
    const std::string b = describe(want.violations[i]);
    if (a != b) {
      return "violation " + std::to_string(i) + ": " + a + " vs " + b;
    }
  }
  return "";
}

}  // namespace tango::sched::testing
