// Post-commit consistency verifier for transactional updates.
//
// After a transaction commits (and possibly reconciles), the verifier walks
// each affected flow through the simulated network: starting at its ingress
// switch it resolves the highest-priority matching rule, follows the output
// action across the topology, and repeats until the packet leaves the
// network. Three invariants are checked along the way:
//
//  * no black hole — every hop has a matching rule that forwards out of an
//    up port (a punt to the controller via the default route counts as a
//    black hole for an installed flow);
//  * no forwarding loop — no switch is visited twice (bounded by 64 hops
//    as a backstop for port-aliasing topologies);
//  * no shadowing — where the caller names the cookie a switch is supposed
//    to match with (the transaction's rule), a higher-priority leftover
//    with a different cookie matching first is reported.
//
// The walk reads table state through SimulatedSwitch::flow_stats() — the
// same projection the OpenFlow readback returns — without touching the
// data plane, so verification has no side effects (no microflow-cache
// warming, no counter changes) and perturbs neither channels nor timing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"
#include "openflow/match.h"
#include "openflow/packet.h"

namespace tango::sched {

/// One flow to walk through the network.
struct FlowCheck {
  SwitchId ingress = 0;
  of::PacketHeader packet;
  /// The walk must end at this switch (0 = anywhere is fine). Reaching it
  /// counts as delivery even without a matching rule there — path
  /// installers stop one hop short of the destination — and leaving the
  /// network through a host-facing port anywhere else is a wrong-egress
  /// violation.
  SwitchId expected_egress = 0;
  /// Per-switch cookie the matched rule must carry there; a mismatch where
  /// a rule with the expected cookie also matches is a shadowing violation.
  std::map<SwitchId, std::uint64_t> expected_cookies;
};

struct VerifierViolation {
  enum class Kind { kBlackHole, kLoop, kShadowed, kWrongEgress };
  Kind kind = Kind::kBlackHole;
  /// Index into the FlowCheck list handed to verify().
  std::size_t flow = 0;
  SwitchId at = 0;
  std::string detail;
};

std::string to_string(VerifierViolation::Kind kind);

struct VerifierReport {
  std::size_t flows_checked = 0;
  std::size_t black_holes = 0;
  std::size_t loops = 0;
  std::size_t shadowed = 0;
  std::size_t wrong_egress = 0;
  std::vector<VerifierViolation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
};

class ConsistencyVerifier {
 public:
  explicit ConsistencyVerifier(net::Network& network) : network_(network) {}

  VerifierReport verify(const std::vector<FlowCheck>& flows);

 private:
  void walk(const FlowCheck& flow, std::size_t index, VerifierReport& report);

  net::Network& network_;
};

}  // namespace tango::sched
