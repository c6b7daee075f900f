// OpenFlow 1.0 actions (subset). Each struct mirrors the wire layout of the
// corresponding ofp_action_*; Action is the sum type carried in flow_mod and
// packet_out messages.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "openflow/constants.h"
#include "openflow/match.h"

namespace tango::of {

struct ActionOutput {
  std::uint16_t port = 0;
  std::uint16_t max_len = 0xffff;  // bytes to send to controller when port==CONTROLLER
  bool operator==(const ActionOutput&) const = default;
};

struct ActionSetVlanVid {
  std::uint16_t vlan_vid = 0;
  bool operator==(const ActionSetVlanVid&) const = default;
};

struct ActionStripVlan {
  bool operator==(const ActionStripVlan&) const = default;
};

struct ActionSetDlSrc {
  MacAddr addr{};
  bool operator==(const ActionSetDlSrc&) const = default;
};

struct ActionSetDlDst {
  MacAddr addr{};
  bool operator==(const ActionSetDlDst&) const = default;
};

struct ActionSetNwSrc {
  std::uint32_t addr = 0;
  bool operator==(const ActionSetNwSrc&) const = default;
};

struct ActionSetNwDst {
  std::uint32_t addr = 0;
  bool operator==(const ActionSetNwDst&) const = default;
};

using Action = std::variant<ActionOutput, ActionSetVlanVid, ActionStripVlan,
                            ActionSetDlSrc, ActionSetDlDst, ActionSetNwSrc,
                            ActionSetNwDst>;

using ActionList = std::vector<Action>;

/// Output port of the first output action, or kPortNone when the list drops.
std::uint16_t output_port(const ActionList& actions);

/// Convenience: a single "forward out port p" action list.
ActionList output_to(std::uint16_t port);

std::string to_string(const Action& action);

}  // namespace tango::of
