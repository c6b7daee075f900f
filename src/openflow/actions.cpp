#include "openflow/actions.h"

namespace tango::of {

std::uint16_t output_port(const ActionList& actions) {
  for (const auto& a : actions) {
    if (const auto* out = std::get_if<ActionOutput>(&a)) return out->port;
  }
  return kPortNone;
}

ActionList output_to(std::uint16_t port) { return {ActionOutput{port, 0xffff}}; }

std::string to_string(const Action& action) {
  struct Visitor {
    std::string operator()(const ActionOutput& a) const {
      return "output:" + std::to_string(a.port);
    }
    std::string operator()(const ActionSetVlanVid& a) const {
      return "set_vlan:" + std::to_string(a.vlan_vid);
    }
    std::string operator()(const ActionStripVlan&) const { return "strip_vlan"; }
    std::string operator()(const ActionSetDlSrc& a) const {
      return "set_dl_src:" + format_mac(a.addr);
    }
    std::string operator()(const ActionSetDlDst& a) const {
      return "set_dl_dst:" + format_mac(a.addr);
    }
    std::string operator()(const ActionSetNwSrc& a) const {
      return "set_nw_src:" + format_ipv4(a.addr);
    }
    std::string operator()(const ActionSetNwDst& a) const {
      return "set_nw_dst:" + format_ipv4(a.addr);
    }
  };
  return std::visit(Visitor{}, action);
}

}  // namespace tango::of
