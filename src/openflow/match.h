// Packet headers and OpenFlow 1.0 match structures.
//
// Match keeps the OF1.0 wildcard encoding (bit per exact field, 6-bit prefix
// counters for nw_src/nw_dst) and implements the predicates the rest of the
// system needs: packet matching, overlap and subsumption (for rule-dependency
// analysis), and the L2/L3 classification that drives TCAM width accounting.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "openflow/constants.h"

namespace tango::of {

using MacAddr = std::array<std::uint8_t, 6>;

/// Parsed header fields of a simulated data-plane packet.
struct PacketHeader {
  std::uint16_t in_port = 0;
  MacAddr dl_src{};
  MacAddr dl_dst{};
  std::uint16_t dl_vlan = 0xffff;  // OFP_VLAN_NONE
  std::uint8_t dl_vlan_pcp = 0;
  std::uint16_t dl_type = 0x0800;  // IPv4 by default
  std::uint8_t nw_tos = 0;
  std::uint8_t nw_proto = 6;       // TCP by default
  std::uint32_t nw_src = 0;
  std::uint32_t nw_dst = 0;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  bool operator==(const PacketHeader&) const = default;
};

/// Which header layers a rule constrains — drives TCAM width (Section 3 of
/// the paper: single-wide entries match only L2 or only L3; double-wide
/// entries match both and consume two TCAM slots on some switches).
enum class MatchLayer { kNone, kL2Only, kL3Only, kL2AndL3 };

struct Match {
  std::uint32_t wildcards = kWildcardAll;
  std::uint16_t in_port = 0;
  MacAddr dl_src{};
  MacAddr dl_dst{};
  std::uint16_t dl_vlan = 0;
  std::uint8_t dl_vlan_pcp = 0;
  std::uint16_t dl_type = 0;
  std::uint8_t nw_tos = 0;
  std::uint8_t nw_proto = 0;
  std::uint32_t nw_src = 0;
  std::uint32_t nw_dst = 0;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  bool operator==(const Match&) const = default;

  /// Fully wildcarded match.
  static Match any();

  /// Exact match on every field of the packet (OVS microflow style).
  static Match exact_from(const PacketHeader& pkt);

  // --- wildcard helpers ---------------------------------------------------
  [[nodiscard]] bool field_wildcarded(std::uint32_t bit) const {
    return (wildcards & bit) != 0;
  }
  /// Number of significant leading bits of nw_src (0 = fully wildcarded).
  [[nodiscard]] int nw_src_prefix_len() const;
  [[nodiscard]] int nw_dst_prefix_len() const;
  void set_nw_src_prefix(std::uint32_t addr, int prefix_len);
  void set_nw_dst_prefix(std::uint32_t addr, int prefix_len);

  // Fluent exact-field setters (clear the wildcard bit and set the value).
  Match& with_in_port(std::uint16_t v);
  Match& with_dl_src(const MacAddr& v);
  Match& with_dl_dst(const MacAddr& v);
  Match& with_dl_vlan(std::uint16_t v);
  Match& with_dl_type(std::uint16_t v);
  Match& with_nw_proto(std::uint8_t v);
  Match& with_tp_src(std::uint16_t v);
  Match& with_tp_dst(std::uint16_t v);

  // --- predicates ----------------------------------------------------------
  [[nodiscard]] bool matches(const PacketHeader& pkt) const;

  /// True if some packet could match both rules.
  [[nodiscard]] bool overlaps(const Match& other) const;

  /// True if every packet matching `other` also matches *this.
  [[nodiscard]] bool subsumes(const Match& other) const;

  [[nodiscard]] MatchLayer layer() const;

  /// True when no field is constrained.
  [[nodiscard]] bool is_wildcard_all() const;

  [[nodiscard]] std::string to_string() const;
  /// Append to_string()'s text to `out` (rule keys extend it in place).
  void append_to(std::string& out) const;
};

/// Deterministic hash for use as an exact-match (microflow) cache key.
struct PacketHeaderHash {
  std::size_t operator()(const PacketHeader& h) const;
};

/// Netmask with `prefix_len` significant leading bits (0 -> 0, >=32 -> all
/// ones). Shared by the match predicates and the tuple-space index, which
/// must mask identically for masked-key equality to coincide with matches().
std::uint32_t prefix_mask32(int prefix_len);

/// Format helpers shared by to_string() and the examples.
std::string format_ipv4(std::uint32_t addr);
std::string format_mac(const MacAddr& mac);

}  // namespace tango::of
