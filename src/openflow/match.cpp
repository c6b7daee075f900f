#include "openflow/match.h"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace tango::of {

std::uint32_t prefix_mask32(int prefix_len) {
  if (prefix_len <= 0) return 0;
  if (prefix_len >= 32) return 0xffffffffu;
  return ~((1u << (32 - prefix_len)) - 1);
}

namespace {

std::uint32_t prefix_mask(int prefix_len) { return prefix_mask32(prefix_len); }

int wildcard_count_to_prefix(std::uint32_t wc_bits) {
  // OF1.0 semantics: value is the number of wildcarded low-order bits,
  // >= 32 means the whole field is ignored.
  const int ignored = static_cast<int>(std::min<std::uint32_t>(wc_bits, 32));
  return 32 - ignored;
}

// Writers shared by to_string(), format_ipv4() and format_mac(); they print
// exactly what std::to_string and "%u" / "%02x" print, and return the end.

/// Room put_decimal() needs after `p`: the digits of the largest unsigned.
constexpr std::size_t kDecimalRoom = 10;

char* put_decimal(char* p, unsigned value) {
  return std::to_chars(p, p + kDecimalRoom, value).ptr;
}

char* put_ipv4(char* p, std::uint32_t addr) {
  p = put_decimal(p, (addr >> 24) & 0xff);
  *p++ = '.';
  p = put_decimal(p, (addr >> 16) & 0xff);
  *p++ = '.';
  p = put_decimal(p, (addr >> 8) & 0xff);
  *p++ = '.';
  return put_decimal(p, addr & 0xff);
}

char* put_mac(char* p, const MacAddr& mac) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < mac.size(); ++i) {
    if (i != 0) *p++ = ':';
    *p++ = kHex[mac[i] >> 4];
    *p++ = kHex[mac[i] & 0xf];
  }
  return p;
}

/// Buffers hold the longest text plus the room of a last put_decimal():
/// to_string() with every field constrained at its widest value (178
/// chars) and a dotted quad (15 chars).
constexpr std::size_t kMatchTextBuffer = 178 + kDecimalRoom;
constexpr std::size_t kIpv4TextBuffer = 15 + kDecimalRoom;

}  // namespace

Match Match::any() { return Match{}; }

Match Match::exact_from(const PacketHeader& pkt) {
  Match m;
  m.wildcards = 0;
  m.in_port = pkt.in_port;
  m.dl_src = pkt.dl_src;
  m.dl_dst = pkt.dl_dst;
  m.dl_vlan = pkt.dl_vlan;
  m.dl_vlan_pcp = pkt.dl_vlan_pcp;
  m.dl_type = pkt.dl_type;
  m.nw_tos = pkt.nw_tos;
  m.nw_proto = pkt.nw_proto;
  m.nw_src = pkt.nw_src;
  m.nw_dst = pkt.nw_dst;
  m.tp_src = pkt.tp_src;
  m.tp_dst = pkt.tp_dst;
  return m;
}

int Match::nw_src_prefix_len() const {
  return wildcard_count_to_prefix((wildcards & kWildcardNwSrcMask) >> kWildcardNwSrcShift);
}

int Match::nw_dst_prefix_len() const {
  return wildcard_count_to_prefix((wildcards & kWildcardNwDstMask) >> kWildcardNwDstShift);
}

void Match::set_nw_src_prefix(std::uint32_t addr, int prefix_len) {
  prefix_len = std::clamp(prefix_len, 0, 32);
  nw_src = addr & prefix_mask(prefix_len);
  wildcards = (wildcards & ~kWildcardNwSrcMask) |
              (static_cast<std::uint32_t>(32 - prefix_len) << kWildcardNwSrcShift);
}

void Match::set_nw_dst_prefix(std::uint32_t addr, int prefix_len) {
  prefix_len = std::clamp(prefix_len, 0, 32);
  nw_dst = addr & prefix_mask(prefix_len);
  wildcards = (wildcards & ~kWildcardNwDstMask) |
              (static_cast<std::uint32_t>(32 - prefix_len) << kWildcardNwDstShift);
}

Match& Match::with_in_port(std::uint16_t v) {
  wildcards &= ~kWildcardInPort;
  in_port = v;
  return *this;
}
Match& Match::with_dl_src(const MacAddr& v) {
  wildcards &= ~kWildcardDlSrc;
  dl_src = v;
  return *this;
}
Match& Match::with_dl_dst(const MacAddr& v) {
  wildcards &= ~kWildcardDlDst;
  dl_dst = v;
  return *this;
}
Match& Match::with_dl_vlan(std::uint16_t v) {
  wildcards &= ~kWildcardDlVlan;
  dl_vlan = v;
  return *this;
}
Match& Match::with_dl_type(std::uint16_t v) {
  wildcards &= ~kWildcardDlType;
  dl_type = v;
  return *this;
}
Match& Match::with_nw_proto(std::uint8_t v) {
  wildcards &= ~kWildcardNwProto;
  nw_proto = v;
  return *this;
}
Match& Match::with_tp_src(std::uint16_t v) {
  wildcards &= ~kWildcardTpSrc;
  tp_src = v;
  return *this;
}
Match& Match::with_tp_dst(std::uint16_t v) {
  wildcards &= ~kWildcardTpDst;
  tp_dst = v;
  return *this;
}

bool Match::matches(const PacketHeader& pkt) const {
  if (!field_wildcarded(kWildcardInPort) && in_port != pkt.in_port) return false;
  if (!field_wildcarded(kWildcardDlSrc) && dl_src != pkt.dl_src) return false;
  if (!field_wildcarded(kWildcardDlDst) && dl_dst != pkt.dl_dst) return false;
  if (!field_wildcarded(kWildcardDlVlan) && dl_vlan != pkt.dl_vlan) return false;
  if (!field_wildcarded(kWildcardDlVlanPcp) && dl_vlan_pcp != pkt.dl_vlan_pcp) return false;
  if (!field_wildcarded(kWildcardDlType) && dl_type != pkt.dl_type) return false;
  if (!field_wildcarded(kWildcardNwTos) && nw_tos != pkt.nw_tos) return false;
  if (!field_wildcarded(kWildcardNwProto) && nw_proto != pkt.nw_proto) return false;
  const std::uint32_t src_mask = prefix_mask(nw_src_prefix_len());
  if ((pkt.nw_src & src_mask) != (nw_src & src_mask)) return false;
  const std::uint32_t dst_mask = prefix_mask(nw_dst_prefix_len());
  if ((pkt.nw_dst & dst_mask) != (nw_dst & dst_mask)) return false;
  if (!field_wildcarded(kWildcardTpSrc) && tp_src != pkt.tp_src) return false;
  if (!field_wildcarded(kWildcardTpDst) && tp_dst != pkt.tp_dst) return false;
  return true;
}

namespace {

// Exact-field overlap: compatible unless both constrain the field to
// different values.
template <typename T>
bool exact_overlap(bool a_wild, const T& a, bool b_wild, const T& b) {
  return a_wild || b_wild || a == b;
}

// Exact-field subsumption: `a` subsumes `b` on this field iff `a` is
// wildcarded, or both are exact and equal.
template <typename T>
bool exact_subsumes(bool a_wild, const T& a, bool b_wild, const T& b) {
  if (a_wild) return true;
  if (b_wild) return false;
  return a == b;
}

}  // namespace

bool Match::overlaps(const Match& other) const {
  const Match& a = *this;
  const Match& b = other;
  if (!exact_overlap(a.field_wildcarded(kWildcardInPort), a.in_port,
                     b.field_wildcarded(kWildcardInPort), b.in_port)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardDlSrc), a.dl_src,
                     b.field_wildcarded(kWildcardDlSrc), b.dl_src)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardDlDst), a.dl_dst,
                     b.field_wildcarded(kWildcardDlDst), b.dl_dst)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardDlVlan), a.dl_vlan,
                     b.field_wildcarded(kWildcardDlVlan), b.dl_vlan)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardDlVlanPcp), a.dl_vlan_pcp,
                     b.field_wildcarded(kWildcardDlVlanPcp), b.dl_vlan_pcp)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardDlType), a.dl_type,
                     b.field_wildcarded(kWildcardDlType), b.dl_type)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardNwTos), a.nw_tos,
                     b.field_wildcarded(kWildcardNwTos), b.nw_tos)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardNwProto), a.nw_proto,
                     b.field_wildcarded(kWildcardNwProto), b.nw_proto)) return false;
  // Prefixes overlap iff they agree on the shorter prefix.
  {
    const int plen = std::min(a.nw_src_prefix_len(), b.nw_src_prefix_len());
    const std::uint32_t mask = prefix_mask(plen);
    if ((a.nw_src & mask) != (b.nw_src & mask)) return false;
  }
  {
    const int plen = std::min(a.nw_dst_prefix_len(), b.nw_dst_prefix_len());
    const std::uint32_t mask = prefix_mask(plen);
    if ((a.nw_dst & mask) != (b.nw_dst & mask)) return false;
  }
  if (!exact_overlap(a.field_wildcarded(kWildcardTpSrc), a.tp_src,
                     b.field_wildcarded(kWildcardTpSrc), b.tp_src)) return false;
  if (!exact_overlap(a.field_wildcarded(kWildcardTpDst), a.tp_dst,
                     b.field_wildcarded(kWildcardTpDst), b.tp_dst)) return false;
  return true;
}

bool Match::subsumes(const Match& other) const {
  const Match& a = *this;
  const Match& b = other;
  if (!exact_subsumes(a.field_wildcarded(kWildcardInPort), a.in_port,
                      b.field_wildcarded(kWildcardInPort), b.in_port)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardDlSrc), a.dl_src,
                      b.field_wildcarded(kWildcardDlSrc), b.dl_src)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardDlDst), a.dl_dst,
                      b.field_wildcarded(kWildcardDlDst), b.dl_dst)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardDlVlan), a.dl_vlan,
                      b.field_wildcarded(kWildcardDlVlan), b.dl_vlan)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardDlVlanPcp), a.dl_vlan_pcp,
                      b.field_wildcarded(kWildcardDlVlanPcp), b.dl_vlan_pcp)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardDlType), a.dl_type,
                      b.field_wildcarded(kWildcardDlType), b.dl_type)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardNwTos), a.nw_tos,
                      b.field_wildcarded(kWildcardNwTos), b.nw_tos)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardNwProto), a.nw_proto,
                      b.field_wildcarded(kWildcardNwProto), b.nw_proto)) return false;
  // a subsumes b on a prefix iff a's prefix is no longer and agrees with b.
  {
    const int pa = a.nw_src_prefix_len();
    const int pb = b.nw_src_prefix_len();
    if (pa > pb) return false;
    const std::uint32_t mask = prefix_mask(pa);
    if ((a.nw_src & mask) != (b.nw_src & mask)) return false;
  }
  {
    const int pa = a.nw_dst_prefix_len();
    const int pb = b.nw_dst_prefix_len();
    if (pa > pb) return false;
    const std::uint32_t mask = prefix_mask(pa);
    if ((a.nw_dst & mask) != (b.nw_dst & mask)) return false;
  }
  if (!exact_subsumes(a.field_wildcarded(kWildcardTpSrc), a.tp_src,
                      b.field_wildcarded(kWildcardTpSrc), b.tp_src)) return false;
  if (!exact_subsumes(a.field_wildcarded(kWildcardTpDst), a.tp_dst,
                      b.field_wildcarded(kWildcardTpDst), b.tp_dst)) return false;
  return true;
}

MatchLayer Match::layer() const {
  const bool l2 = !field_wildcarded(kWildcardDlSrc) || !field_wildcarded(kWildcardDlDst) ||
                  !field_wildcarded(kWildcardDlVlan) || !field_wildcarded(kWildcardDlVlanPcp);
  const bool l3 = nw_src_prefix_len() > 0 || nw_dst_prefix_len() > 0 ||
                  !field_wildcarded(kWildcardNwProto) || !field_wildcarded(kWildcardNwTos) ||
                  !field_wildcarded(kWildcardTpSrc) || !field_wildcarded(kWildcardTpDst);
  if (l2 && l3) return MatchLayer::kL2AndL3;
  if (l2) return MatchLayer::kL2Only;
  if (l3) return MatchLayer::kL3Only;
  return MatchLayer::kNone;
}

bool Match::is_wildcard_all() const {
  return (wildcards & kWildcardAll) == kWildcardAll &&
         nw_src_prefix_len() == 0 && nw_dst_prefix_len() == 0;
}

void Match::append_to(std::string& out) const {
  char buf[kMatchTextBuffer];
  char* p = buf;
  *p++ = '{';
  const auto field = [&p, &buf](std::string_view name) {
    if (p != buf + 1) *p++ = ',';
    p = std::copy(name.begin(), name.end(), p);
  };
  if (!field_wildcarded(kWildcardInPort)) {
    field("in_port=");
    p = put_decimal(p, in_port);
  }
  if (!field_wildcarded(kWildcardDlSrc)) {
    field("dl_src=");
    p = put_mac(p, dl_src);
  }
  if (!field_wildcarded(kWildcardDlDst)) {
    field("dl_dst=");
    p = put_mac(p, dl_dst);
  }
  if (!field_wildcarded(kWildcardDlVlan)) {
    field("vlan=");
    p = put_decimal(p, dl_vlan);
  }
  if (!field_wildcarded(kWildcardDlType)) {
    field("dl_type=");
    p = put_decimal(p, dl_type);
  }
  if (const int plen = nw_src_prefix_len(); plen > 0) {
    field("nw_src=");
    p = put_ipv4(p, nw_src);
    *p++ = '/';
    p = put_decimal(p, static_cast<unsigned>(plen));
  }
  if (const int plen = nw_dst_prefix_len(); plen > 0) {
    field("nw_dst=");
    p = put_ipv4(p, nw_dst);
    *p++ = '/';
    p = put_decimal(p, static_cast<unsigned>(plen));
  }
  if (!field_wildcarded(kWildcardNwProto)) {
    field("proto=");
    p = put_decimal(p, nw_proto);
  }
  if (!field_wildcarded(kWildcardTpSrc)) {
    field("tp_src=");
    p = put_decimal(p, tp_src);
  }
  if (!field_wildcarded(kWildcardTpDst)) {
    field("tp_dst=");
    p = put_decimal(p, tp_dst);
  }
  *p++ = '}';
  out.append(buf, p);
}

std::string Match::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::size_t PacketHeaderHash::operator()(const PacketHeader& h) const {
  // FNV-1a over the header fields.
  std::uint64_t x = 1469598103934665603ULL;
  auto mix = [&x](std::uint64_t v) {
    x ^= v;
    x *= 1099511628211ULL;
  };
  mix(h.in_port);
  for (auto b : h.dl_src) mix(b);
  for (auto b : h.dl_dst) mix(b);
  mix(h.dl_vlan);
  mix(h.dl_vlan_pcp);
  mix(h.dl_type);
  mix(h.nw_tos);
  mix(h.nw_proto);
  mix(h.nw_src);
  mix(h.nw_dst);
  mix(h.tp_src);
  mix(h.tp_dst);
  return static_cast<std::size_t>(x);
}

std::string format_ipv4(std::uint32_t addr) {
  char buf[kIpv4TextBuffer];
  return std::string(buf, put_ipv4(buf, addr));
}

std::string format_mac(const MacAddr& mac) {
  char buf[17];
  return std::string(buf, put_mac(buf, mac));
}

}  // namespace tango::of
