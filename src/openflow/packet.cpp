#include "openflow/packet.h"

#include <algorithm>

#include "common/buffer.h"

namespace tango::of {

void Packet::encode(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(kWireHeaderLen);  // one allocation at most, none once warm
  BufWriter w(out);
  w.u16(header.in_port);
  w.raw(header.dl_src);
  w.raw(header.dl_dst);
  w.u16(header.dl_vlan);
  w.u8(header.dl_vlan_pcp);
  w.u16(header.dl_type);
  w.u8(header.nw_tos);
  w.u8(header.nw_proto);
  w.u32(header.nw_src);
  w.u32(header.nw_dst);
  w.u16(header.tp_src);
  w.u16(header.tp_dst);
  w.u32(payload_len);
}

Result<Packet> Packet::decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kWireHeaderLen) return Error{"packet too short"};
  BufReader r(bytes);
  Packet p;
  p.header.in_port = r.u16();
  auto src = r.raw(6);
  auto dst = r.raw(6);
  std::copy(src.begin(), src.end(), p.header.dl_src.begin());
  std::copy(dst.begin(), dst.end(), p.header.dl_dst.begin());
  p.header.dl_vlan = r.u16();
  p.header.dl_vlan_pcp = r.u8();
  p.header.dl_type = r.u16();
  p.header.nw_tos = r.u8();
  p.header.nw_proto = r.u8();
  p.header.nw_src = r.u32();
  p.header.nw_dst = r.u32();
  p.header.tp_src = r.u16();
  p.header.tp_dst = r.u16();
  p.payload_len = r.u32();
  if (r.failed()) return Error{"truncated packet"};
  return p;
}

}  // namespace tango::of
