// Simulated data-plane packets.
//
// The probing engine sends packets via PACKET_OUT and receives them back via
// PACKET_IN; the payload on the wire is this fixed serialization of the
// header plus an opaque payload length (we never need payload bytes, only
// sizes, so the simulation carries lengths instead of buffers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "openflow/match.h"

namespace tango::of {

struct Packet {
  PacketHeader header;
  std::uint32_t payload_len = 64;

  bool operator==(const Packet&) const = default;

  [[nodiscard]] std::size_t total_len() const {
    return kWireHeaderLen + payload_len;
  }

  /// Serialized header size (fixed-width field dump).
  static constexpr std::size_t kWireHeaderLen = 2 + 6 + 6 + 2 + 1 + 2 + 1 + 1 + 4 + 4 + 2 + 2 + 4;

  /// Overwrite `out` with the wire form, keeping its capacity, so a caller
  /// that encodes packet after packet into one vector stops allocating.
  void encode(std::vector<std::uint8_t>& out) const;
  static Result<Packet> decode(std::span<const std::uint8_t> bytes);
};

}  // namespace tango::of
