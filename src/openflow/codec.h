// OpenFlow 1.0 binary codec: Message <-> network-byte-order wire frames.
//
// encode() always produces a frame whose length field equals the byte count;
// decode() validates version, length, and bounds and returns an error string
// for malformed input instead of crashing. FrameAssembler reassembles
// messages from a byte stream (frames may arrive split or coalesced).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "openflow/messages.h"

namespace tango::of {

std::vector<std::uint8_t> encode(const Message& msg);

/// Append the encoded frame to `out` without clearing it. Byte-identical to
/// appending encode(msg); exists so hot paths can reuse one write buffer
/// across many frames instead of allocating per message.
void encode_into(const Message& msg, std::vector<std::uint8_t>& out);

/// Append all frames back-to-back to `out` (the stream form FrameAssembler
/// consumes). Returns the number of bytes appended.
std::size_t encode_batch(std::span<const Message> msgs,
                         std::vector<std::uint8_t>& out);

Result<Message> decode(std::span<const std::uint8_t> frame);

/// Serialized length of an encoded action (wire bytes).
std::size_t wire_size(const Action& action);

/// Serialized length of a whole message, computed by running the encoder
/// over a byte counter (no allocation). Always equals encode(msg).size().
std::size_t wire_size(const Message& msg);

/// Accumulates stream bytes and yields complete frames.
class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame, or empty if none is buffered yet.
  std::vector<std::uint8_t> next_frame();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

}  // namespace tango::of
