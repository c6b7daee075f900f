// Big-endian (network byte order) byte buffer writer/reader used by the
// OpenFlow wire codec. Bounds-checked: reads past the end set an error flag
// instead of invoking undefined behaviour, so malformed frames are rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace tango {

class BufWriter {
 public:
  /// Appends to the caller's `out`, starting at its current end. Offsets
  /// (size(), patch_u16()) are relative to that starting point, so codec
  /// code is oblivious to whether it writes a fresh frame or appends one to
  /// a batch buffer.
  explicit BufWriter(std::vector<std::uint8_t>& out)
      : out_(&out), base_(out.size()) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) {
    out_->push_back(static_cast<std::uint8_t>(v >> 8));
    out_->push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    out_->insert(out_->end(), data.begin(), data.end());
  }
  void zeros(std::size_t n) { out_->insert(out_->end(), n, 0); }

  /// Overwrite a previously written big-endian u16 at `offset` (for length
  /// fields that are only known once the body has been written). Relative
  /// to this writer's first byte, not the start of `out`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    (*out_)[base_ + offset] = static_cast<std::uint8_t>(v >> 8);
    (*out_)[base_ + offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Bytes written through this writer (excludes bytes `out` held before).
  [[nodiscard]] std::size_t size() const { return out_->size() - base_; }

 private:
  std::vector<std::uint8_t>* out_;
  std::size_t base_ = 0;
};

class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return ok(1) ? data_[pos_++] : fail(); }
  std::uint16_t u16() {
    if (!ok(2)) return fail();
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const auto hi = static_cast<std::uint32_t>(u16());
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    const auto hi = static_cast<std::uint64_t>(u32());
    return (hi << 32) | u32();
  }
  void skip(std::size_t n) {
    if (ok(n)) pos_ += n; else fail();
  }
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (!ok(n)) { fail(); return {}; }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  bool ok(std::size_t n) const { return !failed_ && pos_ + n <= data_.size(); }
  std::uint8_t fail() {
    failed_ = true;
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace tango
