// Big-endian (network byte order) buffer reader and writer. The fixed-width
// field accessors are defined here so every header parse and build inlines
// them: a read is one bounds check plus the load, and only the throw on a
// short buffer (WireReader::truncated) is out of line.
#ifndef MMLPT_NET_WIRE_H
#define MMLPT_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mmlpt::net {

/// Appends network-byte-order fields to a growing byte buffer.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::size_t reserve) { buffer_.reserve(reserve); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
    buffer_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  }
  void u32(std::uint32_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> 24));
    buffer_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    buffer_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    buffer_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  }
  void bytes(std::span<const std::uint8_t> data);
  void zeros(std::size_t count);

  /// Patch a previously written 16-bit field at byte offset `at`.
  void patch_u16(std::size_t at, std::uint16_t v);

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reads network-byte-order fields from a byte span. Every read checks
/// that the bytes are there and throws mmlpt::ParseError ("truncated
/// packet: ...") when it would run past the end. A parser that reads a
/// fixed-size header can take it with one bytes() call and read the
/// fields from a WireReader over that span.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[offset_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    require(2);
    const auto v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[offset_]} << 8) | data_[offset_ + 1]);
    offset_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    require(4);
    const std::uint32_t v = (std::uint32_t{data_[offset_]} << 24) |
                            (std::uint32_t{data_[offset_ + 1]} << 16) |
                            (std::uint32_t{data_[offset_ + 2]} << 8) |
                            std::uint32_t{data_[offset_ + 3]};
    offset_ += 4;
    return v;
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t count) {
    require(count);
    const auto view = data_.subspan(offset_, count);
    offset_ += count;
    return view;
  }
  void skip(std::size_t count) {
    require(count);
    offset_ += count;
  }

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] std::span<const std::uint8_t> rest() const noexcept {
    return data_.subspan(offset_);
  }
  /// A view of the underlying data by absolute offset (bounds-checked).
  [[nodiscard]] std::span<const std::uint8_t> window(std::size_t start,
                                                     std::size_t length) const;

 private:
  void require(std::size_t count) const {
    if (count > data_.size() - offset_) truncated(count);
  }
  [[noreturn]] void truncated(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace mmlpt::net

#endif  // MMLPT_NET_WIRE_H
