// Little-endian byte codec shared by the two length-prefixed, CRC-checked
// formats: the mmlptd frame protocol and the topology store file. The
// fixed-width accessors are inline, so a field read is one bounds check
// plus the load; only the throws are out of line. Network-byte-order
// packet fields use net::WireWriter/WireReader instead.
#ifndef MMLPT_COMMON_LE_CODEC_H
#define MMLPT_COMMON_LE_CODEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/assert.h"

namespace mmlpt {

/// CRC-32 (IEEE 802.3, reflected): the frame and store block checksum.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Appends little-endian fields to a growing byte string.
class LeWriter {
 public:
  LeWriter() = default;
  explicit LeWriter(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void bytes(std::string_view v) { out_ += v; }
  /// u32 length prefix, then the bytes.
  void string(std::string_view v) {
    MMLPT_EXPECTS(v.size() <= UINT32_MAX);
    u32(static_cast<std::uint32_t>(v.size()));
    out_ += v;
  }

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  template <class T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((std::uint64_t{v} >> (8 * i)) & 0xFF));
    }
  }

  std::string out_;
};

/// Reads little-endian fields from a byte view. A read past the end, or
/// bytes left at expect_end(), throws mmlpt::ParseError whose message
/// opens with the caller's `context` (a string literal naming the
/// format, e.g. "topology store").
class LeReader {
 public:
  LeReader(std::string_view data, const char* context)
      : data_(data), context_(context) {}

  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::string_view bytes(std::size_t count) {
    require(count);
    const auto view = data_.substr(pos_, count);
    pos_ += count;
    return view;
  }
  /// A u32 length prefix, then that many bytes.
  [[nodiscard]] std::string string() { return std::string(bytes(u32())); }

  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Throws ParseError unless every byte was read.
  void expect_end() const;

 private:
  template <class T>
  T get() {
    require(sizeof(T));
    std::uint64_t v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + i]);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }
  void require(std::size_t count) const {
    if (count > data_.size() - pos_) truncated(count);
  }
  [[noreturn]] void truncated(std::size_t count) const;

  std::string_view data_;
  const char* context_;
  std::size_t pos_ = 0;
};

}  // namespace mmlpt

#endif  // MMLPT_COMMON_LE_CODEC_H
