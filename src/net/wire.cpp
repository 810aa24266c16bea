#include "net/wire.h"

#include "common/error.h"

namespace mmlpt::net {

void WireWriter::bytes(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void WireWriter::zeros(std::size_t count) {
  buffer_.insert(buffer_.end(), count, 0);
}

void WireWriter::patch_u16(std::size_t at, std::uint16_t v) {
  if (at + 2 > buffer_.size()) {
    throw ParseError("WireWriter::patch_u16 out of range");
  }
  buffer_[at] = static_cast<std::uint8_t>(v >> 8);
  buffer_[at + 1] = static_cast<std::uint8_t>(v & 0xFF);
}

void WireReader::truncated(std::size_t count) const {
  throw ParseError("truncated packet: need " + std::to_string(count) +
                   " bytes at offset " + std::to_string(offset_) + ", have " +
                   std::to_string(data_.size() - offset_));
}

std::span<const std::uint8_t> WireReader::window(std::size_t start,
                                                 std::size_t length) const {
  if (start + length > data_.size()) {
    throw ParseError("WireReader::window out of range");
  }
  return data_.subspan(start, length);
}

}  // namespace mmlpt::net
