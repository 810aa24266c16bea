#include "common/le_codec.h"

#include <array>

#include "common/error.h"

namespace mmlpt {

std::uint32_t crc32(std::string_view data) {
  // IEEE 802.3 reflected polynomial, bytewise table built on first use.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

void LeReader::expect_end() const {
  if (remaining() != 0) {
    throw ParseError(std::string(context_) + ": " +
                     std::to_string(remaining()) + " trailing bytes");
  }
}

void LeReader::truncated(std::size_t count) const {
  throw ParseError(std::string(context_) + ": truncated (" +
                   std::to_string(count) + " bytes wanted, " +
                   std::to_string(remaining()) + " left)");
}

}  // namespace mmlpt
