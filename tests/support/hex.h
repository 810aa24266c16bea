// Lower-case hex rendering of a byte string, for tests that pin an
// encoder's exact output as a readable literal.
#ifndef MMLPT_TESTS_SUPPORT_HEX_H
#define MMLPT_TESTS_SUPPORT_HEX_H

#include <string>
#include <string_view>

namespace mmlpt::testing {

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

}  // namespace mmlpt::testing

#endif  // MMLPT_TESTS_SUPPORT_HEX_H
