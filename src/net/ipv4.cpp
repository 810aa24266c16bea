#include "net/ipv4.h"

#include "common/assert.h"
#include "common/error.h"
#include "net/checksum.h"

namespace mmlpt::net {

std::vector<std::uint8_t> Ipv4Header::serialize(
    std::span<const std::uint8_t> payload) const {
  MMLPT_EXPECTS(src.is_v4() && dst.is_v4());
  WireWriter w(kIpv4HeaderSize + payload.size());
  const auto total =
      total_length != 0
          ? total_length
          : static_cast<std::uint16_t>(kIpv4HeaderSize + payload.size());
  w.u8(0x45);  // version 4, IHL 5
  w.u8(tos);
  w.u16(total);
  w.u16(identification);
  w.u16(dont_fragment ? 0x4000 : 0x0000);
  w.u8(ttl);
  w.u8(static_cast<std::uint8_t>(protocol));
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());
  const std::uint16_t sum = internet_checksum(w.view());
  w.patch_u16(10, sum);
  w.bytes(payload);
  return std::move(w).take();
}

Ipv4Header Ipv4Header::parse(WireReader& reader, bool verify_checksum) {
  const std::size_t start = reader.offset();
  const std::uint8_t version_ihl = reader.u8();
  if ((version_ihl >> 4) != 4) {
    throw ParseError("not an IPv4 packet (version " +
                     std::to_string(version_ihl >> 4) + ")");
  }
  const std::size_t ihl = (version_ihl & 0x0F) * std::size_t{4};
  if (ihl < kIpv4HeaderSize) {
    throw ParseError("IPv4 IHL too small: " + std::to_string(ihl));
  }

  // One bounds check for the rest of the fixed header; the field reads
  // below are over a span whose size the compiler knows.
  WireReader fixed(reader.bytes(kIpv4HeaderSize - 1));
  Ipv4Header h;
  h.header_length = static_cast<std::uint8_t>(ihl);
  h.tos = fixed.u8();
  h.total_length = fixed.u16();
  h.identification = fixed.u16();
  const std::uint16_t flags_frag = fixed.u16();
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.ttl = fixed.u8();
  h.protocol = static_cast<IpProto>(fixed.u8());
  h.checksum = fixed.u16();
  h.src = Ipv4Address(fixed.u32());
  h.dst = Ipv4Address(fixed.u32());
  if (ihl > kIpv4HeaderSize) {
    reader.skip(ihl - kIpv4HeaderSize);  // options
  }

  if (verify_checksum) {
    // Summing the header bytes including the stored checksum must fold to 0.
    if (internet_checksum(reader.window(start, ihl)) != 0) {
      throw ParseError("IPv4 header checksum mismatch");
    }
  }
  return h;
}

}  // namespace mmlpt::net
