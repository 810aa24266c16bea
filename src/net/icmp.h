// ICMP message craft / parse for both address families: ICMPv4 (RFC 792)
// and ICMPv6 (RFC 4443) share one message format, including RFC 4884
// multipart extensions carrying an RFC 4950 MPLS label stack object. A
// message is serialized and parsed against the packet's source and
// destination addresses, whose family selects the one IcmpWire row that
// holds everything the two families do differently on the wire.
#ifndef MMLPT_NET_ICMP_H
#define MMLPT_NET_ICMP_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/ip_address.h"
#include "net/ipv4.h"  // IpProto
#include "net/wire.h"

namespace mmlpt::net {

/// The message types the tracer sends and reads, family-neutral; the
/// type number on the wire comes from IcmpWire::type_number.
enum class IcmpType : std::uint8_t {
  kEchoReply,
  kDestUnreachable,
  kEchoRequest,
  kTimeExceeded,
};

inline constexpr std::uint8_t kCodeTtlExceeded = 0;  ///< both families

/// What ICMPv4 and ICMPv6 do differently on the wire.
struct IcmpWire {
  const char* name;
  IpProto protocol;  ///< IPv4 protocol / IPv6 next header
  std::array<std::uint8_t, 4> type_number;  ///< indexed by IcmpType
  std::uint8_t port_unreachable_code;
  /// RFC 4884 length of the quoted datagram: which byte of the message
  /// holds it, and in what unit.
  std::uint8_t length_octet;
  std::uint8_t length_unit;
  bool pseudo_header_checksum;  ///< checksum covers the IPv6 pseudo-header

  [[nodiscard]] constexpr std::uint8_t number(IcmpType type) const noexcept {
    return type_number[static_cast<std::size_t>(type)];
  }
};

inline constexpr IcmpWire kIcmpv4Wire{
    "ICMP", IpProto::kIcmp, {0, 3, 8, 11}, 3, 5, 4, false};
inline constexpr IcmpWire kIcmpv6Wire{
    "ICMPv6", IpProto::kIcmpv6, {129, 1, 128, 3}, 4, 4, 8, true};

[[nodiscard]] constexpr const IcmpWire& icmp_wire(Family family) noexcept {
  return family == Family::kIpv4 ? kIcmpv4Wire : kIcmpv6Wire;
}

/// One MPLS label stack entry (RFC 4950 Sec. 3.1).
struct MplsLabelEntry {
  std::uint32_t label = 0;  ///< 20 bits
  std::uint8_t traffic_class = 0;  ///< 3 bits (EXP)
  bool bottom_of_stack = true;
  std::uint8_t ttl = 0;

  friend bool operator==(const MplsLabelEntry&,
                         const MplsLabelEntry&) = default;
};

/// An ICMP message of either family. For error messages (TimeExceeded,
/// DestUnreachable) `quoted` holds the offending datagram (IP header +
/// leading payload bytes) and `mpls_labels` any RFC 4950 stack. `code`
/// is the wire code, so it depends on the family (IcmpWire).
struct IcmpMessage {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  // Echo fields (EchoRequest / EchoReply).
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::vector<std::uint8_t> echo_payload;
  // Error-message fields.
  std::vector<std::uint8_t> quoted;
  std::vector<MplsLabelEntry> mpls_labels;

  [[nodiscard]] bool is_error() const noexcept {
    return type == IcmpType::kTimeExceeded ||
           type == IcmpType::kDestUnreachable;
  }

  /// Serialize to ICMP bytes (header + body) for a packet from `src` to
  /// `dst`, computing the family's checksum. Error messages with MPLS
  /// labels are emitted in RFC 4884 multipart form: quoted datagram
  /// zero-padded to 128 bytes, then the extension structure.
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const IpAddress& src, const IpAddress& dst) const;

  /// Parse the ICMP message of a packet from `src` to `dst` from
  /// `reader`, which should span exactly the ICMP portion of the datagram.
  /// Throws ParseError on a bad checksum (a zero checksum is not checked),
  /// an unsupported type or a malformed extension.
  [[nodiscard]] static IcmpMessage parse(WireReader& reader,
                                         const IpAddress& src,
                                         const IpAddress& dst);
};

/// Convenience constructors. Port Unreachable is the one whose code
/// depends on the family.
[[nodiscard]] IcmpMessage make_time_exceeded(
    std::span<const std::uint8_t> offending_datagram,
    std::span<const MplsLabelEntry> labels = {});
[[nodiscard]] IcmpMessage make_port_unreachable(
    Family family, std::span<const std::uint8_t> offending_datagram,
    std::span<const MplsLabelEntry> labels = {});
[[nodiscard]] IcmpMessage make_echo_request(std::uint16_t identifier,
                                            std::uint16_t sequence,
                                            std::size_t payload_bytes = 8);
[[nodiscard]] IcmpMessage make_echo_reply(const IcmpMessage& request);

}  // namespace mmlpt::net

#endif  // MMLPT_NET_ICMP_H
