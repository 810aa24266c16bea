// The one ICMP codec, run once per address family: echo pairs, Time
// Exceeded / Port Unreachable with quoted datagrams, each family's
// checksum, RFC 4884 multipart MPLS extensions, and the full probe ->
// reply wire cycle. The v6 instances end in "/Ipv6", which is what the
// CI family split selects on.
#include "net/icmp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/error.h"
#include "net/checksum.h"
#include "net/packet.h"

namespace mmlpt::net {

void PrintTo(Family family, std::ostream* os) {
  *os << (family == Family::kIpv4 ? "Ipv4" : "Ipv6");
}

namespace {

class Icmp : public ::testing::TestWithParam<Family> {
 protected:
  [[nodiscard]] bool v4() const { return GetParam() == Family::kIpv4; }
  [[nodiscard]] const IcmpWire& wire() const { return icmp_wire(GetParam()); }
  [[nodiscard]] IpAddress src() const {
    return v4() ? Ipv4Address(10, 0, 0, 1)
                : IpAddress::parse_or_throw("2001:db8::1");
  }
  [[nodiscard]] IpAddress dst() const {
    return v4() ? Ipv4Address(10, 9, 9, 9)
                : IpAddress::parse_or_throw("2001:db8::2");
  }
  [[nodiscard]] IpAddress router() const {
    return v4() ? Ipv4Address(10, 0, 7, 1)
                : IpAddress::parse_or_throw("2001:db8:0:7::1");
  }
  [[nodiscard]] std::size_t ip_header_size() const {
    return v4() ? kIpv4HeaderSize : kIpv6HeaderSize;
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const IcmpMessage& message) const {
    return message.serialize(src(), dst());
  }
  [[nodiscard]] IcmpMessage parse(
      std::span<const std::uint8_t> bytes) const {
    WireReader r(bytes);
    return IcmpMessage::parse(r, src(), dst());
  }
  /// The family's checksum over `bytes`, as sent from src() to dst().
  [[nodiscard]] std::uint16_t checksum(
      std::span<const std::uint8_t> bytes) const {
    return v4() ? internet_checksum(bytes)
                : icmpv6_checksum(src(), dst(), bytes);
  }
  /// Recompute the message checksum after an edit.
  void fix_checksum(std::vector<std::uint8_t>& bytes) const {
    bytes[2] = bytes[3] = 0;
    const auto sum = checksum(bytes);
    bytes[2] = static_cast<std::uint8_t>(sum >> 8);
    bytes[3] = static_cast<std::uint8_t>(sum & 0xFF);
  }

  [[nodiscard]] ProbeSpec probe_spec() const {
    ProbeSpec spec;
    spec.src = src();
    spec.dst = dst();
    spec.src_port = 33434;
    spec.dst_port = 33434;
    spec.ttl = 2;
    spec.ip_id = v4() ? 777 : 0;
    spec.flow_label = v4() ? 0 : 0x00ABC;
    return spec;
  }
  /// A real probe's header + 8 bytes, as routers quote it.
  [[nodiscard]] std::vector<std::uint8_t> sample_quoted() const {
    const auto probe = build_udp_probe(probe_spec());
    return {probe.begin(),
            probe.begin() + static_cast<std::ptrdiff_t>(ip_header_size() + 8)};
  }
};

TEST_P(Icmp, EchoRequestRoundTrip) {
  const auto bytes = serialize(make_echo_request(0x1234, 7, 8));
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(bytes[0], v4() ? 8 : 128);  // type
  EXPECT_EQ(checksum(bytes), 0);        // self-verifying

  const auto parsed = parse(bytes);
  EXPECT_EQ(parsed.type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed.identifier, 0x1234);
  EXPECT_EQ(parsed.sequence, 7);
  EXPECT_EQ(parsed.echo_payload.size(), 8u);
}

TEST_P(Icmp, EchoReplyMirrorsRequest) {
  const auto request = parse(serialize(make_echo_request(42, 9)));
  const auto reply = make_echo_reply(request);
  EXPECT_EQ(reply.type, IcmpType::kEchoReply);
  EXPECT_EQ(reply.identifier, 42);
  EXPECT_EQ(reply.sequence, 9);
  EXPECT_EQ(reply.echo_payload, request.echo_payload);
  EXPECT_EQ(serialize(reply)[0], v4() ? 0 : 129);
}

TEST_P(Icmp, TimeExceededQuotesDatagram) {
  const auto quoted = sample_quoted();
  const auto bytes = serialize(make_time_exceeded(quoted));
  EXPECT_EQ(bytes[0], v4() ? 11 : 3);

  const auto parsed = parse(bytes);
  EXPECT_EQ(parsed.type, IcmpType::kTimeExceeded);
  EXPECT_EQ(parsed.code, kCodeTtlExceeded);
  EXPECT_TRUE(parsed.is_error());
  EXPECT_EQ(parsed.quoted, quoted);
  EXPECT_TRUE(parsed.mpls_labels.empty());
}

TEST_P(Icmp, PortUnreachable) {
  const std::vector<std::uint8_t> quoted(28, 0x11);
  const auto bytes = serialize(make_port_unreachable(GetParam(), quoted));
  EXPECT_EQ(bytes[0], v4() ? 3 : 1);
  EXPECT_EQ(bytes[1], v4() ? 3 : 4);

  const auto parsed = parse(bytes);
  EXPECT_EQ(parsed.type, IcmpType::kDestUnreachable);
  EXPECT_EQ(parsed.code, wire().port_unreachable_code);
  EXPECT_TRUE(parsed.is_error());
}

TEST_P(Icmp, MplsExtensionRoundTrip) {
  const auto quoted = sample_quoted();
  const std::vector<MplsLabelEntry> labels{{1048575, 5, false, 254},
                                           {17, 0, true, 3}};
  const auto bytes = serialize(make_time_exceeded(quoted, labels));
  // RFC 4884 length: 128 bytes in 4-byte words (v4, byte 5) or 8-byte
  // words (v6, byte 4).
  EXPECT_EQ(bytes[v4() ? 5 : 4], v4() ? 32 : 16);

  const auto parsed = parse(bytes);
  ASSERT_EQ(parsed.mpls_labels.size(), 2u);
  EXPECT_EQ(parsed.mpls_labels[0].label, 1048575u);
  EXPECT_EQ(parsed.mpls_labels[0].traffic_class, 5);
  EXPECT_FALSE(parsed.mpls_labels[0].bottom_of_stack);
  EXPECT_EQ(parsed.mpls_labels[0].ttl, 254);
  EXPECT_EQ(parsed.mpls_labels[1], labels[1]);
  // The quoted region is padded to 128 bytes when extensions are present,
  // and the parser recovers the original bytes at its head.
  ASSERT_EQ(parsed.quoted.size(), 128u);
  EXPECT_TRUE(std::equal(quoted.begin(), quoted.end(), parsed.quoted.begin()));
  EXPECT_EQ(parsed.quoted[quoted.size()], 0x00);  // padding
}

TEST_P(Icmp, ChecksumCorruptionDetected) {
  auto bytes = serialize(make_echo_request(7, 1));
  bytes[4] ^= 0x80;  // flip an identifier bit
  EXPECT_THROW((void)parse(bytes), ParseError);

  bytes = serialize(make_echo_request(7, 1));
  bytes[6] ^= 0x01;  // flip a sequence bit
  EXPECT_THROW((void)parse(bytes), ParseError);
}

TEST_P(Icmp, ChecksumCoversPseudoHeaderPerFamily) {
  // The same message bytes from other endpoints: the v6 pseudo-header
  // binds the checksum to src/dst, the v4 checksum covers the message only.
  const auto bytes = serialize(make_echo_request(7, 1));
  EXPECT_NO_THROW((void)parse(bytes));

  const auto other = v4() ? Ipv4Address(10, 0, 0, 99)
                          : IpAddress::parse_or_throw("2001:db8::dead");
  WireReader r(bytes);
  if (v4()) {
    EXPECT_NO_THROW((void)IcmpMessage::parse(r, src(), other));
  } else {
    EXPECT_THROW((void)IcmpMessage::parse(r, src(), other), ParseError);
  }
}

TEST_P(Icmp, UnsupportedTypeRejected) {
  auto bytes = serialize(make_echo_request(1, 1));
  bytes[0] = v4() ? 13 : 200;  // timestamp / private experimentation
  fix_checksum(bytes);
  EXPECT_THROW((void)parse(bytes), ParseError);

  bytes[2] = 0;  // zero checksum: skip verification, hit the type check
  bytes[3] = 0;
  EXPECT_THROW((void)parse(bytes), ParseError);
}

TEST_P(Icmp, LegacyZeroLengthQuoted) {
  // Old-style error message: length field 0, quoted runs to the end.
  const std::vector<std::uint8_t> quoted(36, 0x77);
  const auto bytes = serialize(make_time_exceeded(quoted));
  EXPECT_EQ(bytes[wire().length_octet], 0);  // no length without extensions
  EXPECT_EQ(parse(bytes).quoted.size(), 36u);
}

TEST_P(Icmp, ExtensionChecksumCorruptionDetected) {
  const std::vector<std::uint8_t> quoted(28, 0x33);
  const std::vector<MplsLabelEntry> labels{{99, 0, true, 10}};
  auto bytes = serialize(make_time_exceeded(quoted, labels));
  // The extension begins after header (8) + padded quote (128).
  const std::size_t ext = 8 + 128;
  bytes[ext + 4] ^= 0x01;  // corrupt object length
  // Fix the outer ICMP checksum so only the extension checksum fails.
  fix_checksum(bytes);
  EXPECT_THROW((void)parse(bytes), ParseError);
}

TEST_P(Icmp, FullReplyCycleThroughDatagramBuilders) {
  // probe -> Time Exceeded datagram -> parse_reply: what the engine and
  // Fakeroute do per hop, end to end.
  const auto quoted = sample_quoted();
  const auto reply = parse_reply(build_icmp_datagram(
      make_time_exceeded(quoted), router(), src(), /*ttl=*/253,
      /*ip_id=*/4242));
  EXPECT_EQ(reply.family, GetParam());
  EXPECT_EQ(reply.responder(), router());
  EXPECT_TRUE(reply.is_time_exceeded());
  EXPECT_FALSE(reply.is_port_unreachable());
  EXPECT_EQ(reply.reply_ttl(), 253);
  EXPECT_EQ(reply.reply_ip_id(), v4() ? 4242 : 0);  // v6: no such field
  EXPECT_EQ(reply.quoted_dst(), dst());
  EXPECT_EQ(reply.quoted_ip.has_value(), v4());
  EXPECT_EQ(reply.quoted_ip6.has_value(), !v4());
  EXPECT_EQ(reply.quoted_flow_label(), v4() ? 0u : 0x00ABCu);
  ASSERT_TRUE(reply.quoted_udp.has_value());
  EXPECT_EQ(reply.quoted_udp->src_port, 33434);

  // Port Unreachable marks destination arrival in either family.
  const auto unreachable = parse_reply(build_icmp_datagram(
      make_port_unreachable(GetParam(), quoted), dst(), src(), 64));
  EXPECT_TRUE(unreachable.is_port_unreachable());
  EXPECT_FALSE(unreachable.is_time_exceeded());
}

TEST_P(Icmp, EchoReplyCycleThroughDatagramBuilders) {
  const auto probe = build_echo_probe(src(), dst(), 0x4D4C, 3);
  const auto parsed_probe = parse_probe(probe);
  EXPECT_EQ(parsed_probe.family, GetParam());
  EXPECT_TRUE(parsed_probe.is_echo_request());
  EXPECT_FALSE(parsed_probe.is_udp());

  const auto reply = parse_reply(build_icmp_datagram(
      make_echo_reply(parsed_probe.icmp), dst(), src(), 64));
  EXPECT_TRUE(reply.is_echo_reply());
  EXPECT_EQ(reply.responder(), dst());
  EXPECT_EQ(reply.icmp.identifier, 0x4D4C);
  EXPECT_EQ(reply.icmp.sequence, 3);
}

INSTANTIATE_TEST_SUITE_P(Families, Icmp,
                         ::testing::Values(Family::kIpv4, Family::kIpv6),
                         [](const auto& info) {
                           return info.param == Family::kIpv4 ? "Ipv4"
                                                              : "Ipv6";
                         });

}  // namespace
}  // namespace mmlpt::net
