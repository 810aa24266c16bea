#include "net/packet.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mmlpt::net {
namespace {

ProbeSpec sample_spec() {
  ProbeSpec spec;
  spec.src = Ipv4Address(10, 0, 0, 1);
  spec.dst = Ipv4Address(10, 9, 9, 9);
  spec.src_port = 33500;
  spec.dst_port = 33434;
  spec.ttl = 5;
  spec.ip_id = 777;
  return spec;
}

TEST(Packet, UdpProbeRoundTrip) {
  const auto bytes = build_udp_probe(sample_spec());
  const auto parsed = parse_probe(bytes);
  EXPECT_EQ(parsed.ip.src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(parsed.ip.dst, Ipv4Address(10, 9, 9, 9));
  EXPECT_EQ(parsed.ip.ttl, 5);
  EXPECT_EQ(parsed.ip.identification, 777);
  EXPECT_EQ(parsed.udp.src_port, 33500);
  EXPECT_EQ(parsed.udp.dst_port, 33434);
}

TEST(Packet, FlowTupleFromProbe) {
  const auto parsed = parse_probe(build_udp_probe(sample_spec()));
  const auto flow = parsed.flow();
  EXPECT_EQ(flow.src_port, 33500);
  EXPECT_EQ(flow.dst_port, 33434);
  EXPECT_EQ(flow.protocol, 17);
}

TEST(Packet, FlowDigestSensitivity) {
  auto spec = sample_spec();
  const auto base = parse_probe(build_udp_probe(spec)).flow().digest();
  spec.src_port++;
  EXPECT_NE(parse_probe(build_udp_probe(spec)).flow().digest(), base);
  spec.src_port--;
  spec.ttl = 9;  // TTL must NOT affect the flow
  EXPECT_EQ(parse_probe(build_udp_probe(spec)).flow().digest(), base);
}

TEST(Packet, EchoProbeRoundTrip) {
  const auto bytes = build_echo_probe(Ipv4Address(10, 0, 0, 1),
                                      Ipv4Address(10, 2, 2, 2), 99, 3);
  const auto parsed = parse_probe(bytes);
  EXPECT_EQ(parsed.ip.protocol, IpProto::kIcmp);
  EXPECT_EQ(parsed.icmp.type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed.icmp.identifier, 99);
  EXPECT_EQ(parsed.icmp.sequence, 3);
}

TEST(Packet, TimeExceededReplyRoundTrip) {
  const auto probe = build_udp_probe(sample_spec());
  const std::span<const std::uint8_t> quoted(probe.data(),
                                             kIpv4HeaderSize + 8);
  const auto message = make_time_exceeded(quoted);
  const auto reply_bytes = build_icmp_datagram(
      message, Ipv4Address(10, 5, 5, 5), Ipv4Address(10, 0, 0, 1), 250, 4242);

  const auto reply = parse_reply(reply_bytes);
  EXPECT_TRUE(reply.is_time_exceeded());
  EXPECT_FALSE(reply.is_port_unreachable());
  EXPECT_EQ(reply.responder(), Ipv4Address(10, 5, 5, 5));
  EXPECT_EQ(reply.outer.identification, 4242);
  EXPECT_EQ(reply.outer.ttl, 250);
  ASSERT_TRUE(reply.quoted_ip.has_value());
  EXPECT_EQ(reply.quoted_ip->dst, Ipv4Address(10, 9, 9, 9));
  ASSERT_TRUE(reply.quoted_udp.has_value());
  EXPECT_EQ(reply.quoted_udp->src_port, 33500);
}

TEST(Packet, PortUnreachableFromDestination) {
  const auto probe = build_udp_probe(sample_spec());
  const auto message = make_port_unreachable(Family::kIpv4, probe);
  const auto reply_bytes = build_icmp_datagram(
      message, Ipv4Address(10, 9, 9, 9), Ipv4Address(10, 0, 0, 1), 60, 1);
  const auto reply = parse_reply(reply_bytes);
  EXPECT_TRUE(reply.is_port_unreachable());
  EXPECT_EQ(reply.responder(), Ipv4Address(10, 9, 9, 9));
}

TEST(Packet, ReplyWithMplsLabels) {
  const auto probe = build_udp_probe(sample_spec());
  const std::vector<MplsLabelEntry> labels{{1001, 0, true, 9}};
  const auto message = make_time_exceeded(probe, labels);
  const auto reply_bytes = build_icmp_datagram(
      message, Ipv4Address(10, 5, 5, 5), Ipv4Address(10, 0, 0, 1), 250, 1);
  const auto reply = parse_reply(reply_bytes);
  ASSERT_EQ(reply.icmp.mpls_labels.size(), 1u);
  EXPECT_EQ(reply.icmp.mpls_labels[0].label, 1001u);
  // Quoted datagram still parses despite the 128-byte padding.
  ASSERT_TRUE(reply.quoted_udp.has_value());
  EXPECT_EQ(reply.quoted_udp->dst_port, 33434);
}

TEST(Packet, EchoReplyParse) {
  const auto request_bytes = build_echo_probe(Ipv4Address(10, 0, 0, 1),
                                              Ipv4Address(10, 2, 2, 2), 7, 8);
  const auto request = parse_probe(request_bytes);
  const auto reply_bytes =
      build_icmp_datagram(make_echo_reply(request.icmp),
                          Ipv4Address(10, 2, 2, 2), Ipv4Address(10, 0, 0, 1),
                          61, 555);
  const auto reply = parse_reply(reply_bytes);
  EXPECT_TRUE(reply.is_echo_reply());
  EXPECT_EQ(reply.icmp.identifier, 7);
  EXPECT_EQ(reply.outer.identification, 555);
}

TEST(Packet, GarbageRejected) {
  const std::vector<std::uint8_t> garbage(10, 0xFF);
  EXPECT_THROW((void)parse_probe(garbage), ParseError);
  EXPECT_THROW((void)parse_reply(garbage), ParseError);
}

TEST(Packet, ReplyMustBeIcmp) {
  const auto probe = build_udp_probe(sample_spec());
  EXPECT_THROW((void)parse_reply(probe), ParseError);
}

}  // namespace
}  // namespace mmlpt::net
