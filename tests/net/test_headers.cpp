#include <gtest/gtest.h>

#include "common/error.h"
#include "net/checksum.h"
#include "net/ipv4.h"
#include "net/udp.h"

namespace mmlpt::net {
namespace {

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.identification = 0xBEEF;
  h.dont_fragment = true;
  h.ttl = 17;
  h.protocol = IpProto::kUdp;
  h.src = Ipv4Address(10, 1, 2, 3);
  h.dst = Ipv4Address(10, 4, 5, 6);
  const std::uint8_t payload[] = {1, 2, 3, 4};
  const auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), kIpv4HeaderSize + 4);

  WireReader r(bytes);
  const auto parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.tos, 0x10);
  EXPECT_EQ(parsed.identification, 0xBEEF);
  EXPECT_TRUE(parsed.dont_fragment);
  EXPECT_EQ(parsed.ttl, 17);
  EXPECT_EQ(parsed.protocol, IpProto::kUdp);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.total_length, bytes.size());
  EXPECT_EQ(r.remaining(), 4u);  // reader positioned at payload
}

TEST(Ipv4Header, ChecksumVerified) {
  Ipv4Header h;
  h.src = Ipv4Address(1, 1, 1, 1);
  h.dst = Ipv4Address(2, 2, 2, 2);
  auto bytes = h.serialize({});
  bytes[8] ^= 0xFF;  // corrupt the TTL
  WireReader r(bytes);
  EXPECT_THROW((void)Ipv4Header::parse(r), ParseError);

  WireReader lenient(bytes);
  EXPECT_NO_THROW((void)Ipv4Header::parse(lenient, false));
}

TEST(Ipv4Header, RejectsNonIpv4) {
  std::vector<std::uint8_t> bytes(20, 0);
  bytes[0] = 0x65;  // version 6
  WireReader r(bytes);
  EXPECT_THROW((void)Ipv4Header::parse(r), ParseError);
}

TEST(Ipv4Header, RejectsEveryTruncatedHeader) {
  Ipv4Header h;
  h.src = Ipv4Address(1, 1, 1, 1);
  h.dst = Ipv4Address(2, 2, 2, 2);
  const auto bytes = h.serialize({});
  ASSERT_EQ(bytes.size(), kIpv4HeaderSize);
  for (std::size_t length = 0; length < kIpv4HeaderSize; ++length) {
    const std::span<const std::uint8_t> prefix(bytes.data(), length);
    WireReader r(prefix);
    EXPECT_THROW((void)Ipv4Header::parse(r), ParseError) << length;
    WireReader lenient(prefix);
    EXPECT_THROW((void)Ipv4Header::parse(lenient, false), ParseError)
        << length;
  }
}

TEST(Ipv4Header, ParsesOptionsViaIhl) {
  Ipv4Header h;
  h.src = Ipv4Address(1, 1, 1, 1);
  h.dst = Ipv4Address(2, 2, 2, 2);
  auto bytes = h.serialize({});
  // Expand to IHL 6 (24-byte header) with a no-op option word.
  bytes[0] = 0x46;
  bytes.insert(bytes.begin() + 20, {0x01, 0x01, 0x01, 0x01});
  // Fix total length and checksum.
  bytes[2] = 0;
  bytes[3] = 24;
  bytes[10] = 0;
  bytes[11] = 0;
  const auto sum = internet_checksum({bytes.data(), 24});
  bytes[10] = static_cast<std::uint8_t>(sum >> 8);
  bytes[11] = static_cast<std::uint8_t>(sum & 0xFF);

  WireReader r(bytes);
  const auto parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.header_length, 24);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(UdpHeader, SerializeParseRoundTrip) {
  UdpHeader u;
  u.src_port = 33434;
  u.dst_port = 33435;
  const std::uint8_t payload[] = {0xAA, 0xBB};
  const auto bytes =
      u.serialize(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), payload);
  ASSERT_EQ(bytes.size(), kUdpHeaderSize + 2);

  WireReader r(bytes);
  const auto parsed = UdpHeader::parse(r);
  EXPECT_EQ(parsed.src_port, 33434);
  EXPECT_EQ(parsed.dst_port, 33435);
  EXPECT_EQ(parsed.length, bytes.size());
  EXPECT_NE(parsed.checksum, 0);
}

TEST(UdpHeader, ChecksumValidatesAgainstPseudoHeader) {
  UdpHeader u;
  u.src_port = 1000;
  u.dst_port = 2000;
  const auto bytes =
      u.serialize(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), {});
  // Recompute: zero the checksum field and verify it matches.
  auto copy = bytes;
  const std::uint16_t stored = (copy[6] << 8) | copy[7];
  copy[6] = copy[7] = 0;
  EXPECT_EQ(
      udp_checksum(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), copy),
      stored);
}

}  // namespace
}  // namespace mmlpt::net
