// IPv6 wire subsystem: the dual-stack address type, the fixed 40-byte
// header, and the Paris flow-label contract — across flows a v6 UDP
// probe varies in NOTHING but the 20-bit flow label.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "net/ipv6.h"
#include "net/packet.h"
#include "probe/engine.h"
#include "support/silent_queue.h"

namespace mmlpt::net {
namespace {

// ---------------------------------------------------------------- address

TEST(Ipv6Address, ParsesCanonicalForms) {
  const struct {
    const char* text;
    const char* canonical;
  } cases[] = {
      {"::", "::"},
      {"::1", "::1"},
      {"1::", "1::"},
      {"2001:db8::1", "2001:db8::1"},
      {"2001:DB8::1", "2001:db8::1"},  // case-insensitive input
      {"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
      {"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
      {"fe80::1:2:3:4", "fe80::1:2:3:4"},
      {"::ffff:192.0.2.7", "::ffff:c000:207"},  // embedded dotted-quad
      {"1:0:0:2:0:0:0:3", "1:0:0:2::3"},  // longest zero run compressed
      {"1:0:0:0:2:0:0:3", "1::2:0:0:3"},  // leftmost run on a tie
  };
  for (const auto& c : cases) {
    const auto parsed = IpAddress::parse(c.text);
    ASSERT_TRUE(parsed.has_value()) << c.text;
    EXPECT_TRUE(parsed->is_v6()) << c.text;
    EXPECT_EQ(parsed->to_string(), c.canonical) << c.text;
    // Canonical text round-trips to the same address.
    EXPECT_EQ(IpAddress::parse(parsed->to_string()), *parsed) << c.text;
  }
}

TEST(Ipv6Address, RejectsMalformedText) {
  for (const char* text :
       {":", ":::", "1:::2", "1::2::3", "12345::", "g::1", "1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7:8::", "::1:2:3:4:5:6:7:8",
        "2001:db8:", ":2001:db8", "1.2.3.4::", "::1.2.3", "::1.2.3.4.5",
        "2001:db8::1.2.3.4:5", ""}) {
    EXPECT_FALSE(IpAddress::parse(text).has_value()) << "'" << text << "'";
  }
  EXPECT_THROW((void)IpAddress::parse_or_throw("1:::2"), ParseError);
}

TEST(Ipv6Address, FamilyTagAndAccessors) {
  const auto v4 = IpAddress(192, 0, 2, 7);
  EXPECT_TRUE(v4.is_v4());
  EXPECT_FALSE(v4.is_v6());
  EXPECT_EQ(v4.family(), Family::kIpv4);

  const auto v6 = IpAddress::parse_or_throw("2001:db8::42");
  EXPECT_TRUE(v6.is_v6());
  EXPECT_EQ(v6.family(), Family::kIpv6);
  EXPECT_EQ(v6.hi64(), 0x20010db800000000ULL);
  EXPECT_EQ(v6.lo64(), 0x42ULL);
  EXPECT_EQ(IpAddress::v6(0x20010db800000000ULL, 0x42ULL), v6);

  EXPECT_TRUE(IpAddress::parse_or_throw("::").is_unspecified());
  EXPECT_FALSE(v6.is_unspecified());
  EXPECT_TRUE(IpAddress().is_unspecified());
}

TEST(Ipv6Address, V4AndV6NeverCompareEqual) {
  // 2001:db8::c000:207 has the same low bytes as 192.0.2.7's storage
  // prefix would suggest; the family tag keeps the spaces disjoint.
  const auto v4 = IpAddress(0x20010db8);  // v4 whose uint32 equals a v6 hi
  const auto v6 = IpAddress::parse_or_throw("2001:db8::");
  EXPECT_NE(v4, v6);
  EXPECT_LT(v4, v6);  // family tag orders v4 before v6
}

TEST(Ipv6Address, OrderingIsBytewiseWithinV6) {
  const auto a = IpAddress::parse_or_throw("2001:db8::1");
  const auto b = IpAddress::parse_or_throw("2001:db8::2");
  const auto c = IpAddress::parse_or_throw("2001:db9::");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Ipv6Address, HashSpreadsAndV4HashUnchanged) {
  // v4 hashing must equal the historical std::hash<uint32> so container
  // layouts (and anything keyed on them) survive the dual-stack refactor.
  const auto v4 = IpAddress(10, 0, 0, 1);
  EXPECT_EQ(std::hash<IpAddress>{}(v4),
            std::hash<std::uint32_t>{}(v4.value()));

  std::unordered_set<std::size_t> hashes;
  for (int i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<IpAddress>{}(
        IpAddress::v6(0x20010db800000000ULL, static_cast<std::uint64_t>(i))));
  }
  EXPECT_GT(hashes.size(), 990u);  // no mass collisions
}

// ----------------------------------------------------------------- header

TEST(Ipv6Header, SerializeParseRoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xA5;
  h.flow_label = 0xABCDE;
  h.next_header = IpProto::kUdp;
  h.hop_limit = 7;
  h.src = IpAddress::parse_or_throw("2001:db8::1");
  h.dst = IpAddress::parse_or_throw("2001:db8::2");
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  const auto bytes = h.serialize(payload);
  ASSERT_EQ(bytes.size(), kIpv6HeaderSize + 5);
  EXPECT_EQ(bytes[0] >> 4, 6);  // version nibble

  WireReader r(bytes);
  const auto parsed = Ipv6Header::parse(r);
  EXPECT_EQ(parsed.traffic_class, 0xA5);
  EXPECT_EQ(parsed.flow_label, 0xABCDEu);
  EXPECT_EQ(parsed.next_header, IpProto::kUdp);
  EXPECT_EQ(parsed.hop_limit, 7);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.payload_length, 5);
  EXPECT_EQ(r.remaining(), 5u);  // reader positioned at payload
}

TEST(Ipv6Header, RejectsWrongVersion) {
  Ipv4Header v4;
  v4.src = IpAddress(1, 1, 1, 1);
  v4.dst = IpAddress(2, 2, 2, 2);
  const auto bytes = v4.serialize({});
  WireReader r(bytes);
  EXPECT_THROW((void)Ipv6Header::parse(r), ParseError);
}

TEST(Ipv6Header, RejectsTruncated) {
  std::vector<std::uint8_t> bytes(kIpv6HeaderSize - 1, 0);
  bytes[0] = 0x60;
  WireReader r(bytes);
  EXPECT_THROW((void)Ipv6Header::parse(r), ParseError);
}

// ------------------------------------------------- Paris flow-label wire

ProbeSpec v6_spec(std::uint32_t flow_label, std::uint8_t ttl = 5) {
  ProbeSpec spec;
  spec.src = IpAddress::parse_or_throw("2001:db8::aaaa");
  spec.dst = IpAddress::parse_or_throw("2001:db8::bbbb");
  spec.src_port = 33434;
  spec.dst_port = 33434;
  spec.ttl = ttl;
  spec.flow_label = flow_label;
  return spec;
}

/// Byte indices where two equal-length datagrams differ.
std::vector<std::size_t> diff_offsets(std::span<const std::uint8_t> a,
                                      std::span<const std::uint8_t> b) {
  EXPECT_EQ(a.size(), b.size());
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) offsets.push_back(i);
  }
  return offsets;
}

TEST(ParisIpv6Wire, ProbesVaryOnlyTheFlowLabelAcrossFlows) {
  // The acceptance-criterion test: across flows, a v6 Paris probe varies
  // in NOTHING but the 20-bit flow label (bytes 1..3 of the header).
  // Ports, checksums, payload, hop limit — all byte-identical.
  const auto base = build_udp_probe(v6_spec(0x00001));
  for (const std::uint32_t label : {0x00002u, 0x00FFFu, 0xABCDEu, 0xFFFFFu}) {
    const auto other = build_udp_probe(v6_spec(label));
    const auto offsets = diff_offsets(base, other);
    ASSERT_FALSE(offsets.empty());
    for (const auto offset : offsets) {
      EXPECT_GE(offset, 1u);
      EXPECT_LE(offset, 3u);  // flow label lives in bytes 1..3
    }
    // And the differing bits decode to exactly the two labels.
    WireReader r(other);
    EXPECT_EQ(Ipv6Header::parse(r).flow_label, label);
  }
}

TEST(ParisIpv6Wire, UdpBytesIdenticalAcrossFlows) {
  // The label is outside the UDP checksum's pseudo-header, so the entire
  // transport segment is constant across flows.
  const auto a = build_udp_probe(v6_spec(0x00001));
  const auto b = build_udp_probe(v6_spec(0xFFFFF));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin() + kIpv6HeaderSize, a.end(),
                         b.begin() + kIpv6HeaderSize));
}

TEST(ParisIpv6Wire, EngineEncodesFlowIdInLabelWithConstantPorts) {
  probe::SilentQueue network;
  probe::ProbeEngine::Config config;
  config.source = IpAddress::parse_or_throw("2001:db8::aaaa");
  config.destination = IpAddress::parse_or_throw("2001:db8::bbbb");
  config.max_retries = 0;
  probe::ProbeEngine engine(network, config);
  EXPECT_EQ(engine.family(), Family::kIpv6);

  const std::vector<probe::ProbeEngine::ProbeRequest> requests = {
      {0, 5}, {1, 5}, {7, 5}, {41, 5}};
  (void)engine.probe_batch(requests);
  ASSERT_EQ(network.sent.size(), requests.size());

  std::set<std::uint32_t> labels;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto parsed = parse_probe(network.sent[i]);
    EXPECT_EQ(parsed.family, Family::kIpv6);
    EXPECT_EQ(parsed.ip6.flow_label, requests[i].flow);
    labels.insert(parsed.ip6.flow_label);
    // Ports constant at their bases — the v4 Paris fields do not move.
    EXPECT_EQ(parsed.udp.src_port, config.base_src_port);
    EXPECT_EQ(parsed.udp.dst_port, config.base_dst_port);
    // Across flows at one TTL the wire differs only in the label bytes.
    const auto offsets = diff_offsets(network.sent[0],
                                      network.sent[i]);
    for (const auto offset : offsets) {
      EXPECT_GE(offset, 1u);
      EXPECT_LE(offset, 3u);
    }
  }
  EXPECT_EQ(labels.size(), requests.size());
}

TEST(ParisIpv6Wire, FlowTupleDigestSeesTheLabel) {
  const auto a = parse_probe(build_udp_probe(v6_spec(1))).flow();
  const auto b = parse_probe(build_udp_probe(v6_spec(2))).flow();
  EXPECT_NE(a, b);
  EXPECT_NE(a.digest(), b.digest());
  // Same label, same digest: the identity is deterministic.
  const auto a2 = parse_probe(build_udp_probe(v6_spec(1))).flow();
  EXPECT_EQ(a.digest(), a2.digest());
}

TEST(ParisIpv6Wire, V4DigestUnchangedByRefactor) {
  // The v4 digest formula is load-bearing: simulated load balancers hash
  // it, so any change would silently re-route every v4 simulation.
  FlowTuple t;
  t.src = IpAddress(10, 0, 0, 1);
  t.dst = IpAddress(10, 0, 0, 2);
  t.src_port = 33434;
  t.dst_port = 33434;
  t.protocol = 17;
  // Golden value computed with the pre-dual-stack implementation.
  const std::uint64_t x =
      (std::uint64_t{t.src.value()} << 32) | t.dst.value();
  const std::uint64_t y = (std::uint64_t{t.src_port} << 32) |
                          (std::uint64_t{t.dst_port} << 16) | t.protocol;
  const auto mix = [](std::uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  EXPECT_EQ(t.digest(), mix(mix(x) ^ y));
}

}  // namespace
}  // namespace mmlpt::net
