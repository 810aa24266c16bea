#include "net/packet.h"

#include <string>

#include "common/assert.h"
#include "common/error.h"

namespace mmlpt::net {

namespace {

std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Family sniff_family(std::span<const std::uint8_t> datagram) {
  if (datagram.empty()) throw ParseError("empty datagram");
  const auto version = datagram[0] >> 4;
  if (version == 4) return Family::kIpv4;
  if (version == 6) return Family::kIpv6;
  throw ParseError("unknown IP version " + std::to_string(version));
}

/// The IP header fields the layers above read, whichever family.
struct IpFields {
  IpAddress src;
  IpAddress dst;
  IpProto protocol;
};

/// Parse the family's IP header into `v4` or `v6`.
IpFields parse_ip_header(WireReader& reader, Family family, Ipv4Header& v4,
                         Ipv6Header& v6, bool verify_checksum = true) {
  if (family == Family::kIpv4) {
    v4 = Ipv4Header::parse(reader, verify_checksum);
    return {v4.src, v4.dst, v4.protocol};
  }
  v6 = Ipv6Header::parse(reader);
  return {v6.src, v6.dst, v6.next_header};
}

/// Wrap `payload` in the IP header of the addresses' family. `ip_id` is
/// dropped on v6 (no identification field), `flow_label` on v4.
std::vector<std::uint8_t> ip_datagram(const IpAddress& src,
                                      const IpAddress& dst, IpProto protocol,
                                      std::uint8_t ttl, std::uint16_t ip_id,
                                      std::uint32_t flow_label,
                                      std::span<const std::uint8_t> payload) {
  if (dst.is_v4()) {
    Ipv4Header ip;
    ip.ttl = ttl;
    ip.protocol = protocol;
    ip.identification = ip_id;
    ip.src = src;
    ip.dst = dst;
    return ip.serialize(payload);
  }
  Ipv6Header ip6;
  ip6.hop_limit = ttl;
  ip6.next_header = protocol;
  ip6.flow_label = flow_label;
  ip6.src = src;
  ip6.dst = dst;
  return ip6.serialize(payload);
}

}  // namespace

std::uint64_t FlowTuple::digest() const noexcept {
  // splitmix64-style mix over the packed tuple; deterministic across runs.
  const std::uint64_t y = (std::uint64_t{src_port} << 32) |
                          (std::uint64_t{dst_port} << 16) | protocol;
  if (src.is_v4() && dst.is_v4()) {
    // Unchanged from the v4-only era: v4 outputs stay bit-identical.
    const std::uint64_t x = (std::uint64_t{src.value()} << 32) | dst.value();
    return mix64(mix64(x) ^ y);
  }
  // v6: fold both 128-bit addresses and the flow label into the mix.
  std::uint64_t acc = mix64(src.hi64());
  acc = mix64(acc ^ src.lo64());
  acc = mix64(acc ^ dst.hi64());
  acc = mix64(acc ^ dst.lo64());
  return mix64(acc ^ y ^ (std::uint64_t{flow_label} << 40));
}

std::vector<std::uint8_t> build_udp_probe(const ProbeSpec& spec) {
  MMLPT_EXPECTS(spec.src.family() == spec.dst.family());
  const std::vector<std::uint8_t> payload(spec.payload_bytes, 0);
  UdpHeader udp;
  udp.src_port = spec.src_port;
  udp.dst_port = spec.dst_port;
  const auto segment = udp.serialize(spec.src, spec.dst, payload);
  return ip_datagram(spec.src, spec.dst, IpProto::kUdp, spec.ttl, spec.ip_id,
                     spec.flow_label, segment);
}

std::vector<std::uint8_t> build_echo_probe(const IpAddress& src,
                                           const IpAddress& dst,
                                           std::uint16_t identifier,
                                           std::uint16_t sequence,
                                           std::uint8_t ttl,
                                           std::uint16_t ip_id) {
  return build_icmp_datagram(make_echo_request(identifier, sequence), src,
                             dst, ttl, ip_id);
}

std::vector<std::uint8_t> build_icmp_datagram(const IcmpMessage& message,
                                              const IpAddress& src,
                                              const IpAddress& dst,
                                              std::uint8_t ttl,
                                              std::uint16_t ip_id) {
  return ip_datagram(src, dst, icmp_wire(dst.family()).protocol, ttl, ip_id,
                     /*flow_label=*/0, message.serialize(src, dst));
}

FlowTuple ParsedProbe::flow() const noexcept {
  FlowTuple t;
  t.src = src();
  t.dst = dst();
  t.protocol = static_cast<std::uint8_t>(protocol());
  t.flow_label = flow_label();
  if (is_udp()) {
    t.src_port = udp.src_port;
    t.dst_port = udp.dst_port;
  } else if (protocol() == icmp_wire(family).protocol) {
    // ICMP "flow" identity: echo identifier/sequence stand in for ports,
    // mirroring how real load balancers hash ICMP (or not at all).
    t.src_port = icmp.identifier;
    t.dst_port = icmp.sequence;
  }
  return t;
}

ParsedProbe parse_probe(std::span<const std::uint8_t> datagram) {
  WireReader reader(datagram);
  ParsedProbe p;
  p.family = sniff_family(datagram);
  const IpFields ip = parse_ip_header(reader, p.family, p.ip, p.ip6);
  const IcmpWire& wire = icmp_wire(p.family);
  if (ip.protocol == IpProto::kUdp) {
    p.udp = UdpHeader::parse(reader);
  } else if (ip.protocol == wire.protocol) {
    p.icmp = IcmpMessage::parse(reader, ip.src, ip.dst);
  } else {
    throw ParseError(std::string("probe is neither UDP nor ") + wire.name);
  }
  return p;
}

ParsedReply parse_reply(std::span<const std::uint8_t> datagram) {
  WireReader reader(datagram);
  ParsedReply r;
  r.family = sniff_family(datagram);
  const IcmpWire& wire = icmp_wire(r.family);
  const IpFields outer = parse_ip_header(reader, r.family, r.outer, r.outer6);
  if (outer.protocol != wire.protocol) {
    throw ParseError(std::string("reply is not ") + wire.name);
  }
  r.icmp = IcmpMessage::parse(reader, outer.src, outer.dst);
  if (!r.icmp.is_error() || r.icmp.quoted.empty()) return r;

  // Routers may quote as little as header + 8 bytes; never verify the
  // quoted checksums (some quote with mutated fields).
  WireReader quoted(r.icmp.quoted);
  Ipv4Header quoted_ip;
  Ipv6Header quoted_ip6;
  const IpFields probe = parse_ip_header(quoted, r.family, quoted_ip,
                                         quoted_ip6, /*verify_checksum=*/false);
  if (r.family == Family::kIpv4) {
    r.quoted_ip = quoted_ip;
  } else {
    r.quoted_ip6 = quoted_ip6;
  }
  if (quoted.remaining() >= kUdpHeaderSize &&
      probe.protocol == IpProto::kUdp) {
    r.quoted_udp = UdpHeader::parse(quoted);
  } else if (quoted.remaining() >= 8 && probe.protocol == wire.protocol) {
    // Quoted echo: read the identifier and sequence past type, code and
    // checksum.
    quoted.skip(4);
    IcmpMessage echo;
    echo.identifier = quoted.u16();
    echo.sequence = quoted.u16();
    r.quoted_icmp = std::move(echo);
  }
  return r;
}

}  // namespace mmlpt::net
