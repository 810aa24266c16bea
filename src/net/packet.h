// High-level probe / reply packet builders and parsers. These are the wire
// functions shared by the probing engine and the Fakeroute simulator: a
// probe is a real IPv4/UDP or IPv6/UDP datagram (or ICMP(v6) echo), a
// reply a real ICMPv4 / ICMPv6 datagram, exactly as on the Internet. The
// family is sniffed from the IP version nibble, so every consumer handles
// both stacks through one surface; past the IP header, both families
// share one ICMP codec (net/icmp.h).
#ifndef MMLPT_NET_PACKET_H
#define MMLPT_NET_PACKET_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/icmp.h"
#include "net/ip_address.h"
#include "net/ipv4.h"
#include "net/ipv6.h"
#include "net/udp.h"

namespace mmlpt::net {

/// The fields per-flow load balancers hash: the classic five-tuple, plus
/// the IPv6 flow label (RFC 6438 directs v6 load balancers to hash the
/// (src, dst, flow label) 3-tuple — the label IS the Paris identifier).
struct FlowTuple {
  IpAddress src;
  IpAddress dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 17;
  std::uint32_t flow_label = 0;  ///< v6 only; always 0 on v4

  friend bool operator==(const FlowTuple&, const FlowTuple&) = default;

  /// A stable 64-bit digest of the tuple (used by simulated load balancers
  /// as the hash input; salted per router). The v4 digest is unchanged
  /// from the v4-only era, so v4 simulations reproduce bit for bit.
  [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Fields of a UDP traceroute probe we control / read back. The Paris
/// flow identifier lives in `src_port` on IPv4 and in `flow_label` on
/// IPv6 (ports stay constant there, so across flows nothing but the
/// label varies on the wire).
struct ProbeSpec {
  IpAddress src;
  IpAddress dst;
  std::uint16_t src_port = 0;      ///< v4 Paris flow identifier lives here
  std::uint16_t dst_port = 33434;  ///< classic traceroute port
  std::uint8_t ttl = 1;
  std::uint16_t ip_id = 0;         ///< v4 only; v6 has no identification
  std::uint32_t flow_label = 0;    ///< v6 Paris flow identifier
  std::uint16_t payload_bytes = 12;
};

/// Build the probe datagram (IPv4/IPv6 + UDP + zero payload), per the
/// destination's family.
[[nodiscard]] std::vector<std::uint8_t> build_udp_probe(const ProbeSpec& spec);

/// Build an ICMP(v6) echo request datagram (direct probing / ping).
[[nodiscard]] std::vector<std::uint8_t> build_echo_probe(
    const IpAddress& src, const IpAddress& dst, std::uint16_t identifier,
    std::uint16_t sequence, std::uint8_t ttl = 64, std::uint16_t ip_id = 0);

/// A probe datagram parsed back into fields (used by the simulator).
struct ParsedProbe {
  Family family = Family::kIpv4;
  Ipv4Header ip;    ///< valid when family == kIpv4
  Ipv6Header ip6;   ///< valid when family == kIpv6
  // Exactly one of the following is meaningful, per protocol():
  UdpHeader udp;     ///< UDP probe
  IcmpMessage icmp;  ///< echo request

  // ---- family-neutral accessors ----
  [[nodiscard]] IpAddress src() const noexcept {
    return family == Family::kIpv4 ? ip.src : ip6.src;
  }
  [[nodiscard]] IpAddress dst() const noexcept {
    return family == Family::kIpv4 ? ip.dst : ip6.dst;
  }
  /// TTL (v4) or hop limit (v6).
  [[nodiscard]] std::uint8_t ttl() const noexcept {
    return family == Family::kIpv4 ? ip.ttl : ip6.hop_limit;
  }
  /// IPv4 identification; 0 on v6 (no such field).
  [[nodiscard]] std::uint16_t ip_id() const noexcept {
    return family == Family::kIpv4 ? ip.identification : 0;
  }
  /// IPv6 flow label; 0 on v4 (no such field).
  [[nodiscard]] std::uint32_t flow_label() const noexcept {
    return family == Family::kIpv4 ? 0 : ip6.flow_label;
  }
  /// IPv4 protocol / IPv6 next header.
  [[nodiscard]] IpProto protocol() const noexcept {
    return family == Family::kIpv4 ? ip.protocol : ip6.next_header;
  }
  [[nodiscard]] bool is_udp() const noexcept {
    return protocol() == IpProto::kUdp;
  }
  [[nodiscard]] bool is_echo_request() const noexcept {
    return protocol() == icmp_wire(family).protocol &&
           icmp.type == IcmpType::kEchoRequest;
  }

  [[nodiscard]] FlowTuple flow() const noexcept;
};

[[nodiscard]] ParsedProbe parse_probe(std::span<const std::uint8_t> datagram);

/// An ICMP reply of either family parsed into the fields the algorithms
/// consume.
struct ParsedReply {
  Family family = Family::kIpv4;
  Ipv4Header outer;     ///< valid when family == kIpv4
  Ipv6Header outer6;    ///< valid when family == kIpv6
  IcmpMessage icmp;
  /// For error replies: the quoted probe, re-parsed (checksums not
  /// verified; routers may quote truncated datagrams). A quoted echo
  /// keeps only its identifier and sequence.
  std::optional<Ipv4Header> quoted_ip;
  std::optional<Ipv6Header> quoted_ip6;
  std::optional<UdpHeader> quoted_udp;
  std::optional<IcmpMessage> quoted_icmp;

  [[nodiscard]] IpAddress responder() const noexcept {
    return family == Family::kIpv4 ? outer.src : outer6.src;
  }
  [[nodiscard]] bool is_time_exceeded() const noexcept {
    return icmp.type == IcmpType::kTimeExceeded;
  }
  [[nodiscard]] bool is_port_unreachable() const noexcept {
    return icmp.type == IcmpType::kDestUnreachable &&
           icmp.code == icmp_wire(family).port_unreachable_code;
  }
  [[nodiscard]] bool is_echo_reply() const noexcept {
    return icmp.type == IcmpType::kEchoReply;
  }
  /// Outer-header identification (v4) — the alias-resolution IP-ID
  /// signal. 0 on v6: the field does not exist, which is why the
  /// multilevel alias stage reports "unsupported-family" there.
  [[nodiscard]] std::uint16_t reply_ip_id() const noexcept {
    return family == Family::kIpv4 ? outer.identification : 0;
  }
  /// Outer-header TTL (v4) / hop limit (v6) — fingerprint input.
  [[nodiscard]] std::uint8_t reply_ttl() const noexcept {
    return family == Family::kIpv4 ? outer.ttl : outer6.hop_limit;
  }
  [[nodiscard]] const std::vector<MplsLabelEntry>& mpls_labels()
      const noexcept {
    return icmp.mpls_labels;
  }
  /// The quoted probe's destination; nullopt when nothing is quoted.
  [[nodiscard]] std::optional<IpAddress> quoted_dst() const noexcept {
    if (quoted_ip) return quoted_ip->dst;
    if (quoted_ip6) return quoted_ip6->dst;
    return std::nullopt;
  }
  /// The quoted probe's IPv6 flow label; 0 on v4 or when nothing is
  /// quoted.
  [[nodiscard]] std::uint32_t quoted_flow_label() const noexcept {
    return quoted_ip6 ? quoted_ip6->flow_label : 0;
  }
};

[[nodiscard]] ParsedReply parse_reply(std::span<const std::uint8_t> datagram);

/// Wrap an ICMP message in the IP header of the addresses' family, from
/// `src` to `dst`. `ip_id` is the IPv4 identification; v6 has no such
/// field and ignores it.
[[nodiscard]] std::vector<std::uint8_t> build_icmp_datagram(
    const IcmpMessage& message, const IpAddress& src, const IpAddress& dst,
    std::uint8_t ttl, std::uint16_t ip_id = 0);

}  // namespace mmlpt::net

#endif  // MMLPT_NET_PACKET_H
