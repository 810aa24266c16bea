#include "net/icmp.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "common/error.h"
#include "net/checksum.h"

namespace mmlpt::net {

namespace {

// RFC 4884: when extensions are appended, the quoted ("original datagram")
// region must be padded to 128 bytes (a multiple of both families' length
// units) and its length recorded in the message header.
constexpr std::size_t kPaddedQuotedSize = 128;
constexpr std::uint8_t kExtVersion = 2;
constexpr std::uint8_t kClassMpls = 1;   // RFC 4950 MPLS Label Stack Class
constexpr std::uint8_t kCTypeIncoming = 1;

void append_mpls_extension(WireWriter& w,
                           std::span<const MplsLabelEntry> labels) {
  const std::size_t ext_start = w.size();
  w.u8(kExtVersion << 4);
  w.u8(0);
  w.u16(0);  // extension checksum placeholder
  const auto object_length =
      static_cast<std::uint16_t>(4 + 4 * labels.size());
  w.u16(object_length);
  w.u8(kClassMpls);
  w.u8(kCTypeIncoming);
  for (const auto& entry : labels) {
    MMLPT_EXPECTS(entry.label < (1u << 20));
    MMLPT_EXPECTS(entry.traffic_class < 8);
    const std::uint32_t word = (entry.label << 12) |
                               (std::uint32_t{entry.traffic_class} << 9) |
                               (entry.bottom_of_stack ? (1u << 8) : 0u) |
                               entry.ttl;
    w.u32(word);
  }
  const std::uint16_t sum =
      internet_checksum(w.view().subspan(ext_start));
  w.patch_u16(ext_start + 2, sum);
}

std::vector<MplsLabelEntry> parse_mpls_extension(WireReader& reader) {
  std::vector<MplsLabelEntry> labels;
  const std::size_t ext_start = reader.offset();
  const std::uint8_t version = reader.u8() >> 4;
  if (version != kExtVersion) {
    throw ParseError("unsupported ICMP extension version " +
                     std::to_string(version));
  }
  reader.skip(1);
  const std::uint16_t ext_checksum = reader.u16();
  if (ext_checksum != 0) {
    const std::size_t ext_size = reader.remaining() + 4;
    if (internet_checksum(reader.window(ext_start, ext_size)) != 0) {
      throw ParseError("ICMP extension checksum mismatch");
    }
  }
  while (reader.remaining() >= 4) {
    const std::uint16_t object_length = reader.u16();
    const std::uint8_t class_num = reader.u8();
    const std::uint8_t c_type = reader.u8();
    if (object_length < 4) {
      throw ParseError("ICMP extension object length too small");
    }
    const std::size_t body = object_length - 4;
    if (class_num == kClassMpls && c_type == kCTypeIncoming) {
      if (body % 4 != 0) {
        throw ParseError("MPLS label stack object not 4-byte aligned");
      }
      for (std::size_t i = 0; i < body / 4; ++i) {
        const std::uint32_t word = reader.u32();
        MplsLabelEntry entry;
        entry.label = word >> 12;
        entry.traffic_class = static_cast<std::uint8_t>((word >> 9) & 0x7);
        entry.bottom_of_stack = ((word >> 8) & 0x1) != 0;
        entry.ttl = static_cast<std::uint8_t>(word & 0xFF);
        labels.push_back(entry);
      }
    } else {
      reader.skip(body);  // unknown object: skip
    }
  }
  return labels;
}

/// The family's checksum of `message`: plain (v4) or over the IPv6
/// pseudo-header (v6). 0 when `message` carries a valid checksum.
std::uint16_t checksum(const IcmpWire& wire, const IpAddress& src,
                       const IpAddress& dst,
                       std::span<const std::uint8_t> message) noexcept {
  return wire.pseudo_header_checksum ? icmpv6_checksum(src, dst, message)
                                     : internet_checksum(message);
}

}  // namespace

std::vector<std::uint8_t> IcmpMessage::serialize(const IpAddress& src,
                                                 const IpAddress& dst) const {
  MMLPT_EXPECTS(src.family() == dst.family());
  const IcmpWire& wire = icmp_wire(dst.family());
  WireWriter w(kPaddedQuotedSize + 32);
  w.u8(wire.number(type));
  w.u8(code);
  w.u16(0);  // checksum placeholder

  if (is_error()) {
    const bool multipart = !mpls_labels.empty();
    const std::size_t unit = wire.length_unit;
    const std::size_t aligned = (quoted.size() + unit - 1) / unit * unit;
    const std::size_t quoted_size =
        multipart ? std::max(aligned, kPaddedQuotedSize) : quoted.size();
    const auto length_words =
        static_cast<std::uint8_t>(multipart ? quoted_size / unit : 0);
    // Four bytes, all unused but the RFC 4884 length (0 when no extension).
    for (std::size_t at = 4; at < 8; ++at) {
      w.u8(at == wire.length_octet ? length_words : 0);
    }
    w.bytes(quoted);
    if (multipart) {
      if (quoted.size() < quoted_size) {
        w.zeros(quoted_size - quoted.size());
      }
      append_mpls_extension(w, mpls_labels);
    }
  } else {
    w.u16(identifier);
    w.u16(sequence);
    w.bytes(echo_payload);
  }

  w.patch_u16(2, checksum(wire, src, dst, w.view()));
  return std::move(w).take();
}

IcmpMessage IcmpMessage::parse(WireReader& reader, const IpAddress& src,
                               const IpAddress& dst) {
  const IcmpWire& wire = icmp_wire(dst.family());
  const std::size_t start = reader.offset();
  const std::size_t message_size = reader.remaining();
  IcmpMessage m;
  const std::uint8_t number = reader.u8();
  m.code = reader.u8();
  if (reader.u16() != 0 &&
      checksum(wire, src, dst, reader.window(start, message_size)) != 0) {
    throw ParseError(std::string(wire.name) + " checksum mismatch");
  }
  const auto found = std::find(wire.type_number.begin(),
                                wire.type_number.end(), number);
  if (found == wire.type_number.end()) {
    throw ParseError("unsupported " + std::string(wire.name) + " type " +
                     std::to_string(number));
  }
  m.type = static_cast<IcmpType>(found - wire.type_number.begin());

  if (m.is_error()) {
    const auto rest = reader.bytes(4);
    const std::uint8_t length_words = rest[wire.length_octet - 4];
    if (length_words == 0) {
      const auto all = reader.bytes(reader.remaining());
      m.quoted.assign(all.begin(), all.end());
    } else {
      const auto region =
          reader.bytes(std::size_t{length_words} * wire.length_unit);
      m.quoted.assign(region.begin(), region.end());
      if (reader.remaining() >= 4) {
        m.mpls_labels = parse_mpls_extension(reader);
      }
    }
  } else {
    m.identifier = reader.u16();
    m.sequence = reader.u16();
    const auto payload = reader.bytes(reader.remaining());
    m.echo_payload.assign(payload.begin(), payload.end());
  }
  return m;
}

IcmpMessage make_time_exceeded(std::span<const std::uint8_t> offending_datagram,
                               std::span<const MplsLabelEntry> labels) {
  IcmpMessage m;
  m.type = IcmpType::kTimeExceeded;
  m.code = kCodeTtlExceeded;
  m.quoted.assign(offending_datagram.begin(), offending_datagram.end());
  m.mpls_labels.assign(labels.begin(), labels.end());
  return m;
}

IcmpMessage make_port_unreachable(
    Family family, std::span<const std::uint8_t> offending_datagram,
    std::span<const MplsLabelEntry> labels) {
  IcmpMessage m;
  m.type = IcmpType::kDestUnreachable;
  m.code = icmp_wire(family).port_unreachable_code;
  m.quoted.assign(offending_datagram.begin(), offending_datagram.end());
  m.mpls_labels.assign(labels.begin(), labels.end());
  return m;
}

IcmpMessage make_echo_request(std::uint16_t identifier, std::uint16_t sequence,
                              std::size_t payload_bytes) {
  IcmpMessage m;
  m.type = IcmpType::kEchoRequest;
  m.code = 0;
  m.identifier = identifier;
  m.sequence = sequence;
  m.echo_payload.assign(payload_bytes, 0xA5);
  return m;
}

IcmpMessage make_echo_reply(const IcmpMessage& request) {
  MMLPT_EXPECTS(request.type == IcmpType::kEchoRequest);
  IcmpMessage m = request;
  m.type = IcmpType::kEchoReply;
  return m;
}

}  // namespace mmlpt::net
