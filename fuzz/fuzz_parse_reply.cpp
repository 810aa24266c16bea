// Fuzz target for the reply parser (net::parse_reply, src/net/packet.*).
//
// The input is one datagram as a raw ICMP or ICMPv6 socket hands it to
// the receive loop: anyone on the path can send it. Contract under
// fuzzing:
//
//   * parse_reply either returns a reply or throws ParseError (short
//     buffer, unknown IP version, bad checksum, unsupported ICMP type,
//     malformed RFC 4884 extension); nothing else;
//   * an accepted reply answers every accessor the probing engine and
//     the reply attributor read.
//
// Built as a libFuzzer target under clang and as a standalone corpus
// replayer everywhere else — see fuzz/CMakeLists.txt.
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/error.h"
#include "net/packet.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  mmlpt::net::ParsedReply reply;
  try {
    reply = mmlpt::net::parse_reply(std::span(data, size));
  } catch (const mmlpt::ParseError&) {
    return 0;  // expected for malformed datagrams
  }
  volatile std::size_t sink = 0;
  sink = sink + reply.responder().is_v4() + reply.is_time_exceeded() +
         reply.is_port_unreachable() + reply.is_echo_reply() +
         reply.reply_ip_id() + reply.reply_ttl() +
         reply.mpls_labels().size() + reply.quoted_dst().has_value() +
         reply.quoted_flow_label() + reply.quoted_udp.has_value() +
         reply.quoted_icmp.has_value();
  return 0;
}

#ifndef MMLPT_FUZZ_LIBFUZZER
#include "replay_main.inc"
#endif
