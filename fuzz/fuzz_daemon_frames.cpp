// Fuzz target for the mmlptd wire codec (src/daemon/protocol.*).
//
// The input is treated as a raw byte stream a client could have sent:
// decode frame after frame, dispatch every decoded frame through its
// typed decoder, and round-trip whatever decodes cleanly. The contract
// under fuzzing is the one the daemon relies on per connection:
//
//   * decode_frame either yields a frame, asks for more bytes, or
//     throws ParseError — it never crashes, hangs, or over-allocates
//     (kMaxFramePayload bounds every allocation);
//   * typed decoders reject malformed payloads with ParseError only, and
//     the two shared text codecs (decode_text, decode_job_text) re-encode
//     every payload they accept to the same bytes;
//   * encode(decode(bytes)) == the decoded frame's bytes (round-trip
//     stability for everything that was accepted).
//
// Built two ways (see fuzz/CMakeLists.txt): as a libFuzzer target under
// clang (-fsanitize=fuzzer defines MMLPT_FUZZ_LIBFUZZER), and as a
// standalone corpus replayer everywhere else so the checked-in corpus
// runs as a plain ctest under gcc too.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"
#include "daemon/protocol.h"

namespace {

using mmlpt::ParseError;
using namespace mmlpt::daemon;

void check_typed_decoders(const Frame& frame) {
  // Every decoder must either produce a value or throw ParseError; any
  // other escape (crash, std::bad_alloc from a hostile count, ...) is a
  // finding.
  try {
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::kHello:
        (void)decode_hello(frame);
        break;
      case FrameType::kJobRequest:
        (void)decode_job_request(frame);
        break;
      case FrameType::kCancel:
        (void)decode_cancel(frame);
        break;
      case FrameType::kHelloAck:
        (void)decode_hello_ack(frame);
        break;
      case FrameType::kProgress:
        (void)decode_progress(frame);
        break;
      case FrameType::kResultLine:
      case FrameType::kStopSetSummary: {
        // The shared text codecs re-encode what they accepted exactly.
        const auto decoded = decode_job_text(frame);
        const auto type = static_cast<FrameType>(frame.type);
        if (!(encode_job_text(type, decoded.job_id, decoded.text) == frame)) {
          __builtin_trap();
        }
        break;
      }
      case FrameType::kJobStatus:
        (void)decode_job_status(frame);
        break;
      case FrameType::kError:
      case FrameType::kServerStatus:
      case FrameType::kMetrics: {
        const auto type = static_cast<FrameType>(frame.type);
        if (!(encode_text(type, decode_text(frame)) == frame)) {
          __builtin_trap();
        }
        break;
      }
      default:
        break;  // kStatusRequest/kMetricsRequest carry no payload
    }
  } catch (const ParseError&) {
    // expected for malformed payloads
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view stream(reinterpret_cast<const char*>(data), size);
  std::size_t offset = 0;
  try {
    while (true) {
      const auto frame = decode_frame(stream, offset);
      if (!frame) break;  // torn tail: needs more bytes
      check_typed_decoders(*frame);
      // Round-trip: re-encoding an accepted frame must reproduce the
      // exact bytes the decoder consumed.
      const std::string encoded = encode_frame(*frame);
      std::size_t re_offset = 0;
      const auto redecoded = decode_frame(encoded, re_offset);
      if (!redecoded || !(*redecoded == *frame) ||
          re_offset != encoded.size()) {
        __builtin_trap();
      }
    }
  } catch (const ParseError&) {
    // expected: oversized length or CRC mismatch poisons the stream
  }
  return 0;
}

#ifndef MMLPT_FUZZ_LIBFUZZER
#include "replay_main.inc"
#endif
