// Wire-protocol codec gates: round-trips for every frame kind, the
// truncation/torn-frame/oversize behaviour the daemon's robustness rests
// on, unknown-frame-type forward compatibility, handshake version
// negotiation, and a fuzz loop asserting random bytes can never crash a
// decoder (only throw ParseError).
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "daemon/protocol.h"
#include "support/hex.h"

namespace mmlpt::daemon {
namespace {

Frame round_trip(const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  std::size_t offset = 0;
  const auto decoded = decode_frame(bytes, offset);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_EQ(offset, bytes.size());
  return *decoded;
}

FleetJobSpec sample_spec() {
  FleetJobSpec spec;
  spec.labels = {"198.51.100.7", "203.0.113.9"};
  spec.routes = 77;  // ignored while labels is non-empty
  spec.algorithm = core::Algorithm::kMda;
  spec.family = net::Family::kIpv6;
  spec.seed = 424242;
  spec.distinct = 17;
  spec.shared_prefix = 3;
  spec.window = 4;
  return spec;
}

TEST(FrameCodec, RoundTripsFrameHeaderAndPayload) {
  const Frame frame{static_cast<std::uint8_t>(FrameType::kResultLine),
                    std::string("hello\x00world", 11)};
  const Frame decoded = round_trip(frame);
  EXPECT_EQ(decoded, frame);
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const Frame frame{static_cast<std::uint8_t>(FrameType::kStatusRequest), ""};
  EXPECT_EQ(round_trip(frame), frame);
}

TEST(FrameCodec, TruncatedFrameMeansNeedMoreBytesNeverGarbage) {
  const std::string bytes = encode_frame(
      {static_cast<std::uint8_t>(FrameType::kProgress), "payload-bytes"});
  // EVERY proper prefix must decode as incomplete, without advancing.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::size_t offset = 0;
    const auto decoded = decode_frame(bytes.substr(0, cut), offset);
    EXPECT_FALSE(decoded.has_value()) << "prefix length " << cut;
    EXPECT_EQ(offset, 0u) << "prefix length " << cut;
  }
}

TEST(FrameCodec, TornPayloadIsAParseError) {
  std::string bytes = encode_frame(
      {static_cast<std::uint8_t>(FrameType::kResultLine), "payload"});
  bytes[bytes.size() - 3] ^= 0x01;  // flip one payload bit: CRC mismatch
  std::size_t offset = 0;
  EXPECT_THROW((void)decode_frame(bytes, offset), ParseError);
}

TEST(FrameCodec, TornHeaderCrcIsAParseError) {
  std::string bytes = encode_frame(
      {static_cast<std::uint8_t>(FrameType::kResultLine), "payload"});
  bytes[5] ^= 0x40;  // corrupt the stored CRC itself
  std::size_t offset = 0;
  EXPECT_THROW((void)decode_frame(bytes, offset), ParseError);
}

TEST(FrameCodec, OversizedLengthRejectedWithoutWaitingForPayload) {
  // A corrupt length prefix claiming 64 MiB must be refused from the
  // header alone — the daemon must not buffer toward it.
  std::string bytes;
  const std::uint32_t huge = 64u << 20;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  bytes.push_back(static_cast<char>(FrameType::kResultLine));
  bytes.append(4, '\0');  // CRC field present, payload absent
  std::size_t offset = 0;
  EXPECT_THROW((void)decode_frame(bytes, offset), ParseError);
}

TEST(FrameCodec, DecodesBackToBackFramesFromOneBuffer) {
  const Frame first{static_cast<std::uint8_t>(FrameType::kProgress), "one"};
  const Frame second{static_cast<std::uint8_t>(FrameType::kError), "two"};
  const std::string bytes = encode_frame(first) + encode_frame(second);
  std::size_t offset = 0;
  EXPECT_EQ(*decode_frame(bytes, offset), first);
  EXPECT_EQ(*decode_frame(bytes, offset), second);
  EXPECT_EQ(offset, bytes.size());
  EXPECT_FALSE(decode_frame(bytes, offset).has_value());
}

TEST(FrameCodec, UnknownFrameTypeDecodesCleanlyForSkipping) {
  // Receivers skip unknown types; the codec must deliver them intact so
  // the protocol can grow frame kinds without a version bump.
  const Frame unknown{0x7F, "future-frame-kind"};
  EXPECT_FALSE(is_known_frame_type(0x7F));
  EXPECT_EQ(round_trip(unknown), unknown);
}

TEST(FrameCodec, KnownFrameTypesAreKnown) {
  for (const auto type :
       {FrameType::kHello, FrameType::kJobRequest, FrameType::kCancel,
        FrameType::kStatusRequest, FrameType::kMetricsRequest,
        FrameType::kHelloAck, FrameType::kProgress, FrameType::kResultLine,
        FrameType::kStopSetSummary, FrameType::kJobStatus, FrameType::kError,
        FrameType::kServerStatus, FrameType::kMetrics}) {
    EXPECT_TRUE(is_known_frame_type(static_cast<std::uint8_t>(type)));
  }
  EXPECT_FALSE(is_known_frame_type(0));
  EXPECT_FALSE(is_known_frame_type(255));
}

TEST(GoldenBytes, EveryFrameKindKeepsItsWireEncoding) {
  // One whole encoded frame (length, type, CRC, payload) per frame
  // kind. Round trips cannot see an encoder and decoder that drift
  // together; these literals pin the bytes deployed peers exchange.
  Hello hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.tenant = "team-alpha";
  const std::pair<Frame, std::string_view> golden[] = {
      {encode_hello(hello),
       "1a00000001d56c335e4d4c504401000000030000000a000000746561"
       "6d2d616c706861"},
      {encode_job_request({981234, sample_spec()}),
       "4d00000002ecc116e5f2f80e000000000006004d0000000000000032"
       "7906000000000011000000000000000300000004000000020000000c"
       "0000003139382e35312e3130302e370b0000003230332e302e313133"
       "2e39"},
      {encode_cancel(77), "08000000035508bad74d00000000000000"},
      {{static_cast<std::uint8_t>(FrameType::kStatusRequest), ""},
       "000000000400000000"},
      {{static_cast<std::uint8_t>(FrameType::kMetricsRequest), ""},
       "000000000500000000"},
      {encode_hello_ack(1), "040000001079b8f89901000000"},
      {encode_progress({7, 12, 64, 5000}),
       "20000000111f0b02e207000000000000000c00000000000000400000"
       "00000000008813000000000000"},
      {encode_job_text(FrameType::kResultLine, 9, R"({"index":0})"),
       "1700000012f4c9c3a809000000000000000b0000007b22696e646578"
       "223a307d"},
      {encode_job_text(FrameType::kStopSetSummary, 3,
                       R"({"consulted":true})"),
       "1e00000013720f16440300000000000000120000007b22636f6e7375"
       "6c746564223a747275657d"},
      {encode_job_status({11, JobOutcome::kCanceled, "because", 42, 4242}),
       "24000000149a55eb150b000000000000000207000000626563617573"
       "652a000000000000009210000000000000"},
      {encode_text(FrameType::kError, "boom"),
       "08000000158b08aae204000000626f6f6d"},
      {encode_text(FrameType::kServerStatus, R"({"a":1})"),
       "0b00000016bed7cb89070000007b2261223a317d"},
      {encode_text(FrameType::kMetrics, "m 1\n"),
       "08000000170156e136040000006d20310a"},
  };
  std::set<std::uint8_t> covered;
  for (const auto& [frame, bytes] : golden) {
    EXPECT_EQ(testing::to_hex(encode_frame(frame)), bytes)
        << "frame type " << static_cast<int>(frame.type);
    covered.insert(frame.type);
  }
  for (int type = 0; type < 256; ++type) {
    EXPECT_EQ(covered.count(static_cast<std::uint8_t>(type)) == 1,
              is_known_frame_type(static_cast<std::uint8_t>(type)))
        << "frame type " << type;
  }
}

TEST(PayloadCodec, HelloRoundTrips) {
  Hello hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.tenant = "team-alpha";
  const Hello decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.min_version, 1u);
  EXPECT_EQ(decoded.max_version, 3u);
  EXPECT_EQ(decoded.tenant, "team-alpha");
  EXPECT_EQ(decode_hello_ack(encode_hello_ack(kProtocolVersion)),
            kProtocolVersion);
}

TEST(PayloadCodec, HelloMagicMismatchIsAParseError) {
  Frame frame = encode_hello({});
  frame.payload[0] ^= 0x01;  // not "MLPD" anymore
  EXPECT_THROW((void)decode_hello(frame), ParseError);
}

TEST(PayloadCodec, JobRequestRoundTripsEveryField) {
  const JobRequest request{981234, sample_spec()};
  const JobRequest decoded = decode_job_request(encode_job_request(request));
  EXPECT_EQ(decoded.job_id, request.job_id);
  EXPECT_EQ(decoded.spec, request.spec);
}

TEST(PayloadCodec, JobRequestRejectsBadEnums) {
  Frame frame = encode_job_request({1, sample_spec()});
  // The family byte lives right after the u64 job id.
  frame.payload[8] = 7;
  EXPECT_THROW((void)decode_job_request(frame), ParseError);
}

TEST(PayloadCodec, ProgressAndResultLineAndSummaryRoundTrip) {
  const Progress progress{7, 12, 64, 5000};
  const auto p = decode_progress(encode_progress(progress));
  EXPECT_EQ(p.job_id, 7u);
  EXPECT_EQ(p.completed, 12u);
  EXPECT_EQ(p.total, 64u);
  EXPECT_EQ(p.packets, 5000u);

  const std::string line = R"({"index":0,"destination":"10.0.0.1"})";
  const auto l =
      decode_job_text(encode_job_text(FrameType::kResultLine, 9, line));
  EXPECT_EQ(l.job_id, 9u);
  EXPECT_EQ(l.text, line);

  const std::string summary =
      R"({"consulted":true,"visible_hops":10,"union_digest":"00ff"})";
  const Frame summary_frame =
      encode_job_text(FrameType::kStopSetSummary, 3, summary);
  EXPECT_EQ(summary_frame.type,
            static_cast<std::uint8_t>(FrameType::kStopSetSummary));
  const auto s = decode_job_text(summary_frame);
  EXPECT_EQ(s.job_id, 3u);
  EXPECT_EQ(s.text, summary);
}

TEST(PayloadCodec, JobStatusRoundTripsEveryOutcome) {
  for (const auto outcome : {JobOutcome::kOk, JobOutcome::kRejected,
                             JobOutcome::kCanceled, JobOutcome::kFailed}) {
    const JobStatus status{11, outcome, "because", 42, 4242};
    const auto decoded = decode_job_status(encode_job_status(status));
    EXPECT_EQ(decoded.outcome, outcome);
    EXPECT_EQ(decoded.job_id, 11u);
    EXPECT_EQ(decoded.message, "because");
    EXPECT_EQ(decoded.lines, 42u);
    EXPECT_EQ(decoded.packets, 4242u);
  }
}

TEST(PayloadCodec, CancelErrorServerStatusRoundTrip) {
  EXPECT_EQ(decode_cancel(encode_cancel(77)), 77u);
  EXPECT_EQ(decode_text(encode_text(FrameType::kError, "boom")), "boom");
  EXPECT_EQ(decode_text(encode_text(FrameType::kServerStatus, "{\"a\":1}")),
            "{\"a\":1}");
}

TEST(PayloadCodec, MetricsRequestAndMetricsRoundTrip) {
  const Frame request{static_cast<std::uint8_t>(FrameType::kMetricsRequest),
                      ""};
  EXPECT_EQ(round_trip(request), request);

  // A realistic multi-line Prometheus exposition, embedded quotes and
  // all, must survive the wire byte for byte.
  const std::string exposition =
      "# HELP mmlpt_transport_probes_sent_total Probes handed to the "
      "transport\n"
      "# TYPE mmlpt_transport_probes_sent_total counter\n"
      "mmlpt_transport_probes_sent_total{transport=\"poll\"} 4242\n";
  EXPECT_EQ(decode_text(encode_text(FrameType::kMetrics, exposition)),
            exposition);
  EXPECT_EQ(decode_text(encode_text(FrameType::kMetrics, "")), "");
}

TEST(PayloadCodec, TextCodecsAcceptOnlyTheirKinds) {
  // The two shared text codecs are keyed by frame type: each decodes
  // only its own kinds and refuses to encode any other.
  const Frame line = encode_job_text(FrameType::kResultLine, 1, "x");
  const Frame error = encode_text(FrameType::kError, "x");
  EXPECT_THROW((void)decode_text(line), ParseError);
  EXPECT_THROW((void)decode_job_text(error), ParseError);
  EXPECT_THROW((void)decode_text(encode_cancel(1)), ParseError);
  EXPECT_THROW((void)encode_text(FrameType::kResultLine, "x"),
               ContractViolation);
  EXPECT_THROW((void)encode_job_text(FrameType::kMetrics, 1, "x"),
               ContractViolation);
}

TEST(PayloadCodec, TrailingBytesAreRejected) {
  Frame frame = encode_cancel(5);
  frame.payload += '\0';  // smuggled byte past the schema
  EXPECT_THROW((void)decode_cancel(frame), ParseError);
}

TEST(Handshake, NegotiatesTheCommonVersion) {
  Hello hello;
  hello.min_version = 1;
  hello.max_version = 9;
  const auto version = negotiate_version(hello);
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(*version, kProtocolVersion);
}

TEST(Handshake, RefusesDisjointVersionRanges) {
  Hello future;
  future.min_version = kProtocolVersion + 1;
  future.max_version = kProtocolVersion + 5;
  EXPECT_FALSE(negotiate_version(future).has_value());

  Hello ancient;
  ancient.min_version = 0;
  ancient.max_version = 0;
  EXPECT_FALSE(negotiate_version(ancient).has_value());

  Hello inverted;
  inverted.min_version = 3;
  inverted.max_version = 1;
  EXPECT_FALSE(negotiate_version(inverted).has_value());
}

TEST(FrameCodecFuzz, RandomBytesNeverCrashTheFrameDecoder) {
  Rng rng(20260807);
  for (int round = 0; round < 2000; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform(0, 64));
    std::string bytes;
    bytes.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    std::size_t offset = 0;
    try {
      while (decode_frame(bytes, offset).has_value()) {
      }
    } catch (const ParseError&) {
      // The only legal failure mode.
    }
    EXPECT_LE(offset, bytes.size());
  }
}

TEST(FrameCodecFuzz, CorruptedRealFramesNeverCrashThePayloadDecoders) {
  Rng rng(7);
  const Frame original = encode_job_request({123, sample_spec()});
  for (int round = 0; round < 2000; ++round) {
    Frame frame = original;
    // Corrupt 1-4 payload bytes, then decode: either a valid JobRequest
    // (the corruption hit don't-care bits) or ParseError — never a crash.
    const int flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(frame.payload.size()) - 1));
      frame.payload[pos] =
          static_cast<char>(rng.uniform(0, 255));
    }
    try {
      (void)decode_job_request(frame);
    } catch (const ParseError&) {
    }
  }
}

TEST(FrameCodecFuzz, CorruptedMetricsFramesNeverCrashTheDecoder) {
  Rng rng(20260807);
  const Frame original =
      encode_text(FrameType::kMetrics,
                  "# TYPE mmlpt_admission_jobs_active gauge\n"
                  "mmlpt_admission_jobs_active 3\n");
  for (int round = 0; round < 2000; ++round) {
    Frame frame = original;
    const int flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(frame.payload.size()) - 1));
      frame.payload[pos] = static_cast<char>(rng.uniform(0, 255));
    }
    try {
      (void)decode_text(frame);
    } catch (const ParseError&) {
      // The only legal failure mode.
    }
  }
}

}  // namespace
}  // namespace mmlpt::daemon
