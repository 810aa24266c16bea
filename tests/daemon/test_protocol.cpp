// Wire-protocol codec gates: round-trips for every frame kind, the
// truncation/torn-frame/oversize behaviour the daemon's robustness rests
// on, unknown-frame-type forward compatibility, handshake version
// negotiation, and a fuzz loop asserting random bytes can never crash a
// decoder (only throw ParseError).
#include <cstdint>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "daemon/protocol.h"

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

TEST(PayloadCodec, HelloRoundTrips) {
  Hello hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.tenant = "team-alpha";
  const Hello decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.min_version, 1u);
  EXPECT_EQ(decoded.max_version, 3u);
  EXPECT_EQ(decoded.tenant, "team-alpha");
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

  const ResultLine line{9, R"({"index":0,"destination":"10.0.0.1"})"};
  const auto l = decode_result_line(encode_result_line(line));
  EXPECT_EQ(l.job_id, 9u);
  EXPECT_EQ(l.line, line.line);

  const StopSetSummary summary{
      3, R"({"consulted":true,"visible_hops":10,"union_digest":"00ff"})"};
  const auto s = decode_stop_set_summary(encode_stop_set_summary(summary));
  EXPECT_EQ(s.job_id, 3u);
  EXPECT_EQ(s.text, summary.text);
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
  EXPECT_EQ(decode_cancel(encode_cancel({77})).job_id, 77u);
  EXPECT_EQ(decode_error(encode_error({"boom"})).message, "boom");
  EXPECT_EQ(decode_server_status(encode_server_status({"{\"a\":1}"})).json,
            "{\"a\":1}");
}

TEST(PayloadCodec, MetricsRequestAndMetricsRoundTrip) {
  const Frame request = encode_metrics_request();
  EXPECT_EQ(request.type,
            static_cast<std::uint8_t>(FrameType::kMetricsRequest));
  EXPECT_TRUE(request.payload.empty());
  EXPECT_EQ(round_trip(request), request);

  // A realistic multi-line Prometheus exposition, embedded quotes and
  // all, must survive the wire byte for byte.
  const std::string exposition =
      "# HELP mmlpt_transport_probes_sent_total Probes handed to the "
      "transport\n"
      "# TYPE mmlpt_transport_probes_sent_total counter\n"
      "mmlpt_transport_probes_sent_total{transport=\"poll\"} 4242\n";
  const auto decoded = decode_metrics(encode_metrics({exposition}));
  EXPECT_EQ(decoded.text, exposition);
  EXPECT_EQ(decode_metrics(encode_metrics({""})).text, "");
}

TEST(PayloadCodec, TrailingBytesAreRejected) {
  Frame frame = encode_cancel({5});
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
  const Frame original = encode_metrics(
      {"# TYPE mmlpt_admission_jobs_active gauge\n"
       "mmlpt_admission_jobs_active 3\n"});
  for (int round = 0; round < 2000; ++round) {
    Frame frame = original;
    const int flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(frame.payload.size()) - 1));
      frame.payload[pos] = static_cast<char>(rng.uniform(0, 255));
    }
    try {
      (void)decode_metrics(frame);
    } catch (const ParseError&) {
      // The only legal failure mode.
    }
  }
}

}  // namespace
}  // namespace mmlpt::daemon
