#include "daemon/protocol.h"

#include <algorithm>
#include <initializer_list>

#include "common/assert.h"
#include "common/le_codec.h"

namespace mmlpt::daemon {
namespace {

using FrameKinds = std::initializer_list<FrameType>;
constexpr FrameKinds kTextFrames = {
    FrameType::kError, FrameType::kServerStatus, FrameType::kMetrics};
constexpr FrameKinds kJobTextFrames = {FrameType::kResultLine,
                                       FrameType::kStopSetSummary};

bool is_one_of(FrameType type, FrameKinds kinds) {
  return std::ranges::find(kinds, type) != kinds.end();
}

/// A reader over `frame`'s payload, whose type must be one of `kinds`.
[[nodiscard]] LeReader reader_for(const Frame& frame, FrameKinds kinds) {
  if (!is_one_of(static_cast<FrameType>(frame.type), kinds)) {
    throw ParseError("frame type mismatch: got " +
                     std::to_string(frame.type));
  }
  return LeReader(frame.payload, "frame payload");
}

/// A frame of `type` whose payload is everything `w` wrote (consumed).
[[nodiscard]] Frame frame_of(FrameType type, LeWriter& w) {
  return {static_cast<std::uint8_t>(type), std::move(w).take()};
}

}  // namespace

bool is_known_frame_type(std::uint8_t type) noexcept {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kJobRequest:
    case FrameType::kCancel:
    case FrameType::kStatusRequest:
    case FrameType::kMetricsRequest:
    case FrameType::kHelloAck:
    case FrameType::kProgress:
    case FrameType::kResultLine:
    case FrameType::kStopSetSummary:
    case FrameType::kJobStatus:
    case FrameType::kError:
    case FrameType::kServerStatus:
    case FrameType::kMetrics:
      return true;
  }
  return false;
}

std::string encode_frame(const Frame& frame) {
  MMLPT_EXPECTS(frame.payload.size() <= kMaxFramePayload);
  LeWriter out(kFrameHeaderSize + frame.payload.size());
  out.u32(static_cast<std::uint32_t>(frame.payload.size()));
  out.u8(frame.type);
  out.u32(crc32(frame.payload));
  out.bytes(frame.payload);
  return std::move(out).take();
}

std::optional<Frame> decode_frame(std::string_view buffer,
                                  std::size_t& offset) {
  MMLPT_EXPECTS(offset <= buffer.size());
  LeReader in(buffer.substr(offset), "frame");
  if (in.remaining() < kFrameHeaderSize) return std::nullopt;
  const std::uint32_t length = in.u32();
  // Reject before waiting for the payload: a corrupt length must not
  // make the reader buffer (or "need") gigabytes.
  if (length > kMaxFramePayload) {
    throw ParseError("frame payload length " + std::to_string(length) +
                     " exceeds the " + std::to_string(kMaxFramePayload) +
                     "-byte cap");
  }
  Frame frame;
  frame.type = in.u8();
  const std::uint32_t crc = in.u32();
  if (in.remaining() < length) return std::nullopt;
  frame.payload.assign(in.bytes(length));
  if (crc32(frame.payload) != crc) {
    throw ParseError("frame CRC mismatch (torn or corrupted stream)");
  }
  offset += in.consumed();
  return frame;
}

// ---- frame payloads ----------------------------------------------------

std::optional<std::uint32_t> negotiate_version(const Hello& hello) noexcept {
  if (hello.min_version > hello.max_version) return std::nullopt;
  if (hello.min_version > kProtocolVersion ||
      hello.max_version < kProtocolVersion) {
    return std::nullopt;
  }
  return kProtocolVersion;
}

Frame encode_hello(const Hello& hello) {
  LeWriter w;
  w.u32(kProtocolMagic);
  w.u32(hello.min_version);
  w.u32(hello.max_version);
  w.string(hello.tenant);
  return frame_of(FrameType::kHello, w);
}

Hello decode_hello(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kHello});
  if (r.u32() != kProtocolMagic) {
    throw ParseError("hello magic mismatch: not an mmlptd client");
  }
  Hello hello{r.u32(), r.u32(), r.string()};  // read left to right
  r.expect_end();
  return hello;
}

Frame encode_hello_ack(std::uint32_t version) {
  LeWriter w;
  w.u32(version);
  return frame_of(FrameType::kHelloAck, w);
}

std::uint32_t decode_hello_ack(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kHelloAck});
  const auto version = r.u32();
  r.expect_end();
  return version;
}

Frame encode_job_request(const JobRequest& request) {
  LeWriter w;
  w.u64(request.job_id);
  w.u8(static_cast<std::uint8_t>(request.spec.family));
  w.u8(static_cast<std::uint8_t>(request.spec.algorithm));
  w.u64(request.spec.routes);
  w.u64(request.spec.seed);
  w.u64(request.spec.distinct);
  w.u32(static_cast<std::uint32_t>(request.spec.shared_prefix));
  w.u32(static_cast<std::uint32_t>(request.spec.window));
  w.u32(static_cast<std::uint32_t>(request.spec.labels.size()));
  for (const auto& label : request.spec.labels) w.string(label);
  return frame_of(FrameType::kJobRequest, w);
}

JobRequest decode_job_request(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kJobRequest});
  JobRequest request;
  request.job_id = r.u64();
  const auto family = r.u8();
  if (family != 4 && family != 6) {
    throw ParseError("job request: bad family tag " + std::to_string(family));
  }
  request.spec.family = static_cast<net::Family>(family);
  const auto algorithm = r.u8();
  if (algorithm > static_cast<std::uint8_t>(core::Algorithm::kSingleFlow)) {
    throw ParseError("job request: bad algorithm tag " +
                     std::to_string(algorithm));
  }
  request.spec.algorithm = static_cast<core::Algorithm>(algorithm);
  request.spec.routes = r.u64();
  request.spec.seed = r.u64();
  request.spec.distinct = r.u64();
  request.spec.shared_prefix = static_cast<int>(r.u32());
  request.spec.window = static_cast<int>(r.u32());
  if (request.spec.shared_prefix < 0 || request.spec.window < 1) {
    throw ParseError("job request: shared_prefix/window out of range");
  }
  const std::uint32_t label_count = r.u32();
  // Each label costs at least its 4-byte length prefix, so a count the
  // remaining payload cannot hold is torn — reject it BEFORE reserve()
  // turns a corrupt u32 into a multi-gigabyte allocation.
  if (label_count > r.remaining() / 4) {
    throw ParseError("job request: label count " +
                     std::to_string(label_count) +
                     " exceeds the payload");
  }
  request.spec.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    request.spec.labels.push_back(r.string());
  }
  r.expect_end();
  return request;
}

Frame encode_cancel(std::uint64_t job_id) {
  LeWriter w;
  w.u64(job_id);
  return frame_of(FrameType::kCancel, w);
}

std::uint64_t decode_cancel(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kCancel});
  const auto job_id = r.u64();
  r.expect_end();
  return job_id;
}

Frame encode_progress(const Progress& progress) {
  LeWriter w;
  w.u64(progress.job_id);
  w.u64(progress.completed);
  w.u64(progress.total);
  w.u64(progress.packets);
  return frame_of(FrameType::kProgress, w);
}

Progress decode_progress(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kProgress});
  const Progress progress{r.u64(), r.u64(), r.u64(), r.u64()};
  r.expect_end();
  return progress;
}

Frame encode_job_status(const JobStatus& status) {
  LeWriter w;
  w.u64(status.job_id);
  w.u8(static_cast<std::uint8_t>(status.outcome));
  w.string(status.message);
  w.u64(status.lines);
  w.u64(status.packets);
  return frame_of(FrameType::kJobStatus, w);
}

JobStatus decode_job_status(const Frame& frame) {
  auto r = reader_for(frame, {FrameType::kJobStatus});
  const auto job_id = r.u64();
  const auto outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(JobOutcome::kFailed)) {
    throw ParseError("job status: bad outcome tag " +
                     std::to_string(outcome));
  }
  JobStatus status{job_id, static_cast<JobOutcome>(outcome), r.string(),
                   r.u64(), r.u64()};
  r.expect_end();
  return status;
}

Frame encode_text(FrameType type, std::string_view text) {
  MMLPT_EXPECTS(is_one_of(type, kTextFrames));
  LeWriter w;
  w.string(text);
  return frame_of(type, w);
}

std::string decode_text(const Frame& frame) {
  auto r = reader_for(frame, kTextFrames);
  std::string text = r.string();
  r.expect_end();
  return text;
}

Frame encode_job_text(FrameType type, std::uint64_t job_id,
                      std::string_view text) {
  MMLPT_EXPECTS(is_one_of(type, kJobTextFrames));
  LeWriter w;
  w.u64(job_id);
  w.string(text);
  return frame_of(type, w);
}

JobText decode_job_text(const Frame& frame) {
  auto r = reader_for(frame, kJobTextFrames);
  JobText job_text{r.u64(), r.string()};
  r.expect_end();
  return job_text;
}

}  // namespace mmlpt::daemon
