// The mmlptd wire protocol: length-prefixed, CRC-checked, versioned
// frames over a unix stream socket. One privileged daemon owns the fleet
// scheduler, rate limiter and stop set; many cheap unprivileged clients
// connect, negotiate a protocol version, submit trace jobs and stream
// back progress, JSONL result lines and a final status.
//
// Frame layout (every integer little-endian):
//
//   u32 payload_len   u8 type   u32 crc32(payload)   payload bytes
//
// Properties the tests gate:
//   * a truncated frame decodes as "need more bytes", never as garbage;
//   * a torn frame (bad CRC) and an oversized length are ParseErrors —
//     the connection is poisoned, not the process;
//   * unknown frame TYPES decode fine and are skipped by receivers, so
//     the protocol can grow frame kinds without a version bump;
//   * version negotiation happens once, in the Hello/HelloAck handshake,
//     and a client outside the daemon's supported range is refused with
//     an Error frame before any job state exists.
//
// Frames and payloads are written with LeWriter and read with LeReader
// (common/le_codec.h, shared with the topology store); every decode_*
// rejects trailing bytes, so frames cannot smuggle data past the schema.
// The five text-carrying kinds share two payload shapes, each with one
// codec keyed by FrameType: a bare string (Error, ServerStatus, Metrics)
// and a job id plus a string (ResultLine, StopSetSummary).
#ifndef MMLPT_DAEMON_PROTOCOL_H
#define MMLPT_DAEMON_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.h"
#include "daemon/fleet_job.h"

namespace mmlpt::daemon {

/// Handshake magic ("MLPD" little-endian) — the first four payload bytes
/// of a Hello, so a daemon can refuse a stray non-mmlpt client cleanly.
inline constexpr std::uint32_t kProtocolMagic = 0x44504C4DU;
/// The one protocol version this build speaks.
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Frame payloads larger than this are rejected without buffering — a
/// corrupt length prefix must not make the daemon allocate gigabytes.
inline constexpr std::size_t kMaxFramePayload = 4u << 20;
/// u32 length + u8 type + u32 crc.
inline constexpr std::size_t kFrameHeaderSize = 9;

enum class FrameType : std::uint8_t {
  // client -> daemon
  kHello = 1,
  kJobRequest = 2,
  kCancel = 3,
  kStatusRequest = 4,
  kMetricsRequest = 5,
  // daemon -> client
  kHelloAck = 16,
  kProgress = 17,
  kResultLine = 18,
  kStopSetSummary = 19,
  kJobStatus = 20,
  kError = 21,
  kServerStatus = 22,
  kMetrics = 23,
};

[[nodiscard]] bool is_known_frame_type(std::uint8_t type) noexcept;

struct Frame {
  std::uint8_t type = 0;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serialize one frame (header + payload).
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Decode the frame starting at buffer[offset]. Returns nullopt when the
/// buffer holds only a prefix of the frame (read more and retry);
/// advances `offset` past the frame on success. Throws ParseError on an
/// oversized length or a CRC mismatch — the stream is torn and cannot be
/// resynchronized.
[[nodiscard]] std::optional<Frame> decode_frame(std::string_view buffer,
                                                std::size_t& offset);

// ---- frame payloads ----------------------------------------------------

struct Hello {
  std::uint32_t min_version = kProtocolVersion;
  std::uint32_t max_version = kProtocolVersion;
  std::string tenant;  ///< rate-limit / admission accounting identity
};

/// The version the daemon will speak with a client advertising
/// [min, max], or nullopt when the ranges do not meet (refusal).
[[nodiscard]] std::optional<std::uint32_t> negotiate_version(
    const Hello& hello) noexcept;

struct JobRequest {
  std::uint64_t job_id = 0;  ///< client-chosen; echoed on every response
  FleetJobSpec spec;
};

struct Progress {
  std::uint64_t job_id = 0;
  std::uint64_t completed = 0;  ///< destinations merged so far
  std::uint64_t total = 0;
  std::uint64_t packets = 0;
};

/// A kResultLine or kStopSetSummary payload: one JSONL destination line
/// without its newline, or the job's stop-set summary (the "stop_set"
/// object of mmlpt_fleet's stderr line, which mmlpt_client prints).
struct JobText {
  std::uint64_t job_id = 0;
  std::string text;
};

enum class JobOutcome : std::uint8_t {
  kOk = 0,
  kRejected = 1,  ///< admission control refused the job
  kCanceled = 2,
  kFailed = 3,
};

struct JobStatus {
  std::uint64_t job_id = 0;
  JobOutcome outcome = JobOutcome::kOk;
  std::string message;  ///< reject reason / error text; empty on success
  std::uint64_t lines = 0;
  std::uint64_t packets = 0;
};

// kStatusRequest and kMetricsRequest carry no payload.
[[nodiscard]] Frame encode_hello(const Hello& hello);
[[nodiscard]] Hello decode_hello(const Frame& frame);
/// HelloAck: the negotiated version.
[[nodiscard]] Frame encode_hello_ack(std::uint32_t version);
[[nodiscard]] std::uint32_t decode_hello_ack(const Frame& frame);
[[nodiscard]] Frame encode_job_request(const JobRequest& request);
[[nodiscard]] JobRequest decode_job_request(const Frame& frame);
/// Cancel: the id of the job to stop.
[[nodiscard]] Frame encode_cancel(std::uint64_t job_id);
[[nodiscard]] std::uint64_t decode_cancel(const Frame& frame);
[[nodiscard]] Frame encode_progress(const Progress& progress);
[[nodiscard]] Progress decode_progress(const Frame& frame);
[[nodiscard]] Frame encode_job_status(const JobStatus& status);
[[nodiscard]] JobStatus decode_job_status(const Frame& frame);

/// kError (a refusal or protocol error message), kServerStatus (the
/// daemon's JSON status document) or kMetrics (its Prometheus text
/// exposition): one length-prefixed string.
[[nodiscard]] Frame encode_text(FrameType type, std::string_view text);
[[nodiscard]] std::string decode_text(const Frame& frame);
/// kResultLine or kStopSetSummary: the job id, then a length-prefixed
/// string.
[[nodiscard]] Frame encode_job_text(FrameType type, std::uint64_t job_id,
                                    std::string_view text);
[[nodiscard]] JobText decode_job_text(const Frame& frame);

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_PROTOCOL_H
