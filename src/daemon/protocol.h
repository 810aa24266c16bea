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
// The payload of each frame kind is encoded with the PayloadWriter /
// PayloadReader cursor helpers below; every decode_* rejects trailing
// bytes, so frames cannot smuggle data past the schema.
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

// ---- payload cursors ---------------------------------------------------

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// u32 length prefix + raw bytes.
  void string(std::string_view v);

  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload cursor; every read past the end
/// is a ParseError.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::string string();
  /// Throws ParseError unless the whole payload was consumed.
  void expect_end() const;

  /// Bytes read so far (decoders use the remainder to bound counts
  /// before pre-allocating for them).
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- frame payloads ----------------------------------------------------

struct Hello {
  std::uint32_t min_version = kProtocolVersion;
  std::uint32_t max_version = kProtocolVersion;
  std::string tenant;  ///< rate-limit / admission accounting identity
};

struct HelloAck {
  std::uint32_t version = kProtocolVersion;
};

/// The version the daemon will speak with a client advertising
/// [min, max], or nullopt when the ranges do not meet (refusal).
[[nodiscard]] std::optional<std::uint32_t> negotiate_version(
    const Hello& hello) noexcept;

struct JobRequest {
  std::uint64_t job_id = 0;  ///< client-chosen; echoed on every response
  FleetJobSpec spec;
};

struct CancelRequest {
  std::uint64_t job_id = 0;
};

struct Progress {
  std::uint64_t job_id = 0;
  std::uint64_t completed = 0;  ///< destinations merged so far
  std::uint64_t total = 0;
  std::uint64_t packets = 0;
};

struct ResultLine {
  std::uint64_t job_id = 0;
  std::string line;  ///< one JSONL destination line, no trailing newline
};

struct StopSetSummary {
  std::uint64_t job_id = 0;
  /// The job's stop-set summary, the JSON object that
  /// StopSetSession::write_summary renders (the "stop_set" object of
  /// mmlpt_fleet's stderr summary line); mmlpt_client prints it to stderr.
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

struct ErrorFrame {
  std::string message;
};

struct ServerStatus {
  std::string json;  ///< machine-parsable daemon status document
};

struct MetricsText {
  std::string text;  ///< Prometheus text exposition of the daemon registry
};

[[nodiscard]] Frame encode_hello(const Hello& hello);
[[nodiscard]] Hello decode_hello(const Frame& frame);
[[nodiscard]] Frame encode_hello_ack(const HelloAck& ack);
[[nodiscard]] HelloAck decode_hello_ack(const Frame& frame);
[[nodiscard]] Frame encode_job_request(const JobRequest& request);
[[nodiscard]] JobRequest decode_job_request(const Frame& frame);
[[nodiscard]] Frame encode_cancel(const CancelRequest& cancel);
[[nodiscard]] CancelRequest decode_cancel(const Frame& frame);
[[nodiscard]] Frame encode_status_request();
[[nodiscard]] Frame encode_progress(const Progress& progress);
[[nodiscard]] Progress decode_progress(const Frame& frame);
[[nodiscard]] Frame encode_result_line(const ResultLine& line);
[[nodiscard]] ResultLine decode_result_line(const Frame& frame);
[[nodiscard]] Frame encode_stop_set_summary(const StopSetSummary& summary);
[[nodiscard]] StopSetSummary decode_stop_set_summary(const Frame& frame);
[[nodiscard]] Frame encode_job_status(const JobStatus& status);
[[nodiscard]] JobStatus decode_job_status(const Frame& frame);
[[nodiscard]] Frame encode_error(const ErrorFrame& error);
[[nodiscard]] ErrorFrame decode_error(const Frame& frame);
[[nodiscard]] Frame encode_server_status(const ServerStatus& status);
[[nodiscard]] ServerStatus decode_server_status(const Frame& frame);
[[nodiscard]] Frame encode_metrics_request();
[[nodiscard]] Frame encode_metrics(const MetricsText& metrics);
[[nodiscard]] MetricsText decode_metrics(const Frame& frame);

}  // namespace mmlpt::daemon

#endif  // MMLPT_DAEMON_PROTOCOL_H
