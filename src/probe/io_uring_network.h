// io_uring-backed real-network transport: the TransportQueue seam was
// deliberately shaped like io_uring (submit/poll/cancel, per-ticket
// deadlines), and this backend closes the loop by mapping it onto a real
// ring. One submitted window becomes one batch of IORING_OP_SENDMSG
// SQEs plus a single IORING_OP_TIMEOUT SQE carrying the ticket's
// deadline, published with ONE io_uring_enter — the per-probe
// sendto/poll syscall cost of RawSocketNetwork collapses to one kernel
// crossing per window. (A timeout LINKed to the sendmsg would bound the
// SEND, which completes immediately on a raw socket; the reply deadline
// is what the contract needs, so the timeout is an independent op that
// expires the whole ticket.)
//
// Receive path: a small pool of IORING_OP_RECVMSG ops stays armed on the
// raw ICMP/ICMPv6 socket, each re-armed as its completion is reaped, so
// replies complete into the ring without a poll() loop. Every reply
// funnels into the same two-tier attribution (ReplyAttributor) the
// poll backend uses — byte-identical matching semantics by construction.
//
// cancel(ticket) resolves the ticket's pending slots synchronously
// (CancellableNetwork / daemon cancel semantics are preserved: the
// completions surface on the next poll) and files IORING_OP_ASYNC_CANCEL
// against the ticket's in-kernel timeout so the ring drops it early.
//
// Every in-flight kernel op owns heap-allocated, stable storage (msghdr,
// iovec, buffers, timespec) held in op tables until its CQE arrives —
// completions referencing freed ticket slots is the classic io_uring
// lifetime bug, and the ASan leg exercises exactly this path.
//
// Requires CAP_NET_RAW and a kernel with io_uring (5.1+, not disabled by
// sysctl/seccomp): construction throws SystemError otherwise. Use
// supported() (the io_uring_setup capability probe) to decide between
// this backend and RawSocketNetwork at startup.
#ifndef MMLPT_PROBE_IO_URING_NETWORK_H
#define MMLPT_PROBE_IO_URING_NETWORK_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/ip_address.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "probe/reply_attribution.h"
#include "probe/transport_queue.h"

namespace mmlpt::probe {

namespace uring {
class Ring;
}  // namespace uring

class IoUringNetwork final : public TransportQueue {
 public:
  struct Config {
    std::chrono::milliseconds reply_timeout{1000};
    /// Socket family; IPv6 reconstructs reply headers like the poll
    /// backend does.
    net::Family family = net::Family::kIpv4;
    /// Submission-queue depth. A window of N probes needs N+1 SQEs;
    /// larger windows still fit — get_sqe() flushes mid-batch.
    unsigned ring_entries = 256;
    /// RECVMSG ops kept armed on the receive socket.
    unsigned recv_slots = 8;
  };

  /// True when this kernel can host the backend (cached io_uring_setup
  /// probe). Constructing when false throws SystemError.
  [[nodiscard]] static bool supported() noexcept;

  /// The backend's counters live in `metrics` (series labeled
  /// transport="uring"); the registry must outlive the backend.
  IoUringNetwork(Config config, obs::MetricsRegistry& metrics);
  ~IoUringNetwork() override;

  IoUringNetwork(const IoUringNetwork&) = delete;
  IoUringNetwork& operator=(const IoUringNetwork&) = delete;

  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions& options) override;
  using TransportQueue::submit;
  [[nodiscard]] std::vector<Completion> poll_completions() override;
  void cancel(Ticket ticket) override;
  [[nodiscard]] std::size_t pending() const override;

 private:
  using Clock = ReplyAttributor::Clock;

  struct SendOp;
  struct RecvOp;
  struct TimeoutOp;

  void arm_recv(std::uint64_t id);
  /// File IORING_OP_ASYNC_CANCEL against `ticket`'s in-kernel timeout
  /// (no-op when none is armed). Prepares the SQE only; the caller
  /// flushes.
  void cancel_ticket_timeout(Ticket ticket);
  /// Cancel the timeouts of tickets with no pending slots left, so a
  /// fully-answered ticket does not hold its deadline op in the ring
  /// for the rest of the reply window (teardown would have to wait it
  /// out).
  void reap_settled_timeouts();
  void drain_cqes();
  void handle_cqe(std::uint64_t user_data, std::int32_t res);
  void handle_recv(RecvOp& op, std::int32_t res);

  void register_metrics(obs::MetricsRegistry& registry);

  Config config_;
  int send_fd_ = -1;
  int recv_fd_ = -1;
  std::unique_ptr<uring::Ring> ring_;
  ReplyAttributor attributor_;

  // In-flight kernel ops, keyed by the id encoded in user_data. Entries
  // live until their CQE is reaped — the op structs own every buffer the
  // kernel may still read or write.
  std::uint64_t next_op_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<SendOp>> sends_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RecvOp>> recvs_;
  std::unordered_map<std::uint64_t, std::unique_ptr<TimeoutOp>> timeouts_;
  /// ticket -> its in-kernel timeout op (for ASYNC_CANCEL on cancel()).
  std::unordered_map<Ticket, std::uint64_t> ticket_timeouts_;
  /// Destructor teardown: reaped receives are retired, not re-armed.
  bool draining_ = false;
  obs::Counter* enters_ = nullptr;
  obs::Counter* sqes_ = nullptr;
  obs::Counter* send_cqes_ = nullptr;
  obs::Counter* recv_cqes_ = nullptr;
  obs::Counter* timeout_cqes_ = nullptr;
  obs::Counter* recvs_retired_ = nullptr;
  obs::Counter* probes_sent_ = nullptr;
  obs::Counter* replies_received_ = nullptr;
  obs::Counter* deadline_expiries_ = nullptr;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_IO_URING_NETWORK_H
