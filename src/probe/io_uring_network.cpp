#include "probe/io_uring_network.h"

#include "common/error.h"
#include "probe/uring.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#if MMLPT_HAS_IO_URING

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

// Linux < 4.15 headers lack IPV6_HDRINCL; the constant is stable ABI.
#ifndef IPV6_HDRINCL
#define IPV6_HDRINCL 36
#endif

namespace mmlpt::probe {

namespace {

/// user_data layout: the op kind in the top byte, the op-table id below
/// — one 64-bit tag routes every CQE back to its owning table entry.
enum class OpKind : std::uint64_t {
  kSend = 1,
  kRecv = 2,
  kTimeout = 3,
  kCancel = 4,
};
constexpr unsigned kKindShift = 56;

[[nodiscard]] constexpr std::uint64_t make_user_data(
    OpKind kind, std::uint64_t id) noexcept {
  return (static_cast<std::uint64_t>(kind) << kKindShift) | id;
}
[[nodiscard]] constexpr OpKind user_data_kind(std::uint64_t ud) noexcept {
  return static_cast<OpKind>(ud >> kKindShift);
}
[[nodiscard]] constexpr std::uint64_t user_data_id(std::uint64_t ud) noexcept {
  return ud & ((std::uint64_t{1} << kKindShift) - 1);
}

}  // namespace

/// One crafted probe on its way through the ring. The kernel reads
/// msg/iov/to/bytes until the send CQE arrives, so the struct is heap-
/// pinned in sends_ for exactly that long.
struct IoUringNetwork::SendOp {
  Ticket ticket = 0;
  std::size_t slot = 0;
  std::vector<std::uint8_t> bytes;
  iovec iov{};
  msghdr msg{};
  sockaddr_storage to{};
};

/// One armed receive on the raw ICMP socket; re-armed (same storage,
/// same user_data) every time its completion is reaped.
struct IoUringNetwork::RecvOp {
  std::array<std::uint8_t, 2048> buffer{};
  iovec iov{};
  msghdr msg{};
  sockaddr_in6 from{};  // covers both families
  alignas(cmsghdr) std::array<std::uint8_t, 256> control{};
  /// Error completions since the last successful receive; the slot is
  /// retired (not re-armed) when it hits kMaxConsecutiveRecvErrors.
  unsigned consecutive_errors = 0;
};

namespace {
/// A receive failing persistently (EBADF, ENOBUFS) completes again the
/// instant it is re-armed, so unconditional re-arming turns the poll
/// drain loop into a CPU-bound spin until the ticket deadline fires.
/// Transient errors get this many retries before the slot retires.
constexpr unsigned kMaxConsecutiveRecvErrors = 8;
}  // namespace

/// A ticket's reply deadline living in the kernel; the timespec must
/// stay valid while the op is in flight.
struct IoUringNetwork::TimeoutOp {
  Ticket ticket = 0;
  __kernel_timespec ts{};
};

bool IoUringNetwork::supported() noexcept { return uring::kernel_supported(); }

void IoUringNetwork::register_metrics(obs::MetricsRegistry& registry) {
  const obs::Labels labels{{"transport", "uring"}};
  probes_sent_ =
      registry.counter("mmlpt_transport_probes_sent_total",
                       "Probe datagrams handed to the wire", labels);
  replies_received_ =
      registry.counter("mmlpt_transport_replies_received_total",
                       "Reply datagrams scooped off the socket", labels);
  enters_ = registry.counter("mmlpt_transport_uring_enters_total",
                             "io_uring_enter syscalls", labels);
  sqes_ = registry.counter("mmlpt_transport_uring_sqes_total",
                           "Submission-queue entries prepared", labels);
  send_cqes_ = registry.counter("mmlpt_transport_uring_send_cqes_total",
                                "sendmsg completions reaped", labels);
  recv_cqes_ = registry.counter("mmlpt_transport_uring_recv_cqes_total",
                                "recvmsg completions reaped", labels);
  timeout_cqes_ =
      registry.counter("mmlpt_transport_uring_timeout_cqes_total",
                       "Ticket-deadline timeout completions", labels);
  recvs_retired_ = registry.counter(
      "mmlpt_transport_uring_recvs_retired_total",
      "Receive slots retired on persistent error completions", labels);
  deadline_expiries_ =
      registry.counter("mmlpt_transport_deadline_expiries_total",
                       "Pending slots resolved unanswered by their deadline",
                       labels);
  attributor_.set_expiry_counter(deadline_expiries_);
}

IoUringNetwork::IoUringNetwork(Config config, obs::MetricsRegistry& metrics)
    : config_(config) {
  register_metrics(metrics);
  if (!uring::kernel_supported()) {
    throw SystemError("io_uring not supported by this kernel");
  }
  const bool v6 = config_.family == net::Family::kIpv6;
  const int domain = v6 ? AF_INET6 : AF_INET;
  send_fd_ = ::socket(domain, SOCK_RAW, IPPROTO_RAW);
  if (send_fd_ < 0) {
    throw SystemError(std::string("raw send socket: ") + std::strerror(errno) +
                      " (CAP_NET_RAW required)");
  }
  const int on = 1;
  const int level = v6 ? IPPROTO_IPV6 : IPPROTO_IP;
  const int option = v6 ? IPV6_HDRINCL : IP_HDRINCL;
  if (::setsockopt(send_fd_, level, option, &on, sizeof(on)) < 0) {
    ::close(send_fd_);
    throw SystemError(std::string(v6 ? "IPV6_HDRINCL: " : "IP_HDRINCL: ") +
                      std::strerror(errno));
  }
  recv_fd_ = ::socket(domain, SOCK_RAW,
                      v6 ? static_cast<int>(IPPROTO_ICMPV6)
                         : static_cast<int>(IPPROTO_ICMP));
  if (recv_fd_ < 0) {
    ::close(send_fd_);
    throw SystemError(std::string("raw recv socket: ") +
                      std::strerror(errno));
  }
  if (v6) {
    if (::setsockopt(recv_fd_, IPPROTO_IPV6, IPV6_RECVHOPLIMIT, &on,
                     sizeof(on)) < 0) {
      ::close(send_fd_);
      ::close(recv_fd_);
      throw SystemError(std::string("IPV6_RECVHOPLIMIT: ") +
                        std::strerror(errno));
    }
  }
  try {
    ring_ = std::make_unique<uring::Ring>(config_.ring_entries);
    // Keep a pool of receives armed from the start: replies that beat
    // the first reap just wait in the socket buffer.
    for (unsigned i = 0; i < config_.recv_slots; ++i) {
      const std::uint64_t id = next_op_++;
      recvs_.emplace(id, std::make_unique<RecvOp>());
      arm_recv(id);
    }
    ring_->flush();
    enters_->add();
  } catch (...) {
    ring_.reset();
    ::close(send_fd_);
    ::close(recv_fd_);
    throw;
  }
}

IoUringNetwork::~IoUringNetwork() {
  // Drain the ring before freeing op storage: a CQE (or in-kernel DMA)
  // referencing a freed op is the classic lifetime bug. Cancel the
  // armed receives, then reap until every op table is empty (bounded —
  // ring teardown reclaims whatever a sick kernel refuses to complete).
  draining_ = true;
  if (ring_ != nullptr) {
    try {
      for (const auto& [id, op] : recvs_) {
        if (uring::Sqe* sqe = ring_->try_get_sqe()) {
          sqe->opcode = IORING_OP_ASYNC_CANCEL;
          sqe->fd = -1;
          sqe->addr = make_user_data(OpKind::kRecv, id);
          sqe->user_data = make_user_data(OpKind::kCancel, next_op_++);
        }
      }
      // Still-armed ticket deadlines would otherwise make the drain
      // loop below sit out the remainder of the reply window.
      for (const auto& [id, op] : timeouts_) {
        if (uring::Sqe* sqe = ring_->try_get_sqe()) {
          sqe->opcode = IORING_OP_ASYNC_CANCEL;
          sqe->fd = -1;
          sqe->addr = make_user_data(OpKind::kTimeout, id);
          sqe->user_data = make_user_data(OpKind::kCancel, next_op_++);
        }
      }
      for (int rounds = 0; rounds < 64; ++rounds) {
        drain_cqes();
        if (sends_.empty() && recvs_.empty() && timeouts_.empty()) break;
        ring_->flush(1);
      }
    } catch (...) {
      // Teardown stays best-effort; the ring close below reclaims ops.
    }
  }
  ring_.reset();
  if (send_fd_ >= 0) ::close(send_fd_);
  if (recv_fd_ >= 0) ::close(recv_fd_);
}

void IoUringNetwork::arm_recv(std::uint64_t id) {
  auto& op = *recvs_.at(id);
  op.iov = iovec{op.buffer.data(), op.buffer.size()};
  op.msg = msghdr{};
  op.msg.msg_name = &op.from;
  op.msg.msg_namelen = sizeof(op.from);
  op.msg.msg_iov = &op.iov;
  op.msg.msg_iovlen = 1;
  if (config_.family == net::Family::kIpv6) {
    op.control.fill(0);
    op.msg.msg_control = op.control.data();
    op.msg.msg_controllen = op.control.size();
  }
  uring::Sqe* sqe = ring_->get_sqe();
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = recv_fd_;
  sqe->addr = reinterpret_cast<std::uint64_t>(&op.msg);
  sqe->len = 1;
  sqe->user_data = make_user_data(OpKind::kRecv, id);
  sqes_->add();
}

void IoUringNetwork::submit(std::span<const Datagram> window, Ticket ticket,
                            const SubmitOptions& options) {
  if (window.empty()) return;
  const auto now = Clock::now();
  const auto budget =
      options.deadline
          ? std::chrono::nanoseconds(
                static_cast<std::int64_t>(*options.deadline))
          : std::chrono::nanoseconds(config_.reply_timeout);
  const auto deadline = now + budget;

  // Ring errors (get_sqe stuck full after an EBUSY flush, io_uring_enter
  // failure) must not throw mid-window: part of the window may already
  // be queued and attributed, and a partially-submitted ticket would
  // desync the caller's drain loop — the failure mode RawSocketNetwork
  // degrades around too. Failed sends become unanswered slots, and the
  // whole ticket expires whenever its in-kernel deadline cannot be
  // guaranteed.
  bool ring_failed = false;

  // One SENDMSG SQE per probe, all published with a single enter below.
  for (std::size_t slot = 0; slot < window.size(); ++slot) {
    auto op = std::make_unique<SendOp>();
    op->ticket = ticket;
    op->slot = slot;
    op->bytes.assign(window[slot].bytes.begin(), window[slot].bytes.end());
    net::ParsedProbe probe = net::parse_probe(op->bytes);
    uring::Sqe* sqe = nullptr;
    if (!ring_failed) {
      try {
        sqe = ring_->get_sqe();
      } catch (const SystemError&) {
        ring_failed = true;
      }
    }
    if (ring_failed) {
      // The probe never reaches the wire — a failed send is a lost
      // probe, same policy as the poll backend.
      attributor_.resolve_unsent(ticket, slot, std::move(probe));
      continue;
    }
    if (config_.family == net::Family::kIpv4) {
      auto* to = reinterpret_cast<sockaddr_in*>(&op->to);
      to->sin_family = AF_INET;
      to->sin_addr.s_addr = htonl(probe.ip.dst.value());
      op->msg.msg_namelen = sizeof(sockaddr_in);
    } else {
      auto* to = reinterpret_cast<sockaddr_in6*>(&op->to);
      to->sin6_family = AF_INET6;
      std::memcpy(to->sin6_addr.s6_addr, probe.ip6.dst.bytes().data(), 16);
      op->msg.msg_namelen = sizeof(sockaddr_in6);
    }
    op->iov = iovec{op->bytes.data(), op->bytes.size()};
    op->msg.msg_name = &op->to;
    op->msg.msg_iov = &op->iov;
    op->msg.msg_iovlen = 1;

    const std::uint64_t id = next_op_++;
    sqe->opcode = IORING_OP_SENDMSG;
    sqe->fd = send_fd_;
    sqe->addr = reinterpret_cast<std::uint64_t>(&op->msg);
    sqe->len = 1;
    sqe->user_data = make_user_data(OpKind::kSend, id);
    sqes_->add();

    attributor_.add_pending(ReplyAttributor::PendingSlot{
        ticket, slot, std::move(probe), now, deadline});
    sends_.emplace(id, std::move(op));
  }

  // The ticket's reply deadline as an in-kernel timeout: when it fires,
  // every still-pending slot of the ticket resolves unanswered. (A
  // LINK_TIMEOUT would bound the sendmsg, which completes immediately
  // on a raw socket — the deadline we owe the contract is on the REPLY,
  // so the timeout is a free-standing op.)
  if (!ring_failed) {
    auto timeout = std::make_unique<TimeoutOp>();
    timeout->ticket = ticket;
    timeout->ts.tv_sec = budget.count() / 1'000'000'000;
    timeout->ts.tv_nsec = budget.count() % 1'000'000'000;
    try {
      const std::uint64_t id = next_op_++;
      uring::Sqe* sqe = ring_->get_sqe();
      sqe->opcode = IORING_OP_TIMEOUT;
      sqe->fd = -1;
      sqe->addr = reinterpret_cast<std::uint64_t>(&timeout->ts);
      sqe->len = 1;
      sqe->user_data = make_user_data(OpKind::kTimeout, id);
      sqes_->add();
      ticket_timeouts_[ticket] = id;
      timeouts_.emplace(id, std::move(timeout));
    } catch (const SystemError&) {
      ring_failed = true;
    }
  }

  if (!ring_failed) {
    try {
      ring_->flush();
      enters_->add();
    } catch (const SystemError&) {
      ring_failed = true;
    }
  }

  if (ring_failed) {
    // The ticket's in-kernel deadline is not guaranteed to be armed, so
    // poll_completions()'s "a CQE is always coming" blocking invariant
    // does not hold for it: expire every slot of the ticket still
    // pending, keeping the caller's drain loop in sync. Disown the
    // timeout op (if it was queued after all, its CQE is dropped as
    // stale); its storage stays in timeouts_ until then — the kernel
    // may still read the timespec.
    ticket_timeouts_.erase(ticket);
    attributor_.expire_ticket(ticket);
  }
}

void IoUringNetwork::handle_recv(RecvOp& op, std::int32_t res) {
  if (res <= 0) return;  // errors are handled at the CQE layer
  if (attributor_.pending_slots().empty()) return;  // nothing to match
  const auto n = static_cast<std::size_t>(res);
  std::vector<std::uint8_t> reply;
  if (config_.family == net::Family::kIpv4) {
    reply.assign(op.buffer.data(), op.buffer.data() + n);
  } else {
    int hop_limit = 64;
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&op.msg); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&op.msg, cmsg)) {
      if (cmsg->cmsg_level == IPPROTO_IPV6 &&
          cmsg->cmsg_type == IPV6_HOPLIMIT) {
        std::memcpy(&hop_limit, CMSG_DATA(cmsg), sizeof(int));
      }
    }
    net::IpAddress::Bytes src_bytes{};
    std::memcpy(src_bytes.data(), op.from.sin6_addr.s6_addr, 16);
    reply = reconstruct_ipv6_reply(
        {op.buffer.data(), n}, net::IpAddress::v6(src_bytes), hop_limit,
        attributor_.pending_slots().front().probe.src());
  }
  net::ParsedReply got;
  try {
    got = net::parse_reply(reply);
  } catch (const ParseError&) {
    return;  // not an ICMP shape we understand
  }
  attributor_.attribute(got, std::move(reply), Clock::now());
}

void IoUringNetwork::handle_cqe(std::uint64_t user_data, std::int32_t res) {
  const std::uint64_t id = user_data_id(user_data);
  switch (user_data_kind(user_data)) {
    case OpKind::kSend: {
      auto it = sends_.find(id);
      if (it == sends_.end()) break;
      send_cqes_->add();
      if (res < 0) {
        // A failed send behaves like a lost probe (same policy as the
        // poll backend): the slot resolves unanswered if still pending.
        attributor_.resolve_unanswered(it->second->ticket, it->second->slot);
      } else {
        probes_sent_->add();
      }
      sends_.erase(it);
      break;
    }
    case OpKind::kRecv: {
      auto it = recvs_.find(id);
      if (it == recvs_.end()) break;
      recv_cqes_->add();
      if (draining_) {
        recvs_.erase(it);
        break;
      }
      RecvOp& op = *it->second;
      if (res < 0) {
        // Retire a persistently failing slot instead of re-arming it
        // forever (busy spin — see kMaxConsecutiveRecvErrors). With
        // every receive retired, pending slots still resolve through
        // their ticket deadlines.
        if (++op.consecutive_errors >= kMaxConsecutiveRecvErrors) {
          recvs_retired_->add();
          recvs_.erase(it);
          break;
        }
      } else {
        op.consecutive_errors = 0;
        if (res > 0) replies_received_->add();
        handle_recv(op, res);
      }
      arm_recv(id);
      break;
    }
    case OpKind::kTimeout: {
      auto it = timeouts_.find(id);
      if (it == timeouts_.end()) break;
      timeout_cqes_->add();
      const Ticket ticket = it->second->ticket;
      auto owner = ticket_timeouts_.find(ticket);
      if (owner != ticket_timeouts_.end() && owner->second == id) {
        // This op is still the ticket's registered deadline. -ETIME is
        // the deadline firing; any other resolution (kernel refusal)
        // must still never strand a pending slot, so the ticket's
        // leftovers expire either way. Slots already answered or
        // canceled are untouched.
        ticket_timeouts_.erase(owner);
        attributor_.expire_ticket(ticket);
      }
      // Otherwise the op is stale: cancel()/reap_settled_timeouts()
      // already disowned it and its -ECANCELED CQE arrived late. The
      // ticket may have been reused by now (contract-legal once
      // resolved), so expiring here would kill the reused ticket's fresh
      // slots; just drop the op storage.
      timeouts_.erase(it);
      break;
    }
    case OpKind::kCancel:
      break;  // the target op's own CQE does the bookkeeping
  }
}

void IoUringNetwork::drain_cqes() {
  std::vector<uring::Cqe> cqes;
  while (ring_->reap(cqes) > 0) {
    for (const auto& cqe : cqes) handle_cqe(cqe.user_data, cqe.res);
    cqes.clear();
  }
}

std::vector<Completion> IoUringNetwork::poll_completions() {
  while (!attributor_.has_ready() && !attributor_.pending_slots().empty()) {
    drain_cqes();
    if (attributor_.has_ready() || attributor_.pending_slots().empty()) break;
    // Safe to block: every pending slot's ticket holds an in-kernel
    // timeout, so a CQE is always coming.
    ring_->flush(1);
    enters_->add();
  }
  reap_settled_timeouts();
  // Publish any receive re-arms (and timeout reaps) prepared while
  // reaping before handing control back — replies landing meanwhile
  // wait in the socket buffer.
  if (ring_->unflushed() > 0) {
    ring_->flush();
    enters_->add();
  }
  return attributor_.take_ready();
}

void IoUringNetwork::cancel_ticket_timeout(Ticket ticket) {
  auto it = ticket_timeouts_.find(ticket);
  if (it == ticket_timeouts_.end()) return;
  // Drop the ticket's in-kernel deadline early; its CQE (-ECANCELED)
  // cleans the op table. Erased here so a second cancel cannot file a
  // duplicate; the CQE handler tolerates the missing owner entry.
  uring::Sqe* sqe = ring_->get_sqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = make_user_data(OpKind::kTimeout, it->second);
  sqe->user_data = make_user_data(OpKind::kCancel, next_op_++);
  sqes_->add();
  ticket_timeouts_.erase(it);
}

void IoUringNetwork::reap_settled_timeouts() {
  // O(tickets): the attributor keeps a per-ticket pending count, so the
  // sweep never rescans the pending-slot table per ticket (quadratic
  // once many tickets share one ring).
  for (auto it = ticket_timeouts_.begin(); it != ticket_timeouts_.end();) {
    const Ticket ticket = it->first;
    ++it;  // advance first: cancel_ticket_timeout erases the entry
    if (attributor_.pending_for(ticket) == 0) cancel_ticket_timeout(ticket);
  }
}

void IoUringNetwork::cancel(Ticket ticket) {
  attributor_.cancel(ticket);
  cancel_ticket_timeout(ticket);
  if (ring_->unflushed() > 0) {
    ring_->flush();
    enters_->add();
  }
}

std::size_t IoUringNetwork::pending() const { return attributor_.unresolved(); }

}  // namespace mmlpt::probe

#else  // !MMLPT_HAS_IO_URING

namespace mmlpt::probe {

// Stub bodies for platforms without the io_uring uapi header: the
// capability probe says "unsupported", the constructor throws, and the
// remaining overrides are unreachable but must exist to link.
struct IoUringNetwork::SendOp {};
struct IoUringNetwork::RecvOp {};
struct IoUringNetwork::TimeoutOp {};

bool IoUringNetwork::supported() noexcept { return false; }

IoUringNetwork::IoUringNetwork(Config config, obs::MetricsRegistry&)
    : config_(config) {
  throw SystemError("io_uring is not available on this platform");
}

IoUringNetwork::~IoUringNetwork() = default;

void IoUringNetwork::submit(std::span<const Datagram>, Ticket,
                            const SubmitOptions&) {
  throw SystemError("io_uring is not available on this platform");
}

std::vector<Completion> IoUringNetwork::poll_completions() {
  throw SystemError("io_uring is not available on this platform");
}

void IoUringNetwork::cancel(Ticket) {}

std::size_t IoUringNetwork::pending() const { return 0; }

void IoUringNetwork::arm_recv(std::uint64_t) {}
void IoUringNetwork::drain_cqes() {}
void IoUringNetwork::handle_cqe(std::uint64_t, std::int32_t) {}
void IoUringNetwork::handle_recv(RecvOp&, std::int32_t) {}

}  // namespace mmlpt::probe

#endif  // MMLPT_HAS_IO_URING
