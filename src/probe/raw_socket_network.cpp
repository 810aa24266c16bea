#include "probe/raw_socket_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "net/packet.h"

// Linux < 4.15 headers lack IPV6_HDRINCL; the constant is stable ABI.
#ifndef IPV6_HDRINCL
#define IPV6_HDRINCL 36
#endif

namespace mmlpt::probe {
namespace {

/// Fill `out` (zeroed by the caller) with `address` and `port` in its
/// family's socket-address form; returns the length to pass with it.
socklen_t to_sockaddr(const net::IpAddress& address, std::uint16_t port,
                      sockaddr_storage& out) {
  if (address.family() == net::Family::kIpv6) {
    auto* to = reinterpret_cast<sockaddr_in6*>(&out);
    to->sin6_family = AF_INET6;
    to->sin6_port = htons(port);
    std::memcpy(to->sin6_addr.s6_addr, address.bytes().data(), 16);
    return sizeof(sockaddr_in6);
  }
  auto* to = reinterpret_cast<sockaddr_in*>(&out);
  to->sin_family = AF_INET;
  to->sin_port = htons(port);
  to->sin_addr.s_addr = htonl(address.value());
  return sizeof(sockaddr_in);
}

}  // namespace

net::IpAddress route_source(const net::IpAddress& destination) {
  const bool v6 = destination.family() == net::Family::kIpv6;
  sockaddr_storage addr{};
  // Any non-zero port: connect() only needs a route, and sends nothing.
  const socklen_t addr_len = to_sockaddr(destination, 33434, addr);
  const int fd = ::socket(v6 ? AF_INET6 : AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    throw SystemError(std::string("source lookup socket: ") +
                      std::strerror(errno));
  }
  sockaddr_storage local{};
  socklen_t local_len = sizeof(local);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) <
          0) {
    const int error = errno;
    ::close(fd);
    throw SystemError("no source address toward " + destination.to_string() +
                      ": " + std::strerror(error));
  }
  ::close(fd);
  if (v6) {
    net::IpAddress::Bytes bytes{};
    std::memcpy(bytes.data(),
                reinterpret_cast<const sockaddr_in6*>(&local)->sin6_addr.s6_addr,
                16);
    return net::IpAddress::v6(bytes);
  }
  return net::IpAddress(
      ntohl(reinterpret_cast<const sockaddr_in*>(&local)->sin_addr.s_addr));
}

void RawSocketNetwork::register_metrics(obs::MetricsRegistry& registry) {
  const obs::Labels labels{{"transport", "poll"}};
  send_datagrams_ =
      registry.counter("mmlpt_transport_probes_sent_total",
                       "Probe datagrams handed to the wire", labels);
  recv_datagrams_ =
      registry.counter("mmlpt_transport_replies_received_total",
                       "Reply datagrams scooped off the socket", labels);
  sendmmsg_calls_ =
      registry.counter("mmlpt_transport_sendmmsg_calls_total",
                       "sendmmsg() batches shipped", labels);
  recvmmsg_calls_ =
      registry.counter("mmlpt_transport_recvmmsg_calls_total",
                       "recvmmsg() batches drained", labels);
  poll_calls_ = registry.counter("mmlpt_transport_poll_calls_total",
                                 "poll() wakeup waits", labels);
  budget_recomputes_ =
      registry.counter("mmlpt_transport_budget_recomputes_total",
                       "Deadline-budget derivations (one per wakeup)", labels);
  deadline_expiries_ =
      registry.counter("mmlpt_transport_deadline_expiries_total",
                       "Pending slots resolved unanswered by their deadline",
                       labels);
  attributor_.set_expiry_counter(deadline_expiries_);
}

RawSocketNetwork::RawSocketNetwork(Config config,
                                   obs::MetricsRegistry& metrics)
    : config_(config) {
  register_metrics(metrics);
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
    // ICMPv6 raw sockets deliver the message without its IPv6 header;
    // ask for the hop limit so the reconstructed header carries the
    // fingerprint signal.
    if (::setsockopt(recv_fd_, IPPROTO_IPV6, IPV6_RECVHOPLIMIT, &on,
                     sizeof(on)) < 0) {
      ::close(send_fd_);
      ::close(recv_fd_);
      throw SystemError(std::string("IPV6_RECVHOPLIMIT: ") +
                        std::strerror(errno));
    }
  }
}

RawSocketNetwork::~RawSocketNetwork() {
  if (send_fd_ >= 0) ::close(send_fd_);
  if (recv_fd_ >= 0) ::close(recv_fd_);
}

void RawSocketNetwork::submit(std::span<const Datagram> window, Ticket ticket,
                              const SubmitOptions& options) {
  const auto now = Clock::now();
  const auto budget =
      options.deadline
          ? std::chrono::nanoseconds(
                static_cast<std::int64_t>(*options.deadline))
          : std::chrono::nanoseconds(config_.reply_timeout);
  const auto deadline = now + budget;
  const bool v6 = config_.family == net::Family::kIpv6;

  // Build the whole window up front — parsed probes for attribution,
  // per-datagram destinations for the vectorised send.
  const std::size_t count = window.size();
  std::vector<net::ParsedProbe> probes;
  probes.reserve(count);
  std::vector<sockaddr_storage> addrs(count);
  std::vector<iovec> iovs(count);
  std::vector<mmsghdr> msgs(count);
  for (std::size_t slot = 0; slot < count; ++slot) {
    probes.push_back(net::parse_probe(window[slot].bytes));
    auto& addr = addrs[slot];
    const socklen_t addr_len = to_sockaddr(
        v6 ? probes[slot].ip6.dst : probes[slot].ip.dst, /*port=*/0, addr);
    iovs[slot] = iovec{const_cast<std::uint8_t*>(window[slot].bytes.data()),
                       window[slot].bytes.size()};
    msgs[slot] = mmsghdr{};
    msgs[slot].msg_hdr.msg_name = &addr;
    msgs[slot].msg_hdr.msg_namelen = addr_len;
    msgs[slot].msg_hdr.msg_iov = &iovs[slot];
    msgs[slot].msg_hdr.msg_iovlen = 1;
  }

  // One sendmmsg() per window (more only after a mid-batch failure). A
  // failed send behaves like a lost probe: resolve the slot unanswered
  // instead of throwing with part of the window already on the wire — a
  // partially-submitted ticket would leave the queue permanently out of
  // sync with its caller's drain loop.
  std::size_t done = 0;
  while (done < count) {
    const int rc = ::sendmmsg(send_fd_, msgs.data() + done,
                              static_cast<unsigned>(count - done), 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      sendmmsg_calls_->add();
      attributor_.resolve_unsent(ticket, done, std::move(probes[done]));
      ++done;
      continue;
    }
    sendmmsg_calls_->add();
    send_datagrams_->add(static_cast<std::uint64_t>(rc));
    for (std::size_t slot = done; slot < done + static_cast<std::size_t>(rc);
         ++slot) {
      attributor_.add_pending(ReplyAttributor::PendingSlot{
          ticket, slot, std::move(probes[slot]), now, deadline});
    }
    done += static_cast<std::size_t>(rc);
  }
}

void RawSocketNetwork::drain_replies() {
  const bool v6 = config_.family == net::Family::kIpv6;
  std::array<std::array<std::uint8_t, 2048>, kRecvBatch> buffers;
  std::array<sockaddr_in6, kRecvBatch> froms;
  alignas(cmsghdr) std::array<std::array<std::uint8_t, 256>, kRecvBatch>
      controls;
  std::array<iovec, kRecvBatch> iovs;
  std::array<mmsghdr, kRecvBatch> msgs;

  while (!attributor_.pending_slots().empty()) {
    for (unsigned i = 0; i < kRecvBatch; ++i) {
      iovs[i] = iovec{buffers[i].data(), buffers[i].size()};
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      if (v6) {
        froms[i] = sockaddr_in6{};
        controls[i].fill(0);
        msgs[i].msg_hdr.msg_name = &froms[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(froms[i]);
        msgs[i].msg_hdr.msg_control = controls[i].data();
        msgs[i].msg_hdr.msg_controllen = controls[i].size();
      }
    }
    const int rc =
        ::recvmmsg(recv_fd_, msgs.data(), kRecvBatch, MSG_DONTWAIT, nullptr);
    if (rc <= 0) return;  // dry (EAGAIN), interrupted, or transient error
    recvmmsg_calls_->add();
    recv_datagrams_->add(static_cast<std::uint64_t>(rc));

    const auto now = Clock::now();
    for (int i = 0; i < rc; ++i) {
      if (attributor_.pending_slots().empty()) break;
      const auto n = static_cast<std::size_t>(msgs[i].msg_len);
      if (n == 0) continue;
      std::vector<std::uint8_t> reply;
      if (v6) {
        int hop_limit = 64;
        for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cmsg != nullptr;
             cmsg = CMSG_NXTHDR(&msgs[i].msg_hdr, cmsg)) {
          if (cmsg->cmsg_level == IPPROTO_IPV6 &&
              cmsg->cmsg_type == IPV6_HOPLIMIT) {
            std::memcpy(&hop_limit, CMSG_DATA(cmsg), sizeof(int));
          }
        }
        net::IpAddress::Bytes src_bytes{};
        std::memcpy(src_bytes.data(), froms[i].sin6_addr.s6_addr, 16);
        reply = reconstruct_ipv6_reply(
            {buffers[i].data(), n}, net::IpAddress::v6(src_bytes), hop_limit,
            attributor_.pending_slots().front().probe.src());
      } else {
        reply.assign(buffers[i].data(), buffers[i].data() + n);
      }
      net::ParsedReply got;
      try {
        got = net::parse_reply(reply);
      } catch (const ParseError&) {
        continue;  // not an ICMP shape we understand
      }
      attributor_.attribute(got, std::move(reply), now);
    }
    if (rc < static_cast<int>(kRecvBatch)) return;  // socket drained
  }
}

std::vector<Completion> RawSocketNetwork::poll_completions() {
  while (!attributor_.has_ready() && !attributor_.pending_slots().empty()) {
    // Recompute the remaining budget from the monotonic clock on every
    // WAKEUP — EINTR, a stray packet, or poll()'s millisecond-truncated
    // timeout must not shorten (or extend) any ticket's deadline. The
    // recompute is hoisted out of the datagram loop: a burst of replies
    // costs one budget derivation, not one per packet.
    const auto now = Clock::now();
    attributor_.expire(now);
    if (attributor_.has_ready()) break;

    const auto earliest = *attributor_.earliest_deadline();
    budget_recomputes_->add();

    pollfd pfd{recv_fd_, POLLIN, 0};
    poll_calls_->add();
    const int rc = ::poll(&pfd, 1, poll_budget_ms(now, earliest));
    if (rc < 0) {
      if (errno == EINTR) continue;  // loop top re-derives the budget
      throw SystemError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) continue;  // maybe expired: the loop top decides
    drain_replies();
  }
  return attributor_.take_ready();
}

void RawSocketNetwork::cancel(Ticket ticket) { attributor_.cancel(ticket); }

std::size_t RawSocketNetwork::pending() const {
  return attributor_.unresolved();
}

}  // namespace mmlpt::probe
