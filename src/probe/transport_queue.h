// The transport seam: an asynchronous submit/completion queue. A caller
// submits a window of probe datagrams under a ticket, then polls for
// completions; replies surface as they arrive (or as their deadline
// expires), in whatever order the network produces them, tagged with
// (ticket, slot) so concurrent submitters can be demultiplexed over one
// shared transport.
//
// This is the one probing interface: ProbeEngine drives it directly, and
// every backend (SimulatedNetwork, RawSocketNetwork) and decorator
// (ThrottledNetwork, CancellableNetwork) implements it.
//
// Contract:
//   * submit() ships `window` as one in-flight batch. Tickets are chosen
//     by the caller and must be unique among that queue's in-flight
//     tickets; slots are indices into the submitted window.
//   * poll_completions() blocks until at least one pending slot resolves
//     and returns everything available; it returns empty ONLY when
//     nothing is pending. Every submitted slot resolves exactly once:
//     with a reply, unanswered (deadline), or canceled.
//   * cancel(ticket) resolves that ticket's still-pending slots as
//     canceled completions, surfaced by the next poll_completions().
//   * Queues are single-threaded objects unless documented otherwise.
#ifndef MMLPT_PROBE_TRANSPORT_QUEUE_H
#define MMLPT_PROBE_TRANSPORT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mmlpt::probe {

using Nanos = std::uint64_t;

struct Received {
  std::vector<std::uint8_t> datagram;
  Nanos rtt = 0;
};

/// One element of a probe window: the raw bytes plus the (virtual or
/// wall-clock) instant they are sent.
struct Datagram {
  std::vector<std::uint8_t> bytes;
  Nanos at = 0;
};

/// Caller-chosen identifier for one submitted window; unique among the
/// queue's in-flight tickets.
using Ticket = std::uint64_t;

/// One resolved slot of a submitted window.
struct Completion {
  Ticket ticket = 0;
  std::size_t slot = 0;           ///< index into the submitted window
  std::optional<Received> reply;  ///< nullopt: unanswered or canceled
  bool canceled = false;          ///< resolved by cancel(), not the wire
};

struct SubmitOptions {
  /// Per-ticket reply deadline in nanoseconds (wall clock on real
  /// transports): unanswered slots resolve once it elapses. nullopt uses
  /// the backend's default (RawSocketNetwork: Config::reply_timeout;
  /// simulated backends resolve instantly and never wait).
  std::optional<Nanos> deadline;
};

class TransportQueue {
 public:
  virtual ~TransportQueue() = default;

  /// Ship `window` as one in-flight batch identified by `ticket`. May
  /// block for pacing (rate limiting), never for replies.
  virtual void submit(std::span<const Datagram> window, Ticket ticket,
                      const SubmitOptions& options) = 0;
  void submit(std::span<const Datagram> window, Ticket ticket) {
    submit(window, ticket, SubmitOptions{});
  }

  /// Block until at least one pending slot resolves; return every
  /// completion available. Empty only when nothing is pending.
  [[nodiscard]] virtual std::vector<Completion> poll_completions() = 0;

  /// Resolve all still-pending slots of `ticket` as canceled; their
  /// completions surface on the next poll_completions(). Unknown or
  /// fully-resolved tickets are a no-op.
  virtual void cancel(Ticket ticket) = 0;

  /// Submitted slots whose completions poll_completions() has not yet
  /// returned.
  [[nodiscard]] virtual std::size_t pending() const = 0;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_TRANSPORT_QUEUE_H
