// Cooperative trace cancellation over the submit/completion seam.
//
// A CancelToken is a lock-free latch shared between whoever decides a
// trace must stop (a daemon client disconnecting, a SIGINT handler) and
// the transport stack doing the probing. CancellableNetwork is the
// decorator that honours it: wrapped around the outermost transport of a
// trace, it refuses new work once the token fires and — crucially —
// resolves the trace's IN-FLIGHT tickets through the inner queue's
// cancel() before aborting, so an abandoned trace stops spending probes
// instead of draining its deadlines. The abort surfaces as CanceledError,
// which unwinds through ProbeEngine and the tracer to whoever owns the
// trace.
//
// request() is async-signal-safe (a relaxed atomic store), so a signal
// handler may fire the token directly.
#ifndef MMLPT_PROBE_CANCEL_H
#define MMLPT_PROBE_CANCEL_H

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "common/error.h"
#include "probe/transport_queue.h"

namespace mmlpt::probe {

/// Thrown by CancellableNetwork when its token has fired; means "this
/// trace was abandoned", not "this trace failed".
class CanceledError : public Error {
 public:
  explicit CanceledError(const std::string& what) : Error(what) {}
};

/// One-way latch: once requested, stays requested. Safe to share across
/// threads and to fire from a signal handler.
class CancelToken {
 public:
  // relaxed (both ops): one-way latch carrying no dependent data — the
  // only contract is "eventually observed". The relaxed store keeps
  // request() async-signal-safe; the relaxed load matches it.
  void request() noexcept { requested_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool requested() const noexcept {
    return requested_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> requested_{false};
};

/// Transport decorator enforcing a CancelToken (see file comment). The
/// inner transport and the token must outlive the decorator. Like every
/// queue, a CancellableNetwork is a single-trace, single-threaded object;
/// only the token crosses threads.
class CancellableNetwork final : public TransportQueue {
 public:
  CancellableNetwork(TransportQueue& inner, const CancelToken& token)
      : inner_(&inner), token_(&token) {}

  /// Throws CanceledError before submitting once the token has fired
  /// (nothing was shipped, nothing needs cancelling).
  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions& options) override;
  using TransportQueue::submit;

  /// Once the token has fired: cancel every in-flight ticket through the
  /// inner queue, drain the resulting completions so the backend is left
  /// clean, then throw CanceledError. Otherwise forwards.
  [[nodiscard]] std::vector<Completion> poll_completions() override;

  void cancel(Ticket ticket) override;
  [[nodiscard]] std::size_t pending() const override;

  /// In-flight tickets resolved through inner cancel() by the abort path
  /// (tests assert the cancellation really reached the backend).
  [[nodiscard]] std::uint64_t tickets_canceled() const noexcept {
    return tickets_canceled_;
  }

 private:
  [[nodiscard]] bool canceled() const noexcept { return token_->requested(); }
  /// Cancel + drain every in-flight ticket; leaves inner_ with nothing
  /// pending. Then throws CanceledError.
  [[noreturn]] void abort_in_flight();

  TransportQueue* inner_;
  const CancelToken* token_;
  /// Unresolved slots per in-flight ticket (erased when fully resolved).
  std::unordered_map<Ticket, std::size_t> in_flight_;
  std::uint64_t tickets_canceled_ = 0;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_CANCEL_H
