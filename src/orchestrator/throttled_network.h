// Transport decorator that charges every outgoing probe against a shared
// fleet-wide RateLimiter before handing it to the inner transport. Each
// worker wraps its own transport instance around the ONE limiter the
// scheduler owns — that is how "packets per second" means fleet packets,
// not per-worker packets.
//
// On the submit/completion seam the charge happens at submit() time —
// one token per probe in the submitted window, paid up front and chunked
// to the burst size by the limiter. Completions pass through untouched,
// so the token count is a pure function of what was submitted, no matter
// how completions interleave across merged traces.
#ifndef MMLPT_ORCHESTRATOR_THROTTLED_NETWORK_H
#define MMLPT_ORCHESTRATOR_THROTTLED_NETWORK_H

#include "orchestrator/rate_limiter.h"
#include "probe/transport_queue.h"

namespace mmlpt::orchestrator {

class ThrottledNetwork final : public probe::TransportQueue {
 public:
  /// Both the inner transport and the limiter must outlive this decorator.
  ThrottledNetwork(probe::TransportQueue& inner, RateLimiter& limiter)
      : inner_(&inner), limiter_(&limiter) {}

  /// A window of N probes costs N tokens at submit, then ships as one
  /// inner submission; poll/cancel forward untouched.
  void submit(std::span<const probe::Datagram> window, probe::Ticket ticket,
              const probe::SubmitOptions& options) override;
  using probe::TransportQueue::submit;
  [[nodiscard]] std::vector<probe::Completion> poll_completions() override;
  void cancel(probe::Ticket ticket) override;
  [[nodiscard]] std::size_t pending() const override;

 private:
  probe::TransportQueue* inner_;
  RateLimiter* limiter_;
};

}  // namespace mmlpt::orchestrator

#endif  // MMLPT_ORCHESTRATOR_THROTTLED_NETWORK_H
