#include "orchestrator/throttled_network.h"

namespace mmlpt::orchestrator {

void ThrottledNetwork::submit(std::span<const probe::Datagram> window,
                              probe::Ticket ticket,
                              const probe::SubmitOptions& options) {
  if (!window.empty()) {
    limiter_->acquire(static_cast<int>(window.size()));
  }
  inner_->submit(window, ticket, options);
}

std::vector<probe::Completion> ThrottledNetwork::poll_completions() {
  return inner_->poll_completions();
}

void ThrottledNetwork::cancel(probe::Ticket ticket) { inner_->cancel(ticket); }

std::size_t ThrottledNetwork::pending() const { return inner_->pending(); }

}  // namespace mmlpt::orchestrator
