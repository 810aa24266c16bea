#include "probe/cancel.h"

namespace mmlpt::probe {

void CancellableNetwork::submit(std::span<const Datagram> window,
                                Ticket ticket, const SubmitOptions& options) {
  if (canceled()) throw CanceledError("trace canceled before submit");
  inner_->submit(window, ticket, options);
  if (!window.empty()) in_flight_[ticket] += window.size();
}

std::vector<Completion> CancellableNetwork::poll_completions() {
  if (canceled()) abort_in_flight();
  auto completions = inner_->poll_completions();
  for (const auto& completion : completions) {
    const auto it = in_flight_.find(completion.ticket);
    if (it == in_flight_.end()) continue;
    if (--it->second == 0) in_flight_.erase(it);
  }
  return completions;
}

void CancellableNetwork::cancel(Ticket ticket) { inner_->cancel(ticket); }

std::size_t CancellableNetwork::pending() const { return inner_->pending(); }

void CancellableNetwork::abort_in_flight() {
  // Resolve every in-flight ticket as canceled (inner cancel() on an
  // already-resolved ticket is a documented no-op), then drain so the
  // backend holds no state for this trace when the exception unwinds.
  for (const auto& [ticket, remaining] : in_flight_) {
    inner_->cancel(ticket);
    ++tickets_canceled_;
  }
  in_flight_.clear();
  while (inner_->pending() > 0) (void)inner_->poll_completions();
  throw CanceledError("trace canceled with probes in flight");
}

}  // namespace mmlpt::probe
