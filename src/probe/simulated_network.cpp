#include "probe/simulated_network.h"

namespace mmlpt::probe {

void SimulatedNetwork::submit(std::span<const Datagram> window, Ticket ticket,
                              const SubmitOptions& /*options*/) {
  ready_.reserve(ready_.size() + window.size());
  for (std::size_t slot = 0; slot < window.size(); ++slot) {
    Completion completion;
    completion.ticket = ticket;
    completion.slot = slot;
    auto reply = simulator_->handle(window[slot].bytes, window[slot].at);
    if (reply) {
      completion.reply = Received{std::move(reply->datagram), reply->rtt};
    }
    ready_.push_back(std::move(completion));
  }
}

std::vector<Completion> SimulatedNetwork::poll_completions() {
  auto completions = std::move(ready_);
  ready_.clear();
  return completions;
}

void SimulatedNetwork::cancel(Ticket /*ticket*/) {
  // Every slot resolves at submit(); there is never anything to cancel.
}

std::size_t SimulatedNetwork::pending() const { return ready_.size(); }

}  // namespace mmlpt::probe
