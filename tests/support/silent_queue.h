// Test-only TransportQueue that answers nothing. submit() buffers the
// window; poll_completions() resolves every buffered slot in submission
// order — canceled when cancel() named its ticket, else unanswered —
// and records the bytes of each unanswered slot in `sent`, so a test can
// inspect exactly what reached the wire.
#ifndef MMLPT_TESTS_SUPPORT_SILENT_QUEUE_H
#define MMLPT_TESTS_SUPPORT_SILENT_QUEUE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "probe/transport_queue.h"

namespace mmlpt::probe {

class SilentQueue final : public TransportQueue {
 public:
  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions& /*options*/) override {
    for (std::size_t slot = 0; slot < window.size(); ++slot) {
      buffered_.push_back({ticket, slot, window[slot].bytes, false});
    }
  }
  using TransportQueue::submit;

  [[nodiscard]] std::vector<Completion> poll_completions() override {
    std::vector<Completion> completions;
    for (auto& probe : buffered_) {
      if (!probe.canceled) sent.push_back(std::move(probe.bytes));
      completions.push_back(
          {probe.ticket, probe.slot, std::nullopt, probe.canceled});
    }
    buffered_.clear();
    return completions;
  }

  void cancel(Ticket ticket) override {
    for (auto& probe : buffered_) {
      if (probe.ticket == ticket) probe.canceled = true;
    }
  }

  [[nodiscard]] std::size_t pending() const override {
    return buffered_.size();
  }

  /// Every datagram resolved unanswered, in resolution order.
  std::vector<std::vector<std::uint8_t>> sent;

 private:
  struct Buffered {
    Ticket ticket = 0;
    std::size_t slot = 0;
    std::vector<std::uint8_t> bytes;
    bool canceled = false;
  };
  std::vector<Buffered> buffered_;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_TESTS_SUPPORT_SILENT_QUEUE_H
