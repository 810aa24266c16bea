// Timing decorators the traced pass slips under the tracers, from outside
// the library: a TransportQueue over probe::SimulatedNetwork (Fakeroute's
// cost plus the queue hand-off) and a core::StopSet over the fleet's
// orchestrator::SharedStopSet. Both forward every call unchanged, so the
// output bytes match the undecorated entry points.
#ifndef MMLPT_PERFBENCH_DECORATORS_H
#define MMLPT_PERFBENCH_DECORATORS_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/stop_set.h"
#include "ledger.h"
#include "probe/transport_queue.h"

namespace perfbench {

/// A bounded sample of the datagrams that crossed the transport (every
/// kStride-th offer per thread, so the run's probe mix is represented), kept so
/// net's build and parse costs can be timed in isolation afterwards.
class DatagramSample {
 public:
  explicit DatagramSample(std::size_t cap) : cap_(cap) {}

  void offer_probe(std::span<const std::uint8_t> bytes);
  void offer_reply(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& probes() const {
    return probes_;
  }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& replies() const {
    return replies_;
  }

 private:
  static constexpr std::uint64_t kStride = 31;
  std::size_t cap_;
  std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> probes_;
  std::vector<std::vector<std::uint8_t>> replies_;
};

class TimedQueue final : public mmlpt::probe::TransportQueue {
 public:
  TimedQueue(mmlpt::probe::TransportQueue& inner, Ledger& ledger,
             DatagramSample& sample)
      : inner_(&inner), ledger_(&ledger), sample_(&sample) {}

  void submit(std::span<const mmlpt::probe::Datagram> window,
              mmlpt::probe::Ticket ticket,
              const mmlpt::probe::SubmitOptions& options) override;
  using TransportQueue::submit;
  [[nodiscard]] std::vector<mmlpt::probe::Completion> poll_completions()
      override;
  void cancel(mmlpt::probe::Ticket ticket) override { inner_->cancel(ticket); }
  [[nodiscard]] std::size_t pending() const override {
    return inner_->pending();
  }

 private:
  mmlpt::probe::TransportQueue* inner_;
  Ledger* ledger_;
  DatagramSample* sample_;
};

class TimedStopSet final : public mmlpt::core::StopSet {
 public:
  TimedStopSet(mmlpt::core::StopSet& inner, Ledger& ledger)
      : inner_(&inner), ledger_(&ledger) {}

  [[nodiscard]] bool contains(const mmlpt::net::IpAddress& addr,
                              int distance) const override;
  void record(const mmlpt::net::IpAddress& addr, int distance) override;
  [[nodiscard]] std::optional<mmlpt::core::DestinationRecord> destination(
      const mmlpt::net::IpAddress& addr) const override;
  void record_destination(
      const mmlpt::net::IpAddress& addr,
      const mmlpt::core::DestinationRecord& record) override;
  [[nodiscard]] int midpoint_ttl() const override;

 private:
  mmlpt::core::StopSet* inner_;
  Ledger* ledger_;
};

}  // namespace perfbench

#endif  // MMLPT_PERFBENCH_DECORATORS_H
