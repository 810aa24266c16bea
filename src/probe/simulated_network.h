// Transport backend that feeds probes to an in-process Fakeroute simulator.
#ifndef MMLPT_PROBE_SIMULATED_NETWORK_H
#define MMLPT_PROBE_SIMULATED_NETWORK_H

#include "fakeroute/simulator.h"
#include "probe/transport_queue.h"

namespace mmlpt::probe {

class SimulatedNetwork final : public TransportQueue {
 public:
  /// The simulator must outlive this adapter.
  explicit SimulatedNetwork(fakeroute::Simulator& simulator)
      : simulator_(&simulator) {}

  /// The simulator is a sequential machine with no real latency, so
  /// every slot resolves AT submit() — one virtual-time step per
  /// datagram, in submission order, deterministic for any window split.
  /// poll_completions() merely hands the resolved slots over; per-ticket
  /// deadlines never trigger.
  void submit(std::span<const Datagram> window, Ticket ticket,
              const SubmitOptions& options) override;
  using TransportQueue::submit;
  [[nodiscard]] std::vector<Completion> poll_completions() override;
  void cancel(Ticket ticket) override;
  [[nodiscard]] std::size_t pending() const override;

 private:
  fakeroute::Simulator* simulator_;
  std::vector<Completion> ready_;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_SIMULATED_NETWORK_H
