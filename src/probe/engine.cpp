#include "probe/engine.h"

#include <algorithm>

#include "common/assert.h"
#include "net/packet.h"
#include "obs/trace_events.h"

namespace mmlpt::probe {

ProbeEngine::ProbeEngine(TransportQueue& network, Config config)
    : network_(&network), config_(config) {
  MMLPT_EXPECTS(!config_.destination.is_unspecified());
  MMLPT_EXPECTS(config_.source.family() == config_.destination.family());
  if (config_.metrics != nullptr) {
    retries_ = config_.metrics->counter(
        "mmlpt_probe_retries_total",
        "Probes resent after an unanswered attempt");
    rtt_seconds_ = config_.metrics->histogram(
        "mmlpt_probe_rtt_seconds", "Round-trip time of answered probes",
        {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
         1.0, 2.5});
  }
}

std::vector<std::optional<Received>> ProbeEngine::transact_window(
    std::span<const Datagram> window) {
  obs::Span span("window", "probe");
  span.arg("probes", static_cast<double>(window.size()));
  const Ticket ticket = next_ticket_++;
  network_->submit(window, ticket);
  std::vector<std::optional<Received>> replies(window.size());
  std::size_t outstanding = window.size();
  while (outstanding > 0) {
    auto completions = network_->poll_completions();
    MMLPT_ASSERT(!completions.empty());
    for (auto& completion : completions) {
      // The engine owns this queue's tickets, so every completion is ours.
      MMLPT_ASSERT(completion.ticket == ticket);
      MMLPT_ASSERT(completion.slot < replies.size());
      replies[completion.slot] = std::move(completion.reply);
      --outstanding;
    }
  }
  return replies;
}

std::pair<std::uint16_t, std::uint16_t> ProbeEngine::flow_ports(
    FlowId flow) const noexcept {
  if (family() == net::Family::kIpv6) {
    // IPv6 Paris: the flow identifier lives in the flow label; ports are
    // constant so across flows only the label varies on the wire.
    return {config_.base_src_port, config_.base_dst_port};
  }
  // Source port walks the range [base, 65536); once exhausted the
  // destination port steps, opening a fresh cycle of distinct 5-tuples.
  const std::uint32_t cycle = 65536u - config_.base_src_port;
  const auto src = static_cast<std::uint16_t>(config_.base_src_port +
                                              flow % cycle);
  const auto dst =
      static_cast<std::uint16_t>(config_.base_dst_port + flow / cycle);
  return {src, dst};
}

std::uint32_t ProbeEngine::flow_label(FlowId flow) const {
  MMLPT_EXPECTS(flow <= net::kMaxFlowLabel);
  return flow;
}

TraceProbeResult ProbeEngine::probe(FlowId flow, std::uint8_t ttl) {
  // A one-element window: probe_batch's retry rounds, ip-id allocation
  // and clock accounting reduce exactly to the serial send-then-wait
  // loop, so the serial path cannot drift from the windowed one.
  const ProbeRequest request{flow, ttl};
  auto results = probe_batch({&request, 1});
  return std::move(results.front());
}

template <typename Result, typename Build, typename Accept>
std::vector<Result> ProbeEngine::retry_rounds(std::size_t count, Build&& build,
                                              Accept&& accept) {
  std::vector<Result> results(count);
  std::vector<std::size_t> pending(count);
  for (std::size_t i = 0; i < count; ++i) pending[i] = i;

  for (int attempt = 0; attempt <= config_.max_retries && !pending.empty();
       ++attempt) {
    if (attempt > 0 && retries_ != nullptr) retries_->add(pending.size());
    std::vector<Datagram> window;
    window.reserve(pending.size());
    for (const std::size_t i : pending) {
      const std::uint16_t ip_id = next_probe_ip_id_++;
      auto datagram = build(i, ip_id);
      now_ += kSendInterval;
      ++packets_sent_;
      results[i].probe_ip_id = ip_id;
      results[i].send_time = now_;
      window.push_back(Datagram{std::move(datagram), now_});
    }

    const auto replies = transact_window(window);
    MMLPT_ASSERT(replies.size() == pending.size());
    std::vector<std::size_t> still_pending;
    Nanos latest_reply = now_;
    for (std::size_t slot = 0; slot < pending.size(); ++slot) {
      const std::size_t i = pending[slot];
      if (!replies[slot]) {
        still_pending.push_back(i);
        continue;
      }
      const auto reply = net::parse_reply(replies[slot]->datagram);
      auto& result = results[i];
      if (!accept(i, reply, replies[slot]->rtt, result)) {
        still_pending.push_back(i);
        continue;
      }
      result.answered = true;
      result.responder = reply.responder();
      result.reply_ip_id = reply.reply_ip_id();
      result.reply_ttl = reply.reply_ttl();
      result.recv_time = result.send_time + replies[slot]->rtt;
      result.attempts = attempt + 1;
      if (rtt_seconds_ != nullptr) {
        rtt_seconds_->observe(static_cast<double>(replies[slot]->rtt) / 1e9);
      }
      latest_reply = std::max(latest_reply, result.recv_time);
    }
    now_ = latest_reply;  // the window waits for its slowest answer
    pending = std::move(still_pending);
  }
  for (const std::size_t i : pending) {
    results[i].attempts = config_.max_retries + 1;
  }
  return results;
}

std::vector<TraceProbeResult> ProbeEngine::probe_batch(
    std::span<const ProbeRequest> requests) {
  for (const auto& request : requests) MMLPT_EXPECTS(request.ttl >= 1);
  const auto build = [&](std::size_t i, std::uint16_t ip_id) {
    net::ProbeSpec spec;
    spec.src = config_.source;
    spec.dst = config_.destination;
    const auto [src_port, dst_port] = flow_ports(requests[i].flow);
    spec.src_port = src_port;
    spec.dst_port = dst_port;
    spec.ttl = requests[i].ttl;
    spec.ip_id = ip_id;
    if (family() == net::Family::kIpv6) {
      spec.flow_label = flow_label(requests[i].flow);
      // v6 has no identification field; encode the TTL in the payload
      // length instead (classic traceroute style) so a raw-socket
      // receive loop can attribute a quoted reply to the right TTL of
      // a flow. Constant per TTL: flows still differ only in the label.
      spec.payload_bytes = static_cast<std::uint16_t>(12 + requests[i].ttl);
    }
    ++trace_probes_sent_;
    return net::build_udp_probe(spec);
  };
  const auto accept = [&](std::size_t i, const net::ParsedReply& reply,
                          Nanos rtt, TraceProbeResult& result) {
    result.from_destination = reply.is_port_unreachable();
    result.mpls_labels = reply.mpls_labels();
    obs::instant("rtt_sample", "probe",
                 {{"ttl", static_cast<double>(requests[i].ttl)},
                  {"rtt_us", static_cast<double>(rtt) / 1e3}});
    return true;
  };
  return retry_rounds<TraceProbeResult>(requests.size(), build, accept);
}

std::vector<EchoProbeResult> ProbeEngine::ping_batch(
    std::span<const net::IpAddress> targets) {
  const auto build = [&](std::size_t i, std::uint16_t ip_id) {
    ++echo_probes_sent_;
    return net::build_echo_probe(config_.source, targets[i],
                                 /*identifier=*/0x4D4C /* "ML" */,
                                 next_echo_sequence_++, /*ttl=*/64, ip_id);
  };
  // Anything but an Echo Reply counts as unanswered.
  const auto accept = [](std::size_t, const net::ParsedReply& reply, Nanos,
                         EchoProbeResult&) { return reply.is_echo_reply(); };
  return retry_rounds<EchoProbeResult>(targets.size(), build, accept);
}

}  // namespace mmlpt::probe
