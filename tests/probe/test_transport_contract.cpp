// Backend-conformance suite: one contract, every transport. The
// TransportQueue promises — each submitted slot resolves exactly once
// (reply, unanswered or canceled), poll_completions() blocks until at
// least one pending slot resolves and returns empty only when nothing is
// pending, per-ticket deadlines expire unanswered slots, duplicate
// probes resolve distinct slots, EINTR never wedges the receive loop —
// are exercised against SimulatedNetwork and RawSocketNetwork (real
// kernel loopback: a UDP probe at a closed port draws an ICMP
// port-unreachable, a bound-but-unread UDP socket is a blackhole). The
// raw-socket leg needs CAP_NET_RAW; without it the leg SKIPS visibly
// instead of silently passing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <netinet/in.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/validation.h"
#include "fakeroute/simulator.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "probe/raw_socket_network.h"
#include "probe/simulated_network.h"
#include "topology/reference.h"

namespace mmlpt::probe {
namespace {

/// One transport under test. `blackhole` selects whether probes built by
/// probe() will draw replies (false) or vanish on the wire (true) — for
/// the simulator that is a lossy world, for the loopback backends it is
/// the destination port (closed port replies, a bound-but-unread UDP
/// socket swallows).
class TransportHarness {
 public:
  virtual ~TransportHarness() = default;
  /// Prepare a fresh backend; empty return = ready, otherwise the skip
  /// reason (missing privilege / kernel capability).
  [[nodiscard]] virtual std::string setup(bool blackhole) = 0;
  [[nodiscard]] virtual TransportQueue& network() = 0;
  /// A well-formed IPv4 UDP Paris probe, flow-distinguished by `flow`
  /// and per-probe-discriminated by `ip_id`.
  [[nodiscard]] virtual std::vector<std::uint8_t> probe(
      std::uint16_t flow, std::uint16_t ip_id) = 0;
};

class SimulatedHarness final : public TransportHarness {
 public:
  std::string setup(bool blackhole) override {
    truth_ = core::plain_ground_truth(topo::simplest_diamond());
    fakeroute::SimConfig config;
    if (blackhole) config.loss_prob = 1.0;  // every reply vanishes
    simulator_ = std::make_unique<fakeroute::Simulator>(truth_, config, 7);
    network_ = std::make_unique<SimulatedNetwork>(*simulator_);
    return "";
  }
  TransportQueue& network() override { return *network_; }
  std::vector<std::uint8_t> probe(std::uint16_t flow,
                                  std::uint16_t ip_id) override {
    net::ProbeSpec spec;
    spec.src = truth_.source;
    spec.dst = truth_.destination;
    spec.src_port = static_cast<std::uint16_t>(33434 + flow);
    spec.dst_port = 33434;
    spec.ttl = 2;
    spec.ip_id = ip_id;
    return net::build_udp_probe(spec);
  }

 private:
  topo::GroundTruth truth_;
  std::unique_ptr<fakeroute::Simulator> simulator_;
  std::unique_ptr<SimulatedNetwork> network_;
};

/// The poll backend over loopback: probes travel 127.0.0.1 -> 127.0.0.1
/// (loopback ICMP generation is not rate-limited by Linux). The
/// blackhole mode binds a UDP socket and never reads it: delivered
/// datagrams are consumed without any ICMP.
class RawSocketHarness final : public TransportHarness {
 public:
  ~RawSocketHarness() override {
    if (sink_fd_ >= 0) ::close(sink_fd_);
  }

  std::string setup(bool blackhole) override {
    if (blackhole) {
      sink_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
      if (sink_fd_ < 0) return "cannot open UDP blackhole socket";
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;
      if (::bind(sink_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        return "cannot bind UDP blackhole socket";
      }
      socklen_t len = sizeof(addr);
      ::getsockname(sink_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
      dst_port_ = ntohs(addr.sin_port);
    } else {
      // A high port with nothing listening: the kernel answers each UDP
      // datagram with ICMP destination-unreachable (port).
      dst_port_ = 48879;
    }
    RawSocketNetwork::Config config;
    config.reply_timeout = std::chrono::milliseconds(2000);
    try {
      network_ = std::make_unique<RawSocketNetwork>(config, registry_);
    } catch (const SystemError& e) {
      return std::string("raw sockets unavailable (needs CAP_NET_RAW): ") +
             e.what();
    }
    return "";
  }

  TransportQueue& network() override { return *network_; }

  std::vector<std::uint8_t> probe(std::uint16_t flow,
                                  std::uint16_t ip_id) override {
    net::ProbeSpec spec;
    spec.src = net::IpAddress::parse_or_throw("127.0.0.1");
    spec.dst = net::IpAddress::parse_or_throw("127.0.0.1");
    spec.src_port = static_cast<std::uint16_t>(40000 + flow);
    spec.dst_port = dst_port_;
    spec.ttl = 64;
    spec.ip_id = ip_id;
    return net::build_udp_probe(spec);
  }

  /// The poll backend's series `name` (transport="poll").
  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return registry_.counter(name, "", {{"transport", "poll"}})->value();
  }

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<RawSocketNetwork> network_;
  int sink_fd_ = -1;
  std::uint16_t dst_port_ = 0;
};

struct BackendParam {
  const char* name;
  std::unique_ptr<TransportHarness> (*make)();
};

// Names the parameter in test listings (the default prints its raw
// bytes, which change from run to run).
void PrintTo(const BackendParam& param, std::ostream* os) { *os << param.name; }

class TransportContract : public ::testing::TestWithParam<BackendParam> {
 protected:
  /// Build the harness in the requested mode or SKIP with its reason.
  void setup(bool blackhole) {
    harness_ = GetParam().make();
    const auto reason = harness_->setup(blackhole);
    if (!reason.empty()) GTEST_SKIP() << reason;
  }

  /// Poll until every submitted slot of `expected` (ticket -> slots) has
  /// resolved, asserting the exactly-once contract along the way. Output
  /// parameter because ASSERT_* needs a void-returning function.
  void drain_all(TransportQueue& network, std::size_t expected,
                 std::vector<Completion>& all) {
    std::map<std::pair<Ticket, std::size_t>, int> seen;
    while (all.size() < expected) {
      ASSERT_GT(network.pending(), 0u)
          << "pending() hit 0 with slots still unresolved";
      auto batch = network.poll_completions();
      ASSERT_FALSE(batch.empty())
          << "poll_completions returned empty with slots pending";
      for (auto& completion : batch) {
        ++seen[{completion.ticket, completion.slot}];
        all.push_back(std::move(completion));
      }
    }
    for (const auto& [key, count] : seen) {
      EXPECT_EQ(count, 1) << "slot resolved " << count << " times (ticket "
                          << key.first << ", slot " << key.second << ")";
    }
    EXPECT_EQ(network.pending(), 0u);
    EXPECT_TRUE(network.poll_completions().empty());
  }

  std::vector<Datagram> window(std::size_t n, std::uint16_t flow_base = 0) {
    std::vector<Datagram> datagrams;
    for (std::size_t i = 0; i < n; ++i) {
      datagrams.push_back(Datagram{
          harness_->probe(static_cast<std::uint16_t>(flow_base + i),
                          static_cast<std::uint16_t>(flow_base + i + 1)),
          static_cast<Nanos>(i + 1) * 1'000'000});
    }
    return datagrams;
  }

  /// Submit `rounds` answered windows of `size` slots back to back, all on
  /// `ticket`; every slot of every round must draw a reply.
  void reuse_ticket(Ticket ticket, std::size_t size, int rounds) {
    auto& network = harness_->network();
    for (int round = 0; round < rounds; ++round) {
      const auto probes = window(size, static_cast<std::uint16_t>(round * 4));
      network.submit(probes, ticket);
      std::vector<Completion> completions;
      drain_all(network, probes.size(), completions);
      if (HasFatalFailure()) return;
      for (const auto& completion : completions) {
        EXPECT_EQ(completion.ticket, ticket);
        EXPECT_TRUE(completion.reply.has_value()) << "round " << round;
      }
    }
  }

  std::unique_ptr<TransportHarness> harness_;
};

TEST_P(TransportContract, EverySlotResolvesExactlyOnceWithReplies) {
  setup(/*blackhole=*/false);
  auto& network = harness_->network();
  const auto probes = window(6);
  network.submit(probes, /*ticket=*/21);
  EXPECT_EQ(network.pending(), probes.size());

  std::vector<Completion> completions;
  drain_all(network, probes.size(), completions);
  std::size_t answered = 0;
  for (const auto& completion : completions) {
    EXPECT_EQ(completion.ticket, 21u);
    EXPECT_LT(completion.slot, probes.size());
    EXPECT_FALSE(completion.canceled);
    if (completion.reply) {
      ++answered;
      EXPECT_FALSE(completion.reply->datagram.empty());
    }
  }
  // Loopback and the lossless simulator both answer everything.
  EXPECT_EQ(answered, probes.size());
}

TEST_P(TransportContract, DeadlineExpiresBlackholedSlotsUnanswered) {
  setup(/*blackhole=*/true);
  auto& network = harness_->network();
  const auto probes = window(3);
  SubmitOptions options;
  options.deadline = 150'000'000;  // 150 ms, well under reply_timeout
  const auto start = std::chrono::steady_clock::now();
  network.submit(probes, /*ticket=*/5, options);
  std::vector<Completion> completions;
  drain_all(network, probes.size(), completions);
  const auto waited = std::chrono::steady_clock::now() - start;
  for (const auto& completion : completions) {
    EXPECT_EQ(completion.ticket, 5u);
    EXPECT_FALSE(completion.reply.has_value());
    EXPECT_FALSE(completion.canceled);
  }
  // The expiry must come from the per-ticket deadline, not the (much
  // longer) config reply timeout.
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
}

TEST_P(TransportContract, CancelInFlightResolvesEverySlot) {
  setup(/*blackhole=*/true);
  auto& network = harness_->network();
  const auto doomed = window(2, /*flow_base=*/0);
  const auto kept = window(2, /*flow_base=*/8);
  SubmitOptions options;
  options.deadline = 200'000'000;
  network.submit(doomed, /*ticket=*/1, options);
  network.submit(kept, /*ticket=*/2, options);
  network.cancel(1);

  std::vector<Completion> completions;
  drain_all(network, doomed.size() + kept.size(), completions);
  for (const auto& completion : completions) {
    EXPECT_FALSE(completion.reply.has_value());
    if (completion.canceled) {
      EXPECT_EQ(completion.ticket, 1u);
    }
    // The SimulatedNetwork resolves at submit, so ticket 1's slots may
    // legally surface resolved-not-canceled; ticket 2 must never be
    // canceled.
    if (completion.ticket == 2u) {
      EXPECT_FALSE(completion.canceled);
    }
  }
}

TEST_P(TransportContract, DuplicateProbesResolveDistinctSlots) {
  setup(/*blackhole=*/false);
  auto& network = harness_->network();
  // Two byte-identical probes in one window: two replies quote the same
  // flow AND the same per-probe id, and attribution must spread them
  // over both slots instead of resolving one slot twice.
  std::vector<Datagram> probes;
  probes.push_back(Datagram{harness_->probe(0, 1), 1'000'000});
  probes.push_back(Datagram{harness_->probe(0, 1), 2'000'000});
  network.submit(probes, /*ticket=*/3);
  std::vector<Completion> completions;
  drain_all(network, probes.size(), completions);
  EXPECT_EQ(completions.size(), 2u);
}

TEST_P(TransportContract, PollSurvivesEintrStormWithoutWedging) {
  setup(/*blackhole=*/true);
  auto& network = harness_->network();

  // A 5 ms SIGALRM drumbeat without SA_RESTART: every blocking wait in
  // the receive loop keeps getting interrupted and must re-derive its
  // remaining budget instead of wedging or throwing.
  struct sigaction action{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous{};
  ASSERT_EQ(::sigaction(SIGALRM, &action, &previous), 0);
  itimerval timer{};
  timer.it_interval.tv_usec = 5'000;
  timer.it_value.tv_usec = 5'000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);

  const auto probes = window(2);
  SubmitOptions options;
  options.deadline = 120'000'000;  // 120 ms: ~24 interruptions
  network.submit(probes, /*ticket=*/11, options);
  std::vector<Completion> completions;
  drain_all(network, probes.size(), completions);

  itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &previous, nullptr);

  for (const auto& completion : completions) {
    EXPECT_FALSE(completion.reply.has_value());
  }
}

// A ticket whose window settled may be reused by the next submit: the
// fresh window must draw its own replies, never inherit the settled
// window's deadline or late replies.
TEST_P(TransportContract, SubmitReusingASettledTicketDrawsFreshReplies) {
  setup(/*blackhole=*/false);
  reuse_ticket(/*ticket=*/9, /*size=*/3, /*rounds=*/3);
}

// The one-slot case of the same hazard (regression: back-to-back one-slot
// windows on ticket 0 resolved unanswered after the first).
TEST_P(TransportContract, OneSlotWindowsBackToBackReuseTicketSafely) {
  setup(/*blackhole=*/false);
  reuse_ticket(/*ticket=*/0, /*size=*/1, /*rounds=*/3);
}

TEST_P(TransportContract, PollWithNothingPendingReturnsEmpty) {
  setup(/*blackhole=*/false);
  auto& network = harness_->network();
  EXPECT_EQ(network.pending(), 0u);
  EXPECT_TRUE(network.poll_completions().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportContract,
    ::testing::Values(
        BackendParam{"Simulated",
                     +[]() -> std::unique_ptr<TransportHarness> {
                       return std::make_unique<SimulatedHarness>();
                     }},
        BackendParam{"RawSocket",
                     +[]() -> std::unique_ptr<TransportHarness> {
                       return std::make_unique<RawSocketHarness>();
                     }}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return info.param.name;
    });

// ---- poll-backend syscall-shape regressions (loopback only) ------------

TEST(RawSocketSyscallShape, WindowGoesOutInOneSendBatch) {
  RawSocketHarness harness;
  const auto reason = harness.setup(/*blackhole=*/false);
  if (!reason.empty()) GTEST_SKIP() << reason;
  auto& network = harness.network();

  std::vector<Datagram> probes;
  for (std::uint16_t i = 0; i < 16; ++i) {
    probes.push_back(Datagram{
        harness.probe(i, static_cast<std::uint16_t>(i + 1)),
        static_cast<Nanos>(i + 1) * 1'000'000});
  }
  network.submit(probes, /*ticket=*/1);
  EXPECT_EQ(harness.counter("mmlpt_transport_probes_sent_total"),
            probes.size());
  // sendmmsg ships the whole window; allow a partial-send retry but not
  // a per-datagram loop.
  EXPECT_LE(harness.counter("mmlpt_transport_sendmmsg_calls_total"), 2u);

  while (network.pending() > 0) {
    if (network.poll_completions().empty()) break;
  }
  EXPECT_GE(harness.counter("mmlpt_transport_replies_received_total"),
            probes.size());
}

TEST(RawSocketSyscallShape, BudgetRecomputedPerWakeupNotPerDatagram) {
  RawSocketHarness harness;
  const auto reason = harness.setup(/*blackhole=*/false);
  if (!reason.empty()) GTEST_SKIP() << reason;
  auto& network = harness.network();

  std::vector<Datagram> probes;
  for (std::uint16_t i = 0; i < 24; ++i) {
    probes.push_back(Datagram{
        harness.probe(i, static_cast<std::uint16_t>(i + 1)),
        static_cast<Nanos>(i + 1) * 1'000'000});
  }
  network.submit(probes, /*ticket=*/1);
  while (network.pending() > 0) {
    if (network.poll_completions().empty()) break;
  }
  EXPECT_GE(harness.counter("mmlpt_transport_replies_received_total"),
            probes.size());
  // The regression this guards: the old loop re-derived the poll budget
  // for every received datagram. The discipline is once per wakeup —
  // exactly one recompute per poll() call, however many datagrams the
  // recvmmsg drain scoops up.
  EXPECT_EQ(harness.counter("mmlpt_transport_budget_recomputes_total"),
            harness.counter("mmlpt_transport_poll_calls_total"));
}

}  // namespace
}  // namespace mmlpt::probe
