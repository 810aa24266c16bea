// Reply-to-probe attribution for the raw-socket transport.
//
// RawSocketNetwork decides HOW datagrams reach the wire and come back;
// WHAT a reply means — which pending slot it answers, whether it is a
// duplicate, when a slot's deadline expires — is this policy, kept apart
// from the socket plumbing. The matching rules are a two-tier
// discrimination:
//
//   * tier 1 (flow): quoted ports / flow label / echo identifier pair a
//     reply with a probe's flow,
//   * tier 2 (per-probe): the quoted IPv4 identification (or the
//     TTL-encoding IPv6 UDP length) picks the exact slot when several
//     probes of one flow are in flight at different TTLs.
//
// A ReplyAttributor owns the pending-slot table, the bounded memory of
// resolved probes (late/duplicate reply drop) and the ready-completion
// buffer; the backend feeds it sends, replies, deadlines and cancels and
// drains completions out of it.
#ifndef MMLPT_PROBE_REPLY_ATTRIBUTION_H
#define MMLPT_PROBE_REPLY_ATTRIBUTION_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/ip_address.h"
#include "net/packet.h"
#include "probe/transport_queue.h"

namespace mmlpt::obs {
class Counter;
}  // namespace mmlpt::obs

namespace mmlpt::probe {

/// True when `got` is the ICMP(v6) answer to `sent` (quoted ports / flow
/// label match, or echo identifier/sequence match). Struct level — the
/// receive loop parses each packet exactly once.
[[nodiscard]] bool reply_matches_probe(const net::ParsedProbe& sent,
                                       const net::ParsedReply& got);

/// True when the reply quotes the probe's per-probe discriminator that
/// reply_matches_probe() lacks: the IPv4 identification, or on IPv6 the
/// UDP length (the engine encodes the TTL there — v6 has no
/// identification). Two probes of the SAME flow at different TTLs carry
/// identical flow fields, so in-flight windows need this to attribute
/// each Time-Exceeded to the right slot. (Echo replies are already exact
/// per identifier/sequence.)
[[nodiscard]] bool reply_quotes_probe_id(const net::ParsedProbe& sent,
                                         const net::ParsedReply& got);

/// Rebuild a full IPv6 datagram around an ICMPv6 message the kernel
/// delivered header-less (`payload`, from a raw ICMPv6 socket):
/// source = the replying peer, destination = `reply_dst` (the probes'
/// crafted source), hop limit from the IPV6_HOPLIMIT ancillary value.
/// The kernel has already verified the ICMPv6 checksum and the
/// reconstructed header cannot re-verify it, so the checksum bytes are
/// zeroed — the parser's "unset, skip verification" convention.
[[nodiscard]] std::vector<std::uint8_t> reconstruct_ipv6_reply(
    std::span<std::uint8_t> payload, const net::IpAddress& peer,
    int hop_limit, const net::IpAddress& reply_dst);

/// The socket-independent half of the raw transport: pending slots with
/// per-ticket deadlines, two-tier reply attribution, duplicate/late
/// drop, cancel, and the ready-completion buffer. Single-threaded, like
/// the queue that embeds it.
class ReplyAttributor {
 public:
  using Clock = std::chrono::steady_clock;

  /// One in-flight probe slot awaiting its reply.
  struct PendingSlot {
    Ticket ticket = 0;
    std::size_t slot = 0;
    net::ParsedProbe probe;
    Clock::time_point sent_at;
    Clock::time_point deadline;
  };

  /// Bound on the resolved-probe memory used for the duplicate check.
  static constexpr std::size_t kResolvedMemory = 1024;

  /// Record one sent probe as awaiting its reply.
  void add_pending(PendingSlot slot);

  /// Resolve a slot that never reached the wire (send failure) as
  /// unanswered — a failed send behaves like a lost probe.
  void resolve_unsent(Ticket ticket, std::size_t slot,
                      net::ParsedProbe probe);

  /// Move every pending slot past its deadline into the ready buffer
  /// (unanswered).
  void expire(Clock::time_point now);

  /// Resolve every still-pending slot of `ticket` as canceled.
  void cancel(Ticket ticket);

  /// Counter bumped once per slot resolved by deadline expiry; null =
  /// uninstrumented. The owning backend points this at its
  /// `transport`-labeled deadline-expiry counter.
  void set_expiry_counter(obs::Counter* counter) noexcept {
    expiry_counter_ = counter;
  }

  /// Match one parsed reply against the pending slots (two-tier: exact
  /// per-probe discriminator first, flow-level fallback, duplicate
  /// drop); on a hit, resolve the slot into the ready buffer.
  void attribute(const net::ParsedReply& got, std::vector<std::uint8_t> reply,
                 Clock::time_point now);

  [[nodiscard]] bool has_ready() const noexcept { return !ready_.empty(); }
  [[nodiscard]] std::vector<Completion> take_ready();

  [[nodiscard]] const std::vector<PendingSlot>& pending_slots() const noexcept {
    return pending_;
  }
  /// Earliest deadline across the pending slots; nullopt when none.
  [[nodiscard]] std::optional<Clock::time_point> earliest_deadline() const;
  /// TransportQueue::pending() semantics: slots submitted but not yet
  /// returned by poll_completions().
  [[nodiscard]] std::size_t unresolved() const noexcept {
    return pending_.size() + ready_.size();
  }

 private:
  /// A slot already resolved — answered, expired or canceled — kept
  /// (parsed form only) so a late or duplicated reply that names it via
  /// the quoted per-probe discriminator is recognised and dropped
  /// instead of loose-matching onto a different pending slot of the
  /// same flow. Bounded: the newest kResolvedMemory records are kept.
  struct ResolvedSlot {
    net::ParsedProbe probe;
  };

  void remember_resolved(net::ParsedProbe probe);
  void resolve_at(std::size_t index, bool canceled);

  std::vector<PendingSlot> pending_;
  std::deque<ResolvedSlot> resolved_;
  std::vector<Completion> ready_;
  obs::Counter* expiry_counter_ = nullptr;
};

}  // namespace mmlpt::probe

#endif  // MMLPT_PROBE_REPLY_ATTRIBUTION_H
