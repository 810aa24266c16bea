#include "probe/reply_attribution.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace mmlpt::probe {

bool reply_matches_probe(const net::ParsedProbe& sent,
                         const net::ParsedReply& got) {
  if (sent.family != got.family) return false;
  if (got.is_echo_reply()) {
    return sent.is_echo_request() &&
           got.icmp.identifier == sent.icmp.identifier &&
           got.icmp.sequence == sent.icmp.sequence;
  }
  if (got.quoted_dst() != sent.dst()) return false;
  if (sent.is_udp()) {
    // The Paris identifier is the source port on v4 and the flow label on
    // v6 (0 on v4); there the (constant) ports guard against unrelated
    // traffic towards the same destination.
    return got.quoted_flow_label() == sent.flow_label() && got.quoted_udp &&
           got.quoted_udp->src_port == sent.udp.src_port &&
           got.quoted_udp->dst_port == sent.udp.dst_port;
  }
  return got.quoted_icmp &&
         got.quoted_icmp->identifier == sent.icmp.identifier;
}

bool reply_quotes_probe_id(const net::ParsedProbe& sent,
                           const net::ParsedReply& got) {
  if (got.is_echo_reply()) return true;  // identifier/sequence are exact
  if (sent.family == net::Family::kIpv4) {
    if (!got.quoted_ip) return false;
    return got.quoted_ip->identification == sent.ip.identification;
  }
  // v6 has no identification; the engine encodes the probe TTL in the
  // UDP length, which the quoted UDP header echoes back.
  if (!got.quoted_udp) return false;
  return got.quoted_udp->length == sent.udp.length;
}

std::vector<std::uint8_t> reconstruct_ipv6_reply(
    std::span<std::uint8_t> payload, const net::IpAddress& peer,
    int hop_limit, const net::IpAddress& reply_dst) {
  if (payload.size() >= 4) {
    payload[2] = 0;  // zero the ICMPv6 checksum (see header comment)
    payload[3] = 0;
  }
  net::Ipv6Header outer;
  outer.src = peer;
  outer.dst = reply_dst;
  outer.next_header = net::IpProto::kIcmpv6;
  outer.hop_limit = static_cast<std::uint8_t>(hop_limit);
  return outer.serialize({payload.data(), payload.size()});
}

void ReplyAttributor::add_pending(PendingSlot slot) {
  pending_.push_back(std::move(slot));
}

void ReplyAttributor::resolve_unsent(Ticket ticket, std::size_t slot,
                                     net::ParsedProbe probe) {
  Completion completion;
  completion.ticket = ticket;
  completion.slot = slot;
  ready_.push_back(std::move(completion));
  remember_resolved(std::move(probe));
}

void ReplyAttributor::resolve_at(std::size_t index, bool canceled) {
  Completion completion;
  completion.ticket = pending_[index].ticket;
  completion.slot = pending_[index].slot;
  completion.canceled = canceled;
  ready_.push_back(std::move(completion));
  // An expired slot's reply may still arrive; remember the probe so the
  // late reply is dropped, not loose-matched onto another slot.
  remember_resolved(std::move(pending_[index].probe));
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
}

void ReplyAttributor::expire(Clock::time_point now) {
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].deadline <= now) {
      resolve_at(i, /*canceled=*/false);
      if (expiry_counter_ != nullptr) expiry_counter_->add();
    } else {
      ++i;
    }
  }
}

void ReplyAttributor::cancel(Ticket ticket) {
  for (std::size_t i = 0; i < pending_.size();) {
    if (pending_[i].ticket == ticket) {
      resolve_at(i, /*canceled=*/true);
    } else {
      ++i;
    }
  }
}

void ReplyAttributor::attribute(const net::ParsedReply& got,
                                std::vector<std::uint8_t> reply,
                                Clock::time_point now) {
  // Two-tier slot attribution: flow matching alone cannot tell apart two
  // outstanding probes of the same flow at different TTLs, so prefer the
  // slot whose per-probe discriminator the reply quotes (IPv4
  // identification / IPv6 UDP length); fall back to the first flow match
  // for routers that mangle the quoted header. A quoted discriminator
  // whose matching slots are ALL already answered is a duplicated reply
  // — drop it rather than loose-matching it onto a different pending
  // slot of the same flow. (The v4 IP-ID is unique per probe; the v6
  // discriminator is per (flow, ttl), so duplicate requests in one
  // window share it — keep scanning for a pending slot before declaring
  // a duplicate.) The scan covers every in-flight ticket: one receive
  // loop serves all tracers multiplexed onto this socket pair.
  std::ptrdiff_t exact = -1;
  std::ptrdiff_t loose = -1;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!reply_matches_probe(pending_[i].probe, got)) continue;
    if (reply_quotes_probe_id(pending_[i].probe, got)) {
      exact = static_cast<std::ptrdiff_t>(i);
      break;
    }
    if (loose < 0) loose = static_cast<std::ptrdiff_t>(i);
  }
  if (exact < 0) {
    for (const auto& resolved : resolved_) {
      if (reply_matches_probe(resolved.probe, got) &&
          reply_quotes_probe_id(resolved.probe, got)) {
        return;  // late or duplicated reply to a resolved probe
      }
    }
  }
  const std::ptrdiff_t hit = exact >= 0 ? exact : loose;
  if (hit < 0) return;  // someone else's ICMP

  auto& slot = pending_[static_cast<std::size_t>(hit)];
  const auto rtt =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - slot.sent_at);
  Completion completion;
  completion.ticket = slot.ticket;
  completion.slot = slot.slot;
  completion.reply =
      Received{std::move(reply), static_cast<Nanos>(rtt.count())};
  ready_.push_back(std::move(completion));
  remember_resolved(std::move(slot.probe));
  pending_.erase(pending_.begin() + hit);
}

std::vector<Completion> ReplyAttributor::take_ready() {
  auto completions = std::move(ready_);
  ready_.clear();
  return completions;
}

std::optional<ReplyAttributor::Clock::time_point>
ReplyAttributor::earliest_deadline() const {
  if (pending_.empty()) return std::nullopt;
  auto earliest = pending_.front().deadline;
  for (const auto& slot : pending_) {
    earliest = std::min(earliest, slot.deadline);
  }
  return earliest;
}

void ReplyAttributor::remember_resolved(net::ParsedProbe probe) {
  resolved_.push_back(ResolvedSlot{std::move(probe)});
  while (resolved_.size() > kResolvedMemory) resolved_.pop_front();
}

}  // namespace mmlpt::probe
