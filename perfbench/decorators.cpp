#include "decorators.h"

namespace perfbench {

namespace mp = mmlpt::probe;

namespace {

// Per-thread offer counts: only every kStride-th offer touches the
// shared, locked sample.
thread_local std::uint64_t probes_offered = 0;
thread_local std::uint64_t replies_offered = 0;

}  // namespace

void DatagramSample::offer_probe(std::span<const std::uint8_t> bytes) {
  if (probes_offered++ % kStride != 0) return;
  std::lock_guard lock(mutex_);
  if (probes_.size() < cap_) probes_.emplace_back(bytes.begin(), bytes.end());
}

void DatagramSample::offer_reply(std::span<const std::uint8_t> bytes) {
  if (replies_offered++ % kStride != 0) return;
  std::lock_guard lock(mutex_);
  if (replies_.size() < cap_) replies_.emplace_back(bytes.begin(), bytes.end());
}

void TimedQueue::submit(std::span<const mp::Datagram> window, mp::Ticket ticket,
                        const mp::SubmitOptions& options) {
  const auto start = now_ns();
  inner_->submit(window, ticket, options);
  ledger_->leaf(LeafKind::kSubmit, now_ns() - start, window.size());
  // Sampling happens outside the timed interval; the first datagram of
  // each window is enough to cover the probe mix.
  if (!window.empty()) sample_->offer_probe(window.front().bytes);
}

std::vector<mp::Completion> TimedQueue::poll_completions() {
  const auto start = now_ns();
  auto completions = inner_->poll_completions();
  ledger_->leaf(LeafKind::kPoll, now_ns() - start, 0);
  for (const auto& completion : completions) {
    if (completion.reply) {
      sample_->offer_reply(completion.reply->datagram);
      break;
    }
  }
  return completions;
}

bool TimedStopSet::contains(const mmlpt::net::IpAddress& addr,
                            int distance) const {
  const auto start = now_ns();
  const bool hit = inner_->contains(addr, distance);
  ledger_->leaf(LeafKind::kStopContains, now_ns() - start, hit ? 1 : 0);
  return hit;
}

void TimedStopSet::record(const mmlpt::net::IpAddress& addr, int distance) {
  const auto start = now_ns();
  inner_->record(addr, distance);
  ledger_->leaf(LeafKind::kStopRecord, now_ns() - start, 0);
}

std::optional<mmlpt::core::DestinationRecord> TimedStopSet::destination(
    const mmlpt::net::IpAddress& addr) const {
  const auto start = now_ns();
  auto found = inner_->destination(addr);
  ledger_->leaf(LeafKind::kStopQuery, now_ns() - start, 0);
  return found;
}

void TimedStopSet::record_destination(
    const mmlpt::net::IpAddress& addr,
    const mmlpt::core::DestinationRecord& record) {
  const auto start = now_ns();
  inner_->record_destination(addr, record);
  ledger_->leaf(LeafKind::kStopRecord, now_ns() - start, 0);
}

int TimedStopSet::midpoint_ttl() const {
  const auto start = now_ns();
  const int ttl = inner_->midpoint_ttl();
  ledger_->leaf(LeafKind::kStopQuery, now_ns() - start, 0);
  return ttl;
}

}  // namespace perfbench
