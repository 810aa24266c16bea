#include "orchestrator/stop_set.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"
#include "obs/metrics.h"

namespace mmlpt::orchestrator {

namespace {

/// Deterministic merge for two records of the same destination: keep the
/// cheaper full trace (ties broken on distance) so the outcome does not
/// depend on arrival order.
core::DestinationRecord merge(const core::DestinationRecord& a,
                              const core::DestinationRecord& b) {
  if (a.probes != b.probes) return a.probes < b.probes ? a : b;
  return a.distance <= b.distance ? a : b;
}

}  // namespace

void SharedStopSet::seed(const store::TopologySnapshot& snapshot) {
  visible_.reserve(visible_.size() + snapshot.hops.size());
  for (const auto& hop : snapshot.hops) {
    visible_.emplace_back(hop.addr, hop.distance);
  }
  std::sort(visible_.begin(), visible_.end());
  visible_.erase(std::unique(visible_.begin(), visible_.end()),
                 visible_.end());
  for (const auto& dest : snapshot.destinations) {
    auto [it, inserted] = visible_destinations_.try_emplace(
        dest.addr, dest.record);
    if (!inserted) it->second = merge(it->second, dest.record);
  }
  // Doubletree's adaptive start TTL: half the median known destination
  // distance, so the backward phase covers the near half of a typical
  // path and the forward phase the far half.
  if (!visible_destinations_.empty()) {
    std::vector<int> distances;
    distances.reserve(visible_destinations_.size());
    for (const auto& [addr, record] : visible_destinations_) {
      distances.push_back(record.distance);
    }
    const auto mid = distances.begin() +
                     static_cast<std::ptrdiff_t>(distances.size() / 2);
    std::nth_element(distances.begin(), mid, distances.end());
    midpoint_ttl_ = std::max(1, *mid / 2);
  }
}

bool SharedStopSet::visible(const Key& key) const {
  return std::binary_search(visible_.begin(), visible_.end(), key);
}

bool SharedStopSet::contains(const net::IpAddress& addr,
                             int distance) const {
  const bool hit = visible({addr, distance});
  if (hit && hits_ != nullptr) hits_->add();
  return hit;
}

void SharedStopSet::record(const net::IpAddress& addr, int distance) {
  const Key key{addr, distance};
  if (visible(key)) return;  // already durable
  const MutexLock lock(mutex_);
  // Count only first-time discoveries: bump after the insert says the
  // hop was new, not before (re-recording the same hop is common — every
  // trace crossing it reports it once).
  if (pending_.insert(key).second && records_ != nullptr) records_->add();
}

void SharedStopSet::instrument(obs::MetricsRegistry& registry) {
  hits_ = registry.counter("mmlpt_stop_set_hits_total",
                           "contains() queries answered from the frozen "
                           "visible epoch");
  records_ = registry.counter("mmlpt_stop_set_records_total",
                              "Discoveries recorded into the pending set");
}

std::optional<core::DestinationRecord> SharedStopSet::destination(
    const net::IpAddress& addr) const {
  const auto it = visible_destinations_.find(addr);
  if (it == visible_destinations_.end()) return std::nullopt;
  return it->second;
}

void SharedStopSet::record_destination(
    const net::IpAddress& addr, const core::DestinationRecord& record) {
  if (visible_destinations_.count(addr) != 0) return;  // epoch is frozen
  const MutexLock lock(mutex_);
  auto [it, inserted] = pending_destinations_.try_emplace(addr, record);
  if (!inserted) it->second = merge(it->second, record);
}

int SharedStopSet::midpoint_ttl() const { return midpoint_ttl_; }

store::TopologySnapshot SharedStopSet::delta() const {
  const MutexLock lock(mutex_);
  store::TopologySnapshot snapshot;
  snapshot.hops.reserve(pending_.size());
  for (const auto& [addr, distance] : pending_) {
    snapshot.hops.push_back({addr, distance});
  }
  snapshot.destinations.reserve(pending_destinations_.size());
  for (const auto& [addr, record] : pending_destinations_) {
    snapshot.destinations.push_back({addr, record});
  }
  return snapshot;
}

std::uint64_t SharedStopSet::union_digest() const {
  std::uint64_t digest = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint8_t byte) {
    digest ^= byte;
    digest *= 0x100000001B3ULL;  // FNV prime
  };
  const auto fold = [&mix](const Key& key) {
    const auto& [addr, distance] = key;
    mix(addr.family() == net::Family::kIpv6 ? 6 : 4);
    for (const auto byte : addr.bytes()) mix(byte);
    mix(static_cast<std::uint8_t>(distance & 0xFF));
    mix(static_cast<std::uint8_t>((distance >> 8) & 0xFF));
  };
  // visible_ is frozen, so only pending_ is read under the lock: copy
  // it, then fold the ordered union of the two sorted, unique sequences
  // outside it. A key in both (a record() made before seed()) folds once.
  std::vector<Key> pending;
  {
    const MutexLock lock(mutex_);
    pending.assign(pending_.begin(), pending_.end());
  }
  auto v = visible_.begin();
  auto p = pending.begin();
  while (v != visible_.end() || p != pending.end()) {
    if (p == pending.end() || (v != visible_.end() && *v < *p)) {
      fold(*v++);
    } else {
      if (v != visible_.end() && !(*p < *v)) ++v;
      fold(*p++);
    }
  }
  return digest;
}

std::size_t SharedStopSet::pending_hop_count() const {
  const MutexLock lock(mutex_);
  return pending_.size();
}

StopSetSession::StopSetSession(std::string cache_path, bool consult)
    : cache_path_(std::move(cache_path)), consult_(consult) {
  if (!active()) return;
  loaded_ = store::TopologyStore::load(cache_path_);
  set_.seed(loaded_.snapshot);
}

void StopSetSession::configure(core::TraceConfig& config) {
  if (!active()) return;
  config.stop_set = &set_;
  config.consult_stop_set = consult_;
}

void StopSetSession::write_summary(JsonWriter& w, std::uint64_t probes_saved,
                                   std::uint64_t traces_stopped) const {
  MMLPT_EXPECTS(active());
  w.begin_object();
  w.key("consulted");
  w.value(consult_);
  w.key("visible_hops");
  w.value(static_cast<std::uint64_t>(set_.visible_hop_count()));
  w.key("pending_hops");
  w.value(static_cast<std::uint64_t>(set_.pending_hop_count()));
  w.key("probes_saved");
  w.value(probes_saved);
  w.key("traces_stopped");
  w.value(traces_stopped);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(set_.union_digest()));
  w.key("union_digest");
  w.value(digest);
  w.end_object();
}

void StopSetSession::flush() {
  if (!active()) return;
  store::TopologyStore::append(cache_path_, set_.delta());
}

}  // namespace mmlpt::orchestrator
