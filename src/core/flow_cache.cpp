#include "core/flow_cache.h"

#include "common/assert.h"

namespace mmlpt::core {

void FlowCache::prefetch(std::span<const ProbeRequest> requests) {
  std::vector<ProbeRequest> fresh;
  std::vector<Entry*> slots;
  fresh.reserve(requests.size());
  slots.reserve(requests.size());
  for (const auto& request : requests) {
    MMLPT_EXPECTS(request.ttl >= 1);
    // emplace: the first occurrence of a duplicated (flow, ttl) wins and
    // an entry already fetched or consumed is left alone.
    const auto [it, inserted] =
        results_.emplace(key(request.flow, request.ttl), Entry{});
    if (inserted) {
      fresh.push_back(request);
      slots.push_back(&it->second);
    }
  }
  if (fresh.empty()) return;

  auto batched = engine_->probe_batch(fresh);
  MMLPT_ASSERT(batched.size() == fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    slots[i]->result = std::move(batched[i]);
  }
}

const probe::TraceProbeResult& FlowCache::consume(FlowId flow, int ttl,
                                                  Entry& entry) {
  entry.consumed = true;
  packets_accounted_ += static_cast<std::uint64_t>(entry.result.attempts);
  flows_by_ttl_[static_cast<std::size_t>(ttl)].push_back(flow);
  const auto& stored = entry.result;
  if (stored.answered) {
    by_responder_[{ttl, stored.responder}].push_back(flow);
    if (stop_set_) stop_set_->record(stored.responder, ttl);
    if (observer_) observer_(flow, ttl, stored);
  }
  return stored;
}

const probe::TraceProbeResult& FlowCache::probe(FlowId flow, int ttl) {
  MMLPT_EXPECTS(ttl >= 1 && ttl <= 255);
  const auto slot = key(flow, ttl);
  const auto it = results_.find(slot);
  if (it != results_.end()) {
    if (it->second.consumed) return it->second.result;
    return consume(flow, ttl, it->second);  // prefetched: consume in place
  }

  Entry entry;
  entry.result = engine_->probe(flow, static_cast<std::uint8_t>(ttl));
  const auto [inserted, ok] = results_.emplace(slot, std::move(entry));
  return consume(flow, ttl, inserted->second);
}

const probe::TraceProbeResult* FlowCache::lookup(FlowId flow, int ttl) const {
  const auto it = results_.find(key(flow, ttl));
  if (it == results_.end() || !it->second.consumed) return nullptr;
  return &it->second.result;
}

const std::vector<FlowId>& FlowCache::flows_at(int ttl) const {
  // A hop with no flow yet answers the shared empty list, which never
  // grows: callers holding the reference see only a list that existed.
  static const std::vector<FlowId> kEmpty;
  const auto hop = static_cast<std::size_t>(ttl);
  if (hop >= flows_by_ttl_.size() || flows_by_ttl_[hop].empty()) return kEmpty;
  return flows_by_ttl_[hop];
}

const std::vector<FlowId>& FlowCache::flows_reaching(
    int ttl, net::Ipv4Address addr) const {
  return by_responder_[{ttl, addr}];  // created empty on first query
}

FlowId FlowCache::fresh_flow() { return next_flow_++; }

}  // namespace mmlpt::core
