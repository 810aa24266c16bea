// Fleet-wide Doubletree stop set shared by every scheduler worker, plus
// the session object that ties it to a persistent topology store.
//
// Determinism contract (frozen visible epoch): queries — contains(),
// destination(), midpoint_ttl() — only ever see the immutable `visible`
// set seeded from disk before any worker starts, so they are lock-free
// and their answers cannot depend on worker interleaving. The visible
// hops are one sorted vector, searched by binary search, so the union
// digest is a linear merge of two sorted sequences with no copy of the
// visible epoch.
// Discoveries made during the run go to a mutex-guarded `pending` set
// that no query reads; they become visible to the NEXT run when flush()
// appends them to the store. This is what makes --jobs N output
// byte-identical to --jobs 1 given the same cache file.
#ifndef MMLPT_ORCHESTRATOR_STOP_SET_H
#define MMLPT_ORCHESTRATOR_STOP_SET_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/stop_set.h"
#include "core/trace_log.h"
#include "store/topology_store.h"

namespace mmlpt::obs {
class Counter;
class MetricsRegistry;
}  // namespace mmlpt::obs

namespace mmlpt::orchestrator {

/// Thread-safe core::StopSet with frozen-epoch semantics (see file
/// comment). seed() must complete before any concurrent use.
class SharedStopSet final : public core::StopSet {
 public:
  /// Install the frozen visible epoch. Not thread-safe; call once,
  /// before workers start. Also derives midpoint_ttl() as half the
  /// median known destination distance.
  void seed(const store::TopologySnapshot& snapshot);

  [[nodiscard]] bool contains(const net::IpAddress& addr,
                              int distance) const override;
  void record(const net::IpAddress& addr, int distance) override;
  [[nodiscard]] std::optional<core::DestinationRecord> destination(
      const net::IpAddress& addr) const override;
  void record_destination(const net::IpAddress& addr,
                          const core::DestinationRecord& record) override;
  [[nodiscard]] int midpoint_ttl() const override;

  /// This run's discoveries (pending only), sorted — the block to append
  /// to the store.
  [[nodiscard]] store::TopologySnapshot delta() const;

  /// FNV-1a digest over the sorted (interface, distance) union of the
  /// visible and pending hops. Two runs discovered the same topology iff
  /// their digests match, regardless of how discovery was split between
  /// cache and probing. Copies only pending under the mutex, then streams
  /// a merge of the two sorted sequences outside it: O(visible + pending)
  /// per call, but a concurrent record() waits O(pending) at most.
  [[nodiscard]] std::uint64_t union_digest() const;

  [[nodiscard]] std::size_t visible_hop_count() const {
    return visible_.size();
  }
  [[nodiscard]] std::size_t pending_hop_count() const;

  /// Register the set's hit/record counters in `registry`. Call before
  /// workers start; uninstrumented queries pay one null-check.
  void instrument(obs::MetricsRegistry& registry);

 private:
  using Key = std::pair<net::IpAddress, int>;

  [[nodiscard]] bool visible(const Key& key) const;

  // Frozen after seed(): read without locking. visible_ is sorted and
  // unique.
  std::vector<Key> visible_;
  std::unordered_map<net::IpAddress, core::DestinationRecord>
      visible_destinations_;
  int midpoint_ttl_ = 0;

  // This run's discoveries; ordered containers so delta() is already
  // sorted and deterministic.
  mutable Mutex mutex_;
  std::set<Key> pending_ MMLPT_GUARDED_BY(mutex_);
  std::map<net::IpAddress, core::DestinationRecord> pending_destinations_
      MMLPT_GUARDED_BY(mutex_);

  /// Null until instrument(), which (like seed()) must complete before
  /// workers start; frozen afterwards, so contains() stays lock-free.
  obs::Counter* hits_ = nullptr;
  obs::Counter* records_ = nullptr;
};

/// One CLI run's stop-set lifecycle: load the topology store at open,
/// seed the shared set, hand the pointer to trace configs, append the
/// run's delta at close.
///
/// An empty cache path means the feature is fully off: stop_set() is
/// nullptr, configure() leaves configs untouched, flush() is a no-op —
/// output stays byte-identical to a build without the feature.
class StopSetSession {
 public:
  /// `consult` false = record-only mode: discoveries are written to the
  /// store but never change probing, so output is byte-identical to a
  /// run without a stop set (cache warming with diffable output).
  StopSetSession(std::string cache_path, bool consult);

  [[nodiscard]] bool active() const noexcept { return !cache_path_.empty(); }
  [[nodiscard]] bool consult() const noexcept { return consult_; }

  /// Points config at the shared set (no-op when inactive).
  void configure(core::TraceConfig& config);

  /// Register the shared set's counters in `registry` (no-op when
  /// inactive).
  void instrument(obs::MetricsRegistry& registry) {
    if (active()) set_.instrument(registry);
  }

  /// Append this run's delta to the store (no-op when inactive or the
  /// delta is empty).
  void flush();

  /// Write the run's stop-set summary object to `w`: {"consulted",
  /// "visible_hops","pending_hops","probes_saved","traces_stopped",
  /// "union_digest"}. The union digest identifies the discovered topology
  /// however discovery was split between cache and probing. The CLIs'
  /// stderr summary line and the daemon's StopSetSummary frame both carry
  /// this object. Requires active().
  void write_summary(JsonWriter& w, std::uint64_t probes_saved,
                     std::uint64_t traces_stopped) const;

  [[nodiscard]] SharedStopSet* stop_set() noexcept {
    return active() ? &set_ : nullptr;
  }
  [[nodiscard]] const SharedStopSet* stop_set() const noexcept {
    return active() ? &set_ : nullptr;
  }
  /// How the store load went (blocks kept, damaged tail flag).
  [[nodiscard]] const store::TopologyStore::LoadResult& loaded()
      const noexcept {
    return loaded_;
  }

 private:
  std::string cache_path_;
  bool consult_ = true;
  store::TopologyStore::LoadResult loaded_;
  SharedStopSet set_;
};

}  // namespace mmlpt::orchestrator

#endif  // MMLPT_ORCHESTRATOR_STOP_SET_H
