// FleetScheduler: the survey-scale engine. N destination traces run
// concurrently over a pool of `jobs` worker threads; every task owns its
// whole probing stack (simulator, transport, ProbeEngine), seeded by the
// caller from the task index, so a fleet run is a pure function of its
// inputs — the thread count only changes wall-clock time, never results.
//
// Determinism contract:
//   * A task sees only its index and the shared limiter, never which
//     worker runs it; callers derive every seed from the index (e.g.
//     survey::ip_trace_seed).
//   * Results are collected per task index; `on_result` fires in strict
//     index order (a reorder buffer holds back early finishers), so
//     streaming output and join-time merges see the serial order.
//   * jobs=1 runs every task inline on the calling thread in index
//     order: bit-for-bit the behaviour of the old serial loops.
//
// The shared RateLimiter (config.pps > 0) bounds the SUM of all workers'
// probe traffic; each task wraps its trace's transport in a
// ThrottledNetwork charging WorkerContext::limiter (see
// survey::run_route_fleet, survey/route_fleet.cpp).
//
// Lifetime / re-entrancy: a FleetScheduler is NOT tied to a single run.
// run_streaming() keeps every piece of mutable state local to the call
// (the limiter is internally synchronized), so a long-lived scheduler —
// the mmlptd daemon owns exactly one — may execute MANY runs
// concurrently from different threads, each as deterministic as alone.
#ifndef MMLPT_ORCHESTRATOR_FLEET_H
#define MMLPT_ORCHESTRATOR_FLEET_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "orchestrator/rate_limiter.h"

namespace mmlpt::orchestrator {

struct FleetConfig {
  /// Worker threads. 1 = serial on the calling thread (no threads spawned).
  int jobs = 1;
  /// Fleet-wide probe budget in packets/second; <= 0 = unlimited.
  double pps = 0.0;
  /// Token-bucket burst capacity when pps > 0.
  int burst = 64;
  /// Registry the fleet's limiter registers its series in;
  /// null = uninstrumented. Must outlive the scheduler.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything a task callback gets handed: its identity and the shared
/// limiter (nullptr when unlimited).
struct WorkerContext {
  std::size_t task_index;
  RateLimiter* limiter;
};

class FleetScheduler {
 public:
  explicit FleetScheduler(FleetConfig config);

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  /// The shared fleet-wide limiter; nullptr when config().pps <= 0.
  [[nodiscard]] RateLimiter* limiter() noexcept { return limiter_.get(); }
  /// The registry handed in via FleetConfig::metrics; nullptr when the
  /// run is uninstrumented.
  [[nodiscard]] obs::MetricsRegistry* metrics() noexcept {
    return config_.metrics;
  }

  /// Run tasks 0..task_count-1 through `trace` (callable on
  /// WorkerContext&, returning the per-task result). `trace` runs
  /// concurrently on up to `jobs` threads; everything it touches besides
  /// its context must be immutable or task-private.
  ///
  /// `on_result(index, result&)` fires exactly once per task, in strictly
  /// increasing index order, while the fleet is still running (an
  /// internal reorder buffer holds back early finishers). It runs
  /// serialized — one call at a time — so it may write to shared sinks
  /// without locking, but must not block for long. Each result is
  /// dropped once consumed, so a survey's peak memory tracks the
  /// in-flight window rather than the task count.
  template <typename TraceFn, typename OnResult>
  void run_streaming(std::size_t task_count, TraceFn&& trace,
                     OnResult&& on_result) {
    using R = std::invoke_result_t<TraceFn&, WorkerContext&>;

    if (config_.jobs <= 1 || task_count <= 1) {
      // Serial path: bit-for-bit the pre-orchestrator loops.
      for (std::size_t i = 0; i < task_count; ++i) {
        WorkerContext context{i, limiter_.get()};
        auto result = trace(context);
        on_result(i, result);
      }
      return;
    }

    DrainState<R> state;
    {
      // Pre-size the reorder buffer before any worker exists; the lock
      // only satisfies the guarded-field discipline.
      MutexLock lock(state.mutex);
      state.slots.resize(task_count);
    }
    std::atomic<std::size_t> next_task{0};
    std::atomic<bool> stop{false};

    const int jobs = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config_.jobs), task_count));
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        // relaxed on stop: advisory early-exit flag; the authoritative
        // error handoff happens under state.mutex.
        while (!stop.load(std::memory_order_relaxed)) {
          // relaxed on next_task: only atomicity of the claim matters —
          // each task's data stays private until published under the
          // mutex, so the relaxed increment orders nothing.
          const std::size_t i =
              next_task.fetch_add(1, std::memory_order_relaxed);
          if (i >= task_count) break;
          try {
            WorkerContext context{i, limiter_.get()};
            auto result = trace(context);
            bool drain;
            {
              MutexLock lock(state.mutex);
              state.slots[i] = std::move(result);
              drain = !state.draining;
              if (drain) state.draining = true;
            }
            if (!drain) continue;  // the current drainer will pick it up
            // Drain the contiguous prefix OUTSIDE the lock: on_result
            // may do real work (merge, JSON emit) and must not stall
            // the other workers' stores. The `draining` flag keeps the
            // calls serialized and in index order; a worker that stores
            // while we drain either is seen by our next lap or finds
            // the flag cleared and becomes the drainer itself.
            while (true) {
              std::size_t index = 0;
              R* ready = nullptr;
              {
                MutexLock lock(state.mutex);
                if (state.next_emit < task_count &&
                    state.slots[state.next_emit]) {
                  index = state.next_emit;
                  ready = &*state.slots[state.next_emit];
                } else {
                  state.draining = false;
                  break;
                }
              }
              // `ready` points into a slot no other thread touches while
              // the draining flag is ours, so the deref needs no lock.
              on_result(index, *ready);
              MutexLock lock(state.mutex);
              state.slots[index].reset();  // streamed: drop it
              ++state.next_emit;
            }
          } catch (...) {
            MutexLock lock(state.mutex);
            if (!state.first_error) {
              state.first_error = std::current_exception();
            }
            // relaxed: the store needs no ordering — workers that miss
            // it exit via the task counter or their own error path.
            stop.store(true, std::memory_order_relaxed);
            break;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();

    // Workers are joined: this thread is the only one left, but the
    // guarded fields still want their lock for the final reads.
    MutexLock lock(state.mutex);
    if (state.first_error) std::rethrow_exception(state.first_error);
  }

 private:
  /// Shared state of one parallel run_streaming call — a per-run local
  /// (runs are re-entrant), typed as a struct rather than loose locals so
  /// the guarded-field discipline is compiler-checked: the thread safety
  /// analysis tracks annotated members, never function locals.
  template <typename R>
  struct DrainState {
    Mutex mutex;
    std::vector<std::optional<R>> slots MMLPT_GUARDED_BY(mutex);
    std::size_t next_emit MMLPT_GUARDED_BY(mutex) = 0;
    /// Exactly one worker drains the reorder buffer at a time.
    bool draining MMLPT_GUARDED_BY(mutex) = false;
    std::exception_ptr first_error MMLPT_GUARDED_BY(mutex);
  };

  FleetConfig config_;
  std::unique_ptr<RateLimiter> limiter_;
};

}  // namespace mmlpt::orchestrator

#endif  // MMLPT_ORCHESTRATOR_FLEET_H
