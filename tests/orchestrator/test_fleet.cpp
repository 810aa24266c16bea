#include "orchestrator/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "orchestrator/result_sink.h"

namespace mmlpt::orchestrator {
namespace {

/// Every task's result in task order, gathered through on_result.
template <typename TraceFn>
auto collect(FleetScheduler& fleet, std::size_t task_count, TraceFn&& trace) {
  std::vector<std::invoke_result_t<TraceFn&, WorkerContext&>> results;
  fleet.run_streaming(task_count, trace, [&](std::size_t, auto& result) {
    results.push_back(std::move(result));
  });
  return results;
}

TEST(FleetScheduler, RunsEveryTaskExactlyOnce) {
  FleetScheduler fleet({.jobs = 4});
  std::atomic<int> calls{0};
  const auto results = collect(fleet, 100, [&](WorkerContext& context) {
    calls.fetch_add(1);
    return context.task_index * 2;
  });
  EXPECT_EQ(calls.load(), 100);
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 2);  // results land in task order
  }
}

TEST(FleetScheduler, SerialAndParallelResultsMatch) {
  const auto run_with = [](int jobs) {
    FleetScheduler fleet({.jobs = jobs});
    return collect(fleet, 64, [](WorkerContext& context) {
      // A payload pure in the task index, as every real task's seed is.
      return (context.task_index + 1) * 0x9E3779B97F4A7C15ULL;
    });
  };
  EXPECT_EQ(run_with(1), run_with(8));
}

TEST(FleetScheduler, OnResultFiresInIndexOrder) {
  FleetScheduler fleet({.jobs = 8});
  std::vector<std::size_t> emitted;
  fleet.run_streaming(
      50, [](WorkerContext& context) { return context.task_index; },
      [&](std::size_t index, std::size_t& result) {
        EXPECT_EQ(index, result);
        emitted.push_back(index);  // serialized: no lock needed
      });
  ASSERT_EQ(emitted.size(), 50u);
  for (std::size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], i);
}

TEST(FleetScheduler, StreamsThroughResultSinkDeterministically) {
  const auto run_with = [](int jobs) {
    std::ostringstream out;
    {
      ResultSink sink(out);
      FleetScheduler fleet({.jobs = jobs});
      std::size_t emitted = 0;
      fleet.run_streaming(
          30,
          [](WorkerContext& context) {
            return "task-" + std::to_string(context.task_index) + "-" +
                   std::to_string(context.task_index * 37 % 1000);
          },
          [&](std::size_t index, std::string& line) {
            sink.emit(index, line);
            ++emitted;
          });
      EXPECT_EQ(emitted, 30u);
    }
    return out.str();
  };
  const auto serial = run_with(1);
  EXPECT_EQ(serial, run_with(4));
  EXPECT_EQ(serial, run_with(16));
}

TEST(FleetScheduler, RunStreamingConsumesEveryResultInOrder) {
  FleetScheduler fleet({.jobs = 8});
  std::vector<std::size_t> emitted;
  std::uint64_t sum = 0;
  fleet.run_streaming(
      60, [](WorkerContext& context) { return context.task_index + 1; },
      [&](std::size_t index, std::size_t& result) {
        EXPECT_EQ(result, index + 1);
        emitted.push_back(index);  // serialized: no lock needed
        sum += result;
      });
  ASSERT_EQ(emitted.size(), 60u);
  for (std::size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], i);
  EXPECT_EQ(sum, 60u * 61u / 2u);
}

TEST(FleetScheduler, PropagatesTheFirstTaskException) {
  FleetScheduler fleet({.jobs = 4});
  EXPECT_THROW((void)collect(fleet, 32,
                             [](WorkerContext& context) -> int {
                               if (context.task_index == 13) {
                                 throw std::runtime_error("boom");
                               }
                               return 0;
                             }),
               std::runtime_error);
}

TEST(FleetScheduler, JobsOneNeverSpawnsThreads) {
  // The serial path runs on the calling thread, in order — observable
  // via strictly increasing task indices with no interleaving.
  FleetScheduler fleet({.jobs = 1});
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  (void)collect(fleet, 20, [&](WorkerContext& context) {
    order.push_back(context.task_index);  // unsynchronized: safe iff serial
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 0;
  });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(FleetScheduler, BuildsALimiterOnlyWhenRateLimited) {
  FleetScheduler unlimited({.jobs = 2, .pps = 0.0});
  EXPECT_EQ(unlimited.limiter(), nullptr);
  FleetScheduler limited({.jobs = 2, .pps = 100.0, .burst = 16});
  ASSERT_NE(limited.limiter(), nullptr);
  EXPECT_DOUBLE_EQ(limited.limiter()->packets_per_second(), 100.0);
  EXPECT_EQ(limited.limiter()->burst(), 16);
  (void)collect(limited, 4, [](WorkerContext& context) {
    EXPECT_NE(context.limiter, nullptr);
    context.limiter->acquire(1);
    return 0;
  });
}

}  // namespace
}  // namespace mmlpt::orchestrator
