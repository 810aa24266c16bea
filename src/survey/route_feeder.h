// Thread-safe lazy route pool over a single-stream SurveyWorld: fleet
// workers claim task indices monotonically, so routes can be generated
// on demand, in order, a window ahead of the tracers, and released as
// soon as the ordered merge is done with them — live routes track the
// in-flight window, not the survey size, while the route SEQUENCE stays
// identical to a serial generate-then-trace loop (the world's RNG never
// depends on trace results). survey::run_route_fleet
// (survey/route_fleet.h) is its one user, so the window discipline lives
// in one place.
#ifndef MMLPT_SURVEY_ROUTE_FEEDER_H
#define MMLPT_SURVEY_ROUTE_FEEDER_H

#include <cstddef>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "topology/generator.h"

namespace mmlpt::survey {

class RouteFeeder {
 public:
  /// The world must outlive the feeder and must not be used elsewhere
  /// while the feeder is live (it owns the generation order).
  RouteFeeder(topo::SurveyWorld& world, std::size_t count);

  /// The route for task `index`, generating every route up to it first.
  /// Safe from any worker thread; the reference stays valid until
  /// release(index).
  [[nodiscard]] const topo::GroundTruth& route(std::size_t index);

  /// Drop route `index` (after the ordered merge consumed it). Safe to
  /// call while other workers read different indices: slots are distinct
  /// elements of a pre-sized vector.
  void release(std::size_t index);

  [[nodiscard]] std::size_t count() const noexcept { return routes_.size(); }
  /// Routes currently materialized (generated minus released).
  [[nodiscard]] std::size_t live() const;

 private:
  /// World access and every slot write happen under mutex_; the
  /// reference route() hands out stays valid unlocked because slots are
  /// distinct elements of a pre-sized vector and each is written exactly
  /// once before its reference escapes.
  topo::SurveyWorld* world_ MMLPT_PT_GUARDED_BY(mutex_);
  std::vector<topo::GroundTruth> routes_;  ///< pre-sized; never reallocates
  mutable Mutex mutex_;
  std::size_t generated_ MMLPT_GUARDED_BY(mutex_) = 0;
  std::size_t released_ MMLPT_GUARDED_BY(mutex_) = 0;
};

}  // namespace mmlpt::survey

#endif  // MMLPT_SURVEY_ROUTE_FEEDER_H
