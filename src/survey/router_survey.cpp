#include "survey/router_survey.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/assert.h"
#include "survey/route_fleet.h"

namespace mmlpt::survey {

namespace {

/// Union-find over interface addresses for the cross-trace aggregation.
class AddressUnionFind {
 public:
  void unite(const net::IpAddress& a, const net::IpAddress& b) {
    link(find(a), find(b));
  }

  [[nodiscard]] std::map<net::IpAddress, std::size_t> component_sizes() {
    std::map<net::IpAddress, std::size_t> sizes;
    for (const auto& [addr, parent] : parent_) {
      ++sizes[find(addr)];
    }
    return sizes;
  }

 private:
  net::IpAddress find(net::IpAddress x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) {
      parent_[x] = x;
      return x;
    }
    while (it->second != x) {
      x = it->second;
      it = parent_.find(x);
    }
    return x;
  }
  void link(const net::IpAddress& a, const net::IpAddress& b) {
    if (a != b) parent_[a] = b;
  }

  std::map<net::IpAddress, net::IpAddress> parent_;
};

std::vector<std::size_t> widths_between(const topo::MultipathGraph& g,
                                        const topo::Diamond& d) {
  std::vector<std::size_t> widths;
  for (std::uint16_t h = d.divergence_hop; h <= d.convergence_hop; ++h) {
    widths.push_back(g.vertices_at(h).size());
  }
  return widths;
}

/// Merge one traced route into the running survey state — the historical
/// serial merge body. Order sensitive (dedup sets, union-find): must be
/// called in route order.
void merge_route(const core::MultilevelResult& ml, RouterSurveyResult& result,
                 std::set<std::vector<net::IpAddress>>& distinct_sets,
                 std::set<topo::DiamondKey>& seen_diamonds,
                 AddressUnionFind& aggregated) {
  ++result.routes_traced;

  // Router sizes from the final round's accepted sets.
  for (const auto& [hop, sets] : ml.final_round().sets_by_hop) {
    for (const auto& set : sets) {
      if (set.outcome != alias::Outcome::kAccept || set.members.size() < 2) {
        continue;
      }
      std::vector<net::IpAddress> key;
      key.reserve(set.members.size());
      for (const auto& addr : set.members) key.push_back(addr);
      std::sort(key.begin(), key.end());
      if (distinct_sets.insert(key).second) {
        result.distinct_router_size.add(
            static_cast<std::int64_t>(set.members.size()));
      }
      for (std::size_t m = 1; m < key.size(); ++m) {
        aggregated.unite(key[0], key[m]);
      }
    }
  }

  // Diamond-by-diamond resolution effects, on unique diamonds.
  for (const auto& d : topo::extract_diamonds(ml.trace.graph)) {
    const auto key = topo::diamond_key(ml.trace.graph, d);
    if (!seen_diamonds.insert(key).second) continue;
    ++result.unique_diamonds;
    const auto cls = classify_resolution(ml.trace.graph, ml.router_graph, d);
    ++result.resolution_counts[cls];

    const auto ip_metrics = topo::compute_metrics(ml.trace.graph, d);
    result.ip_width.add(ip_metrics.max_width);
    // Router-level width over the same hop range.
    std::size_t router_width = 0;
    for (std::uint16_t h = d.divergence_hop; h <= d.convergence_hop; ++h) {
      router_width =
          std::max(router_width, ml.router_graph.vertices_at(h).size());
    }
    result.router_width.add(static_cast<std::int64_t>(router_width));
    if (static_cast<int>(router_width) != ip_metrics.max_width) {
      result.width_before_after.add(ip_metrics.max_width,
                                    static_cast<std::int64_t>(router_width));
    }
  }
}

}  // namespace

topo::ResolutionClass classify_resolution(
    const topo::MultipathGraph& ip, const topo::MultipathGraph& router_level,
    const topo::Diamond& diamond) {
  MMLPT_EXPECTS(ip.hop_count() == router_level.hop_count());
  const auto before = widths_between(ip, diamond);
  const auto after = widths_between(router_level, diamond);
  if (before == after) return topo::ResolutionClass::kNoChange;

  // Interior hops only (divergence and convergence are single anyway).
  bool all_single = true;
  bool any_single = false;
  for (std::size_t i = 1; i + 1 < after.size(); ++i) {
    if (after[i] == 1) {
      any_single = true;
    } else {
      all_single = false;
    }
  }
  if (all_single) return topo::ResolutionClass::kOnePath;
  if (any_single) return topo::ResolutionClass::kMultipleSmallerDiamonds;
  return topo::ResolutionClass::kSingleSmallerDiamond;
}

double RouterSurveyResult::resolution_fraction(
    topo::ResolutionClass c) const {
  if (unique_diamonds == 0) return 0.0;
  const auto it = resolution_counts.find(c);
  const auto count = it == resolution_counts.end() ? 0 : it->second;
  return static_cast<double>(count) / static_cast<double>(unique_diamonds);
}

RouterSurveyResult run_router_survey(const RouterSurveyConfig& config,
                                     orchestrator::ResultSink* sink) {
  RouteFleetConfig run;
  run.generator = config.generator;
  run.distinct_diamonds = config.distinct_diamonds;
  run.world_seed = config.seed;
  run.routes = config.routes;
  run.sim = config.sim;
  run.sim_seed_base = config.seed * 0x2545F491ULL + 99;
  run.on_line = sink_lines(sink);
  run.cancel = config.cancel;

  // The distinct-set dedup, the diamond dedup and the union-find are all
  // first-encounter sensitive; run_route_fleet's merge fires in strict
  // route order, exactly like the historical serial loop.
  RouterSurveyResult result;
  std::set<std::vector<net::IpAddress>> distinct_sets;
  std::set<topo::DiamondKey> seen_diamonds;
  AddressUnionFind aggregated;
  orchestrator::FleetScheduler fleet(config);
  run_route_fleet<core::MultilevelResult>(
      fleet, run, result,
      [&](probe::ProbeEngine& engine) {
        return core::MultilevelTracer(engine, config.multilevel).run();
      },
      [&](std::size_t, const core::MultilevelResult& ml) {
        merge_route(ml, result, distinct_sets, seen_diamonds, aggregated);
      });

  for (const auto& [root, size] : aggregated.component_sizes()) {
    if (size >= 2) {
      result.aggregated_router_size.add(static_cast<std::int64_t>(size));
    }
  }
  return result;
}

}  // namespace mmlpt::survey
