#include "report.h"

#include <algorithm>
#include <cstdio>

#include "net/packet.h"

namespace perfbench {

namespace net = mmlpt::net;

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit, std::size_t samples, std::string note = {}) {
  out.push_back({name, value, unit, samples, std::move(note)});
}

std::string percentile_note(const Percentile& p) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "p%g of %zu", p.percentile, p.samples);
  return buffer;
}

struct NetCosts {
  double build_ns = 0;
  double parse_ns = 0;
  std::size_t probes = 0;
  std::size_t replies = 0;
};

/// net's build and parse, timed in isolation over datagrams the traced
/// pass captured at the transport decorator.
NetCosts time_net(const DatagramSample& sample) {
  struct Echo {
    net::IpAddress src, dst;
    std::uint16_t identifier, sequence, ip_id;
    std::uint8_t ttl;
  };
  std::vector<net::ProbeSpec> udp;
  std::vector<Echo> echo;
  for (const auto& bytes : sample.probes()) {
    const auto parsed = net::parse_probe(bytes);
    if (parsed.is_udp()) {
      net::ProbeSpec spec;
      spec.src = parsed.src();
      spec.dst = parsed.dst();
      spec.src_port = parsed.udp.src_port;
      spec.dst_port = parsed.udp.dst_port;
      spec.ttl = parsed.ttl();
      spec.ip_id = parsed.ip_id();
      spec.payload_bytes = static_cast<std::uint16_t>(
          std::max<int>(0, parsed.udp.length - 8));
      udp.push_back(spec);
    } else if (parsed.is_echo_request()) {
      echo.push_back({parsed.src(), parsed.dst(), parsed.icmp.identifier,
                      parsed.icmp.sequence, parsed.ip_id(), parsed.ttl()});
    }
  }

  NetCosts costs;
  costs.probes = udp.size() + echo.size();
  costs.replies = sample.replies().size();
  constexpr std::size_t kCalls = 200'000;
  std::uint64_t checksum = 0;  // keeps the work observable
  if (costs.probes > 0) {
    std::size_t calls = 0;
    const auto start = now_ns();
    while (calls < kCalls) {
      for (const auto& spec : udp) {
        checksum += net::build_udp_probe(spec).back();
      }
      for (const auto& e : echo) {
        checksum += net::build_echo_probe(e.src, e.dst, e.identifier,
                                          e.sequence, e.ttl, e.ip_id)
                        .back();
      }
      calls += costs.probes;
    }
    costs.build_ns = static_cast<double>(now_ns() - start) /
                     static_cast<double>(calls);
  }
  if (costs.replies > 0) {
    std::size_t calls = 0;
    const auto start = now_ns();
    while (calls < kCalls) {
      for (const auto& bytes : sample.replies()) {
        checksum += net::parse_reply(bytes).reply_ttl();
      }
      calls += costs.replies;
    }
    costs.parse_ns = static_cast<double>(now_ns() - start) /
                     static_cast<double>(calls);
  }
  volatile std::uint64_t keep = checksum;
  (void)keep;
  return costs;
}

}  // namespace

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  auto& out = report.end_to_end;
  const double wall_s = e2e.wall_ns / 1e9;
  const auto dests = static_cast<double>(e2e.destinations);
  const auto requests = e2e.request_ms.size();
  add(out, "setup_s", median(e2e.setup_s), "s", e2e.setup_s.size(),
      "median, thread CPU time");
  add(out, "cpu_ns_per_probe",
      ratio(e2e.cpu_ns, static_cast<double>(e2e.packets)), "ns", e2e.packets);
  add(out, "packets_per_dest", ratio(static_cast<double>(e2e.packets), dests),
      "count", e2e.destinations);
  add(out, "topology_match_ratio",
      1.0 - ratio(static_cast<double>(e2e.topology_missed),
                  static_cast<double>(e2e.topology_checked)),
      "ratio", e2e.topology_checked);
  add(out, "completed_ratio",
      1.0 - ratio(static_cast<double>(report.failed),
                  static_cast<double>(report.attempted)),
      "ratio", report.attempted);
  add(out, "peak_heap_mb", e2e.peak_heap_mib, "MiB", requests);

  // Wall-clock figures of the same untraced pass. They go with the
  // per-layer metrics, which carry no bound: on a shared VM the host's
  // steal time swings them by up to 2x between consecutive runs.
  auto& wall = report.per_layer;
  add(wall, "dest_per_s", ratio(dests, wall_s), "1/s", e2e.destinations);
  add(wall, "req_per_s", ratio(static_cast<double>(requests), wall_s), "1/s",
      requests);
  add(wall, "req_ms_p50", median(e2e.request_ms), "ms", requests, "median");
  const auto tail = tail_percentile(e2e.request_ms);
  add(wall, "req_ms_tail", tail.value, "ms", requests, percentile_note(tail));
  add(wall, "first_line_ms_p50", median(e2e.first_line_ms), "ms",
      e2e.first_line_ms.size(), "median");
}

void add_per_layer(Report& report, const LayerTimes& t, const TracedPass& pass,
                   const DatagramSample& sample) {
  auto& out = report.per_layer;
  const auto dests = static_cast<double>(pass.destinations);
  const auto probes = static_cast<double>(t.datagrams);
  const auto per_probe = [&](double ns) { return ratio(ns, probes); };
  const NetCosts net_costs = time_net(sample);

  const double topology_ns = t.world_ns + t.gen_ns;
  const double stop_set_ns =
      t.stop_contains_ns + t.stop_query_ns + t.stop_record_ns;
  const double traced_ns = pass.worker_ns - t.check_ns;
  const double layers_ns = topology_ns + t.transport_ns + stop_set_ns +
                           t.core_self_ns + t.json_ns +
                           t.orchestrator_self_ns + t.emit_ns;

  add(out, "topology.gen_us_per_dest", ratio(topology_ns, dests) / 1e3, "us",
      pass.destinations);
  add(out, "fakeroute.ns_per_probe", per_probe(t.transport_ns), "ns",
      t.datagrams);
  add(out, "net.build_ns_per_probe", net_costs.build_ns, "ns",
      net_costs.probes);
  add(out, "net.parse_ns_per_reply", net_costs.parse_ns, "ns",
      net_costs.replies);
  add(out, "probe.submits_per_probe",
      ratio(static_cast<double>(t.submits), probes), "count", t.datagrams);
  add(out, "probe.retry_ratio", ratio(static_cast<double>(pass.retries), probes),
      "ratio", t.datagrams);
  add(out, "core.self_ns_per_probe", per_probe(t.core_self_ns), "ns",
      t.datagrams);
  add(out, "core.json_us_per_dest", ratio(t.json_ns, dests) / 1e3, "us",
      pass.destinations);
  add(out, "alias.ms_per_dest", pass.alias_ms_per_dest, "ms",
      pass.destinations);
  add(out, "alias.probes_per_dest", pass.alias_probes_per_dest, "count",
      pass.destinations);
  add(out, "orchestrator.worker_busy_ratio",
      ratio(t.callback_ns, pass.worker_ns), "ratio", pass.destinations);
  const auto wait = tail_percentile(t.reorder_wait_ms);
  add(out, "orchestrator.reorder_wait_ms_tail", wait.value, "ms",
      wait.samples, percentile_note(wait));
  add(out, "orchestrator.sink_us_per_line",
      t.emit_ns > 0 ? ratio(t.emit_ns, static_cast<double>(t.lines)) / 1e3
                    : 0.0,
      "us", t.lines);
  add(out, "orchestrator.self_ns_per_probe", per_probe(t.orchestrator_self_ns),
      "ns", t.datagrams);
  add(out, "orchestrator.stop_set.lookup_ns",
      ratio(t.stop_contains_ns + t.stop_query_ns,
            static_cast<double>(t.contains_calls + t.query_calls)),
      "ns", t.contains_calls + t.query_calls);
  add(out, "orchestrator.stop_set.record_ns",
      ratio(t.stop_record_ns, static_cast<double>(t.record_calls)), "ns",
      t.record_calls);
  add(out, "orchestrator.stop_set.hit_ratio",
      ratio(static_cast<double>(t.contains_hits),
            static_cast<double>(t.contains_calls)),
      "ratio", t.contains_calls);
  add(out, "orchestrator.stop_set.probes_saved_per_dest",
      pass.probes_saved_per_dest, "count", pass.destinations);
  add(out, "store.load_ms", pass.store_load_ms, "ms", pass.store_load_samples,
      "median, thread CPU time");
  add(out, "daemon.overhead_ms_per_req", pass.daemon_overhead_ms, "ms",
      pass.overhead_samples);
  add(out, "daemon.refused_ratio", pass.refused_ratio, "ratio",
      pass.overhead_samples);
  add(out, "traced_ns_per_probe", per_probe(traced_ns), "ns", t.datagrams);
  add(out, "residual_ns_per_probe", per_probe(traced_ns - layers_ns), "ns",
      t.datagrams);
  add(out, "trace_overhead_ratio",
      ratio(pass.traced_wall_ns, pass.untraced_wall_ns), "ratio", 1);

  // The ledger: the parts residual_ns_per_probe is the remainder of.
  std::printf("ledger (ns per probe over %llu probes):\n",
              static_cast<unsigned long long>(t.datagrams));
  const std::pair<const char*, double> parts[] = {
      {"topology (world + next_route)", topology_ns},
      {"fakeroute (transport decorator)", t.transport_ns},
      {"stop set (lookups + records)", stop_set_ns},
      {"core self (tracer, engine, net)", t.core_self_ns},
      {"core json", t.json_ns},
      {"orchestrator self (task, callback, envelope)", t.orchestrator_self_ns},
      {"sink emit", t.emit_ns},
      {"residual (waiting, locking, idle)", traced_ns - layers_ns},
  };
  for (const auto& [name, ns] : parts) {
    std::printf("  %-46s %12.1f\n", name, per_probe(ns));
  }
  std::printf("  %-46s %12.1f\n", "traced total", per_probe(traced_ns));
}

}  // namespace perfbench
