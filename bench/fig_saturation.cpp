// Reproduces the Section 5.3 observation (after Dally's k-ary n-cube
// studies): message latency is nearly flat in offered load up to a
// saturation point, beyond which it diverges. LogP abstracts this by
// treating L as a constant and *excluding* the saturated regime via the
// ceil(L/g) capacity constraint.
//
// Packet-level simulation with link contention on several topologies;
// uniform random traffic; store-and-forward with r = 2 cycles of routing
// and 10 cycles of serialization per hop. The (topology, load) grid runs
// through the sweep harness (`--threads N`); every simulation owns its RNG
// and is seeded by configuration, so output is byte-identical for any
// thread count.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "exp/sweep.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

/// Re-runs one (topology, load) point with a telemetry sink and prints what
/// the summary table cannot show: which links pin at 100% busy beyond the
/// knee, and how network occupancy compares with the LogP capacity bound.
/// Re-running is cheap and keeps the sweep itself sink-free (a parallel
/// sweep must not share observers). The engine's introspection counters
/// accumulate into `metrics` across the exemplar points.
void profile_point(const logp::net::Topology& topo, double load,
                   logp::obs::ChromeTraceWriter* trace_writer, int pid,
                   logp::obs::MetricsRegistry& metrics) {
  using namespace logp;
  net::PacketSimConfig cfg;
  cfg.duration = 30000;
  cfg.injection_rate = load;
  obs::NetTelemetry telem;
  telem.sample_every = 500;
  cfg.telemetry = &telem;
  cfg.metrics = &metrics;
  const auto r = net::run_packet_sim(topo, cfg);

  std::cout << "-- telemetry: " << topo.name() << " @ load " << util::fmt(load, 4)
            << (r.saturated ? " (SATURATED)" : "") << " --\n"
            << "max link utilization " << util::fmt(telem.max_utilization(), 3)
            << ", total queue wait " << util::fmt_count(telem.total_queue_wait())
            << " cycles, worst backlog " << telem.max_backlog()
            << " packets, peak in-flight " << r.peak_in_flight << "\n"
            << telem.render_links_table(8) << '\n';
  if (trace_writer != nullptr) {
    trace_writer->add_counter(
        topo.name() + " in-flight @ " + util::fmt(load, 4), telem.in_flight,
        pid);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logp;
  int threads = 1;
  // --profile re-runs an exemplar stable and saturated grid point with link
  // telemetry; --trace-json FILE writes their in-flight occupancy as Chrome
  // trace counter tracks, --metrics-csv FILE their engine counters. There is
  // no single run whose per-link CSV --links-csv could name.
  obs::ObsFlags obs_flags;
  if (const int rc = obs::parse_cli(argc, argv, {obs::threads_flag(&threads)},
                                    obs::sink::kPacket & ~obs::sink::kLinksCsv,
                                    &obs_flags))
    return rc;
  std::cout << "== Section 5.3: latency vs offered load (packet-level) ==\n\n";

  std::vector<std::unique_ptr<net::Topology>> topos;
  topos.push_back(net::make_hypercube(64));
  topos.push_back(net::make_mesh2d(8, 8, true));
  topos.push_back(net::make_mesh2d(8, 8, false));
  topos.push_back(net::make_fat_tree4(64, 2));

  const std::vector<double> loads = {0.0005, 0.001, 0.002, 0.004,
                                     0.008,  0.016, 0.032, 0.064};

  // One job per (topology, load) point. Topologies are routed through const
  // methods only, so sharing them read-only across workers is safe.
  std::vector<std::function<net::PacketSimResult()>> jobs;
  for (const auto& topo : topos)
    for (const double load : loads)
      jobs.push_back([&topo, load] {
        net::PacketSimConfig cfg;
        cfg.duration = 30000;
        cfg.injection_rate = load;
        return net::run_packet_sim(*topo, cfg);
      });
  const exp::SweepRunner runner({threads});
  const auto results = runner.map(jobs);

  std::size_t job = 0;
  for (const auto& topo : topos) {
    net::PacketSimConfig cfg;
    cfg.duration = 30000;
    const double unloaded =
        net::unloaded_packet_time(cfg, topo->average_distance());
    std::cout << "-- " << topo->name() << " (unloaded ~" << util::fmt(unloaded, 0)
              << " cycles) --\n";
    util::TablePrinter tp({"load (pkt/node/cyc)", "mean latency",
                           "p95 latency", "throughput", "state"});
    for (const double load : loads) {
      const auto& r = results[job++];
      if (r.truncated)
        std::fprintf(stderr,
                     "warning: %s @ load %g gave up draining with %lld "
                     "packets still in flight; latency/throughput understate "
                     "congestion\n",
                     topo->name().c_str(), load,
                     static_cast<long long>(r.undrained));
      tp.add_row({util::fmt(load, 4), util::fmt(r.latency.mean(), 0),
                  util::fmt(r.p95_latency, 0), util::fmt(r.throughput, 4),
                  r.saturated ? "SATURATED"
                  : r.latency.mean() > 2 * unloaded ? "congested"
                                                    : "stable"});
    }
    tp.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Below saturation latency is insensitive to load — modelling\n"
               "it as the constant L is sound; the LogP capacity constraint\n"
               "(at most ceil(L/g) messages per endpoint) is what keeps\n"
               "programs out of the divergent regime.\n";

  if (obs_flags.profile || !obs_flags.trace_json.empty() ||
      !obs_flags.metrics_csv.empty()) {
    // The 8x8 mesh (no torus) has the sharpest knee in the grid above:
    // profile it just below (0.008) and beyond (0.064) the saturation point.
    obs::ChromeTraceWriter writer;
    obs::ChromeTraceWriter* w =
        obs_flags.trace_json.empty() ? nullptr : &writer;
    obs::MetricsRegistry metrics;
    const auto mesh = net::make_mesh2d(8, 8, false);
    std::cout << '\n';
    profile_point(*mesh, 0.008, w, 0, metrics);
    profile_point(*mesh, 0.064, w, 1, metrics);
    std::cout << "The knee is a link story: at 0.064 the mesh's center links\n"
                 "run pinned at ~100% busy and queue wait dominates latency,\n"
                 "while at 0.008 every link still serves arrivals promptly.\n";
    if (w != nullptr) obs::write_file(obs_flags.trace_json, writer.str());
    if (!obs_flags.metrics_csv.empty())
      obs::write_file(obs_flags.metrics_csv, metrics.to_csv());
  }
  return 0;
}
