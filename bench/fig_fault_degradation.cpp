// Fault-degradation study: delivered bandwidth and effective latency of the
// packet network as the per-packet drop rate rises, with the loss repaired
// by deterministic retransmission (fault/fault.hpp retry machinery).
//
// LogP's L and g describe a healthy network. Under loss, an end-to-end
// reliable layer re-sends dropped packets, so the *effective* L seen by a
// delivered packet grows by retry timeouts, and the retransmit traffic
// competes for the same links — the saturation knee of the Section 5.3
// study moves left. This bench quantifies both on an 8x8 torus: a
// (drop rate x offered load) grid, every point byte-identical at any
// --threads value because fault decisions are pure hashes of
// (plan seed, injection id, attempt).
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  int threads = 1;
  // Packet-level obs sinks (exemplar re-run after the grid; see below).
  obs::ObsFlags obs_flags;
  if (const int rc = obs::parse_cli(argc, argv, {obs::threads_flag(&threads)},
                                    obs::sink::kPacket, &obs_flags))
    return rc;

  const auto torus = net::make_mesh2d(8, 8, true);
  const std::vector<double> drop_rates = {0.0,  0.005, 0.01,
                                          0.02, 0.05,  0.1};
  const std::vector<double> loads = {0.02, 0.04, 0.06, 0.065, 0.07, 0.08};
  // A point "delivers" its load when throughput tracks the offered rate to
  // within 3%; beyond the knee the gap grows without bound.
  const auto delivers = [](double throughput, double load) {
    return throughput >= 0.97 * load;
  };

  net::PacketSimConfig base;
  base.duration = 30000;
  const Cycles retry_timeout = 4 * net::lookahead(base);

  // One immutable plan per drop rate, built up front so the job lambdas can
  // hold stable pointers.
  std::vector<fault::FaultPlan> plans;
  plans.reserve(drop_rates.size());
  for (const double d : drop_rates) {
    fault::FaultPlan fp;
    fp.drop_rate = d;
    fp.retry_timeout = retry_timeout;
    fp.max_retries = 6;
    plans.push_back(fp);
  }

  std::vector<std::function<net::PacketSimResult()>> jobs;
  for (std::size_t di = 0; di < drop_rates.size(); ++di)
    for (const double load : loads) {
      const fault::FaultPlan* fp = &plans[di];
      jobs.push_back([&torus, fp, load, base] {
        net::PacketSimConfig cfg = base;
        cfg.injection_rate = load;
        cfg.faults = fp->empty() ? nullptr : fp;
        return net::run_packet_sim(*torus, cfg);
      });
    }

  const exp::SweepRunner runner({threads});
  const std::vector<net::PacketSimResult> results = runner.map(jobs);

  std::cout << "== Fault degradation: drop rate vs delivered bandwidth "
               "(8x8 torus) ==\n\n"
            << "Dropped packets are retransmitted after " << retry_timeout
            << " cycles (up to 6 retries); every retry re-pays the full\n"
               "route, so loss shows up twice: as retry latency on the "
               "delivered\npackets (effective L) and as parasitic load on "
               "the links.\n\n";

  std::size_t job = 0;
  for (std::size_t di = 0; di < drop_rates.size(); ++di) {
    std::cout << "-- drop rate " << util::fmt(drop_rates[di], 3) << " --\n";
    util::TablePrinter tp({"load (pkt/node/cyc)", "throughput", "eff. L (mean)",
                           "p95", "retx/pkt", "lost", "state"});
    for (const double load : loads) {
      const auto& r = results[job++];
      if (r.truncated)
        std::fprintf(stderr,
                     "warning: point (drop=%g, load=%g) truncated with %lld "
                     "packets undrained; figures understate congestion\n",
                     drop_rates[di], load,
                     static_cast<long long>(r.undrained));
      const double retx_per_pkt =
          r.injected > 0 ? static_cast<double>(r.retransmitted) /
                               static_cast<double>(r.injected)
                         : 0.0;
      tp.add_row({util::fmt(load, 4), util::fmt(r.throughput, 4),
                  util::fmt(r.latency.mean(), 0), util::fmt(r.p95_latency, 0),
                  util::fmt(retx_per_pkt, 3), std::to_string(r.lost),
                  r.saturated          ? "SATURATED"
                  : delivers(r.throughput, load) ? "stable"
                                                 : "congested"});
    }
    tp.print(std::cout);
    std::cout << '\n';
  }

  // Knee summary: the highest load each drop rate still delivers in full,
  // and the delivered bandwidth at the top of the grid. Retransmit traffic
  // multiplies the carried load by roughly 1/(1 - drop), so the knee moves
  // left and the post-knee bandwidth falls as the drop rate rises.
  std::cout << "-- degradation knee --\n";
  util::TablePrinter knee({"drop rate", "knee load", "eff. L at knee",
                           "bandwidth @ " + util::fmt(loads.back(), 3)});
  for (std::size_t di = 0; di < drop_rates.size(); ++di) {
    double stable = 0.0;
    double eff_l = 0.0;
    for (std::size_t li = 0; li < loads.size(); ++li) {
      const auto& r = results[di * loads.size() + li];
      if (!r.saturated && delivers(r.throughput, loads[li])) {
        stable = loads[li];
        eff_l = r.latency.mean();
      }
    }
    knee.add_row({util::fmt(drop_rates[di], 3), util::fmt(stable, 4),
                  util::fmt(eff_l, 0),
                  util::fmt(results[di * loads.size() + loads.size() - 1]
                                .throughput,
                            4)});
  }
  knee.print(std::cout);
  std::cout << "\nDelivered bandwidth degrades monotonically with the drop\n"
               "rate: below the knee the retries only stretch the latency\n"
               "tail, beyond it the retransmit traffic itself tips the\n"
               "network into saturation.\n";

  if (obs_flags.any()) {
    // Exemplar: 2% loss at the pre-knee load 0.06 — lossy enough that the
    // retransmit counter track and per-link drop column are populated,
    // stable enough that utilization reads as load, not as saturation.
    // Re-run serially with the single-owner sinks attached; the grid
    // tables above stay byte-identical with the flags on or off.
    obs::NetTelemetry tel;
    tel.sample_every = 250;
    obs::MetricsRegistry metrics;
    net::PacketSimConfig cfg = base;
    cfg.injection_rate = 0.06;
    cfg.faults = &plans[3];  // drop_rates[3] == 0.02
    cfg.telemetry = &tel;
    cfg.metrics = &metrics;
    (void)net::run_packet_sim(*torus, cfg);
    obs::emit_packet_obs(obs_flags, tel, metrics, "drop=0.02 load=0.06",
                         std::cout);
  }
  return 0;
}
