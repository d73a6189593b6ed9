// Explores the paper's Section 5.6 extension: "provide multiple g's, where
// the one appropriate to the particular communication pattern is used in
// the analysis." We measure, per traffic pattern, the throughput a network
// actually sustains (packet-level, with link contention) and express it as
// an effective per-pattern gap g_pattern = 1 / throughput — the number an
// analysis should plug in for that pattern.
#include <iostream>
#include <memory>
#include <vector>

#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

// Saturation throughput: raise load until delivered/cycle stops following
// offered load; report the best sustained rate.
double saturation_throughput(const net::Topology& topo,
                             net::TrafficPattern pattern) {
  net::PacketSimConfig cfg;
  cfg.pattern = pattern;
  cfg.duration = 15000;
  cfg.drain_limit = 120000;
  double best = 0;
  for (double load = 0.002; load <= 0.26; load *= 2) {
    cfg.injection_rate = load;
    const auto r = net::run_packet_sim(topo, cfg);
    best = std::max(best, r.throughput);
    if (r.saturated || r.throughput < 0.7 * load) break;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // The doubling search is sequential (each topology's loads build on the
  // previous verdict), so the table runs serially and takes no flags.
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  std::cout << "== Section 5.6: one network, many effective g's ==\n"
               "(saturation throughput per traffic pattern; effective gap\n"
               " g_pat = 1/throughput, in cycles per packet per node)\n\n";

  std::vector<std::unique_ptr<net::Topology>> topos;
  topos.push_back(net::make_mesh2d(8, 8, true));
  topos.push_back(net::make_hypercube(64));
  topos.push_back(net::make_butterfly(64));

  const net::TrafficPattern patterns[] = {
      net::TrafficPattern::kNeighbor, net::TrafficPattern::kUniform,
      net::TrafficPattern::kTranspose, net::TrafficPattern::kBitReverse,
      net::TrafficPattern::kHotspot};

  for (const auto& topo : topos) {
    std::cout << "-- " << topo->name() << " --\n";
    util::TablePrinter tp({"pattern", "sat. throughput", "effective g",
                           "vs uniform"});
    const double uni =
        saturation_throughput(*topo, net::TrafficPattern::kUniform);
    for (const auto pat : patterns) {
      const double thr = saturation_throughput(*topo, pat);
      tp.add_row({net::traffic_pattern_name(pat), util::fmt(thr, 4),
                  util::fmt(thr > 0 ? 1.0 / thr : 0.0, 1),
                  util::fmt(thr / uni, 2)});
    }
    tp.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Contention-free patterns (neighbor) sustain several times\n"
               "the bandwidth of adversarial ones (hotspot, bit-reverse on\n"
               "a butterfly); a single g is a compromise, and an analysis\n"
               "may substitute the pattern's own g as the paper suggests.\n";
  return 0;
}
