// Reproduces the Section 3.2 discussion: remote reads cost 2L + 4o, and
// multithreading masks latency only within the network's pipelining limits
// — issue slots every max(g, 2o) and the bandwidth-delay product of
// outstanding requests; beyond that extra virtual processors buy nothing.
#include <algorithm>
#include <iostream>

#include "algo/remote_read.hpp"
#include "obs/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  std::cout << "== Section 3.2: remote reads and multithreading ==\n\n";

  std::cout << "-- dependent remote reads: cycles per read vs 2L + 4o --\n";
  util::TablePrinter rp({"machine", "L", "o", "g", "measured", "2L+4o"});
  for (const Params prm : {Params{6, 2, 4, 2}, Params{20, 5, 8, 2},
                           Params{200, 66, 132, 2}, Params{114, 66, 160, 2}}) {
    const auto r = algo::run_dependent_reads(prm, 200);
    rp.add_row({prm.to_string(), std::to_string(prm.L), std::to_string(prm.o),
                std::to_string(prm.g), util::fmt(r.cycles_per_read(), 1),
                std::to_string(prm.remote_read_time())});
  }
  rp.print(std::cout);

  std::cout << "\n-- multithreaded reads: throughput vs virtual processors --\n";
  const Params prm{128, 2, 8, 2};
  const double bound =
      1.0 / double(std::max<Cycles>(prm.g, 2 * prm.o));
  const double knee = double(prm.remote_read_time()) / double(prm.g);
  std::cout << "machine " << prm.to_string() << ": capacity L/g = "
            << prm.capacity() << ", service bound = " << util::fmt(bound, 4)
            << " reads/cycle, knee ~ RTT/g = " << util::fmt(knee, 1)
            << " threads\n\n";
  util::TablePrinter tp({"vthreads", "reads/kcycle", "of bound", "speedup"});
  double first = 0;
  for (const int v : {1, 2, 4, 8, 16, 32, 48, 64, 128}) {
    const auto r = algo::run_multithreaded_reads(prm, v, 50);
    const double rate = double(r.reads) / double(r.total);
    if (v == 1) first = rate;
    tp.add_row({std::to_string(v), util::fmt(rate * 1000, 2),
                util::fmt(rate / bound, 2), util::fmt(rate / first, 1)});
  }
  tp.print(std::cout);

  std::cout << "\nThroughput scales with threads while latency is being\n"
               "masked, then saturates at the overhead/gap service bound;\n"
               "the model's point: multithreading is limited by o, g and\n"
               "the capacity constraint, not a free PRAM-style trick.\n";
  return 0;
}
