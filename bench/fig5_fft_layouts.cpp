// Reproduces the Section 4.1.1 layout analysis illustrated by paper
// Figure 5: remote references and communication time for the cyclic,
// blocked and hybrid butterfly layouts — the hybrid's single all-to-all
// cuts communication by a factor of log P.
//
// The (P, n, layout) grid is evaluated through the sweep harness
// (`--threads N`); rows are merged in grid order, so the output is
// byte-identical for any thread count.
#include <functional>
#include <iostream>
#include <vector>

#include "core/fft_cost.hpp"
#include "exp/sweep.hpp"
#include "obs/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  int threads = 1;
  if (const int rc = obs::parse_cli(argc, argv, {obs::threads_flag(&threads)}))
    return rc;
  std::cout << "== Figure 5 / Section 4.1.1: FFT data layouts ==\n"
               "(CM-5 parameters; per-processor remote references and LogP\n"
               " communication time; compute is layout-independent)\n\n";

  const std::vector<int> ps = {16, 128};
  const std::vector<std::int64_t> ns = {std::int64_t{1} << 14,
                                        std::int64_t{1} << 18,
                                        std::int64_t{1} << 22};
  const std::vector<FftLayout> layouts = {FftLayout::kCyclic,
                                          FftLayout::kBlocked,
                                          FftLayout::kHybrid};

  // One job per (P, n) grid point; each evaluates all three layouts so the
  // "vs hybrid" column has its baseline in hand.
  struct Point {
    FftCost cost[3];
  };
  std::vector<std::function<Point()>> jobs;
  for (int P : ps)
    for (std::int64_t n : ns)
      jobs.push_back([P, n, &layouts] {
        const Params prm = Cm5::params(P);
        Point pt;
        for (std::size_t l = 0; l < layouts.size(); ++l)
          pt.cost[l] = fft_cost(n, layouts[l], prm, Cm5::kButterflyTicks);
        return pt;
      });
  const exp::SweepRunner runner({threads});
  const auto points = runner.map(jobs);

  std::size_t job = 0;
  for (int P : ps) {
    std::cout << "-- P = " << P << " --\n";
    util::TablePrinter tp({"n", "layout", "remote refs/proc", "comm (us)",
                           "compute (us)", "comm/total", "vs hybrid"});
    for (std::size_t ni = 0; ni < ns.size(); ++ni, ++job) {
      const Point& pt = points[job];
      const FftCost& hybrid = pt.cost[2];
      for (std::size_t l = 0; l < layouts.size(); ++l) {
        const FftCost& c = pt.cost[l];
        const char* name = layouts[l] == FftLayout::kCyclic    ? "cyclic"
                           : layouts[l] == FftLayout::kBlocked ? "blocked"
                                                               : "hybrid";
        const double us = Cm5::kTickNs / 1000.0;
        tp.add_row(
            {util::fmt_pow2(ns[ni]), name, util::fmt_count(c.remote_refs),
             util::fmt(double(c.communicate) * us, 0),
             util::fmt(double(c.compute) * us, 0),
             util::fmt(double(c.communicate) / double(c.total()), 3),
             util::fmt(double(c.communicate) / double(hybrid.communicate), 2)});
      }
    }
    tp.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Hybrid = cyclic phase, one remap, blocked phase; its\n"
               "communication advantage is the factor log2(P) the paper\n"
               "derives, and the total is within (1 + g/log n) of optimal.\n";
  return 0;
}
