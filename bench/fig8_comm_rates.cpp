// Reproduces paper Figure 8: communication rate (MB/s per processor) during
// the FFT remap on a 128-processor CM-5, for:
//   predicted     — the Section 4.1.4 analysis, n/P * max(1us + 2o, g) + L;
//   naive         — head-of-line contention at each destination in turn;
//   staggered     — theoretically contention-free, but processors drift out
//                   of step (modelled as multiplicative compute jitter, the
//                   paper blames "cache effects, network collisions");
//   synchronized  — staggered plus a message-based barrier every n/P^2
//                   messages, which re-aligns the processors;
//   double net    — both CM-5 data rails, i.e. half the gap; bandwidth is
//                   not the binding term, so the gain is small.
//
// Each (points, column) run is an independent simulation; the sweep harness
// runs them across `--threads N` workers and merges rows in grid order, so
// the table is byte-identical for any thread count.
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "algo/fft.hpp"
#include "exp/sweep.hpp"
#include "obs/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;
namespace coll = runtime::coll;

double rate_mbs(const Params& prm, const algo::FftConfig& cfg,
                Cycles remap_cycles) {
  const double bytes = 16.0 * double(cfg.n / prm.P);
  const double ns = double(remap_cycles) * Cm5::kTickNs;
  return bytes / ns * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  if (const int rc = obs::parse_cli(argc, argv, {obs::threads_flag(&threads)}))
    return rc;
  const int P = 128;
  const Params base = Cm5::params(P);
  Params twonet = base;
  twonet.g = base.g / 2;

  std::cout << "== Figure 8: remap communication rate, MB/s per processor "
               "(P = 128) ==\n\n";
  const std::vector<std::int64_t> points = {
      std::int64_t{1} << 16, std::int64_t{1} << 18, std::int64_t{1} << 20,
      std::int64_t{1} << 21, std::int64_t{1} << 22};
  // The four simulated columns: schedule and machine. 2% execution-time
  // jitter models the asynchrony the paper observed.
  struct Column {
    coll::A2ASchedule schedule;
    Params prm;
  };
  const Column columns[] = {{coll::A2ASchedule::kNaive, base},
                            {coll::A2ASchedule::kStaggered, base},
                            {coll::A2ASchedule::kSynchronized, base},
                            {coll::A2ASchedule::kStaggered, twonet}};
  std::vector<std::function<double()>> jobs;
  for (const std::int64_t n : points)
    for (const Column& col : columns)
      jobs.push_back([n, col] {
        algo::FftConfig cfg;
        cfg.n = n;
        cfg.carry_data = false;
        cfg.schedule = col.schedule;
        cfg.compute_jitter = 0.02;
        const auto r = algo::run_hybrid_fft(col.prm, cfg);
        return rate_mbs(col.prm, cfg, r.remap_time());
      });
  const exp::SweepRunner runner({threads});
  const auto rates = runner.map(jobs);

  util::TablePrinter tp({"FFT points", "predicted", "naive", "staggered",
                         "synchronized", "double net"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    algo::FftConfig cfg;
    cfg.n = points[i];
    cfg.carry_data = false;
    std::vector<std::string> row = {
        util::fmt_pow2(points[i]),
        util::fmt(algo::predicted_remap_rate_mbs(base, cfg, Cm5::kTickNs), 2)};
    for (std::size_t c = 0; c < std::size(columns); ++c)
      row.push_back(util::fmt(rates[i * std::size(columns) + c], 2));
    tp.add_row(row);
  }
  tp.print(std::cout);

  std::cout << "\npaper: predicted asymptote 3.2 MB/s; staggered measured\n"
               "~2 MB/s and drooping at large n; synchronizing flattens the\n"
               "droop; doubling the network bandwidth buys only ~15% because\n"
               "the remap is overhead-limited (o and the per-point load/\n"
               "store dominate g).\n";
  return 0;
}
