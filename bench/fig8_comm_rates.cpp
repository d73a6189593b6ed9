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
#include <iostream>

#include "algo/fft.hpp"
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
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  const int P = 128;
  const Params base = Cm5::params(P);
  Params twonet = base;
  twonet.g = base.g / 2;

  std::cout << "== Figure 8: remap communication rate, MB/s per processor "
               "(P = 128) ==\n\n";
  util::TablePrinter tp({"FFT points", "predicted", "naive", "staggered",
                         "synchronized", "double net"});
  for (const std::int64_t n :
       {std::int64_t{1} << 16, std::int64_t{1} << 18, std::int64_t{1} << 20,
        std::int64_t{1} << 21, std::int64_t{1} << 22}) {
    algo::FftConfig cfg;
    cfg.n = n;
    cfg.carry_data = false;

    auto run = [&](coll::A2ASchedule s, const Params& prm, double jitter) {
      algo::FftConfig c = cfg;
      c.schedule = s;
      c.compute_jitter = jitter;
      const auto r = algo::run_hybrid_fft(prm, c);
      return rate_mbs(prm, c, r.remap_time());
    };

    const double predicted =
        algo::predicted_remap_rate_mbs(base, cfg, Cm5::kTickNs);
    // 2% execution-time jitter models the asynchrony the paper observed.
    const double naive = run(coll::A2ASchedule::kNaive, base, 0.02);
    const double stag = run(coll::A2ASchedule::kStaggered, base, 0.02);
    const double sync = run(coll::A2ASchedule::kSynchronized, base, 0.02);
    const double dbl = run(coll::A2ASchedule::kStaggered, twonet, 0.02);

    tp.add_row({util::fmt_pow2(n), util::fmt(predicted, 2),
                util::fmt(naive, 2), util::fmt(stag, 2), util::fmt(sync, 2),
                util::fmt(dbl, 2)});
  }
  tp.print(std::cout);

  std::cout << "\npaper: predicted asymptote 3.2 MB/s; staggered measured\n"
               "~2 MB/s and drooping at large n; synchronizing flattens the\n"
               "droop; doubling the network bandwidth buys only ~15% because\n"
               "the remap is overhead-limited (o and the per-point load/\n"
               "store dominate g).\n";
  return 0;
}
