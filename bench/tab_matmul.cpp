// Matrix multiplication layouts (paper Section 6.6's "similar observations
// apply to ... matrix multiplication"): 1-D column layout ships O(n^2)
// words to every processor; 2-D SUMMA ships O(n^2/sqrt(P)) — the same
// sqrt(P) communication win as LU's grid layout, realized here with
// ring-pipelined panel broadcasts on the simulated machine.
#include <iostream>

#include "algo/matmul.hpp"
#include "obs/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  const Params prm{20, 4, 8, 16};
  std::cout << "== Matrix multiply layouts, " << prm.to_string() << " ==\n\n";

  util::TablePrinter tp({"n", "layout", "total (kcyc)", "messages",
                         "busy frac", "comm share", "vs summa"});
  for (const std::int64_t n : {32, 64, 128}) {
    algo::MatmulConfig base;
    base.n = n;
    base.panel = 2;
    base.carry_data = false;
    base.layout = algo::MatmulLayout::kSumma2D;
    const auto summa = algo::run_matmul_sim(prm, base);
    for (const auto layout :
         {algo::MatmulLayout::kSumma2D, algo::MatmulLayout::kColumn1D}) {
      algo::MatmulConfig cfg = base;
      cfg.layout = layout;
      const auto r = algo::run_matmul_sim(prm, cfg);
      const double comm_share =
          1.0 - double(r.compute_cycles) / (double(r.total) * prm.P);
      tp.add_row({util::fmt_count(n), algo::matmul_layout_name(layout),
                  util::fmt(double(r.total) / 1e3, 1),
                  util::fmt_count(r.messages), util::fmt(r.busy_fraction, 3),
                  util::fmt(comm_share, 3),
                  util::fmt(double(r.total) / double(summa.total), 2)});
    }
  }
  tp.print(std::cout);

  std::cout << "\n(Both variants are validated elsewhere to produce the\n"
               "serial product bit-for-bit; here data is counted only.)\n"
               "SUMMA's panels travel along grid rows/columns of sqrt(P)\n"
               "processors; the 1-D layout must broadcast each A panel to\n"
               "all P, so its communication grows sqrt(P)-fold.\n";
  return 0;
}
