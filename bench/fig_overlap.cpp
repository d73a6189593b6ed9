// Paper Section 4.1.5: overlapping communication with computation.
//
// "In future machines we expect architectural innovations ... to
//  significantly reduce the value of o with respect to g. ... If o is small
//  compared to g, each processor idles for g - 2o cycles between successive
//  transmissions during the remap. The remap can be merged into the
//  computation phases ... Unless g is extremely large, this eliminates
//  idling of processors during remap."
//
// We sweep o downward from the CM-5's value and compare the sequential
// hybrid FFT with the merged (overlap_remap) variant.
#include <iostream>

#include "algo/fft.hpp"
#include "obs/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  const int P = 32;
  const std::int64_t n = 1 << 16;
  std::cout << "== Section 4.1.5: merging the remap into computation ==\n"
            << "(CM-5 otherwise: L=200, g=132 ticks; n=" << n << ", P=" << P
            << ")\n\n";

  util::TablePrinter tp({"o (ticks)", "idle/pt g-2o-ls", "sequential (Mcyc)",
                         "overlapped (Mcyc)", "saved", "saved/stage"});
  for (const Cycles o : {66, 40, 20, 8, 2}) {
    Params prm = Cm5::params(P);
    prm.o = o;
    algo::FftConfig seq, ovl;
    seq.n = ovl.n = n;
    seq.carry_data = ovl.carry_data = false;
    ovl.overlap_remap = true;
    const auto rs = algo::run_hybrid_fft(prm, seq);
    const auto ro = algo::run_hybrid_fft(prm, ovl);
    const Cycles idle =
        std::max<Cycles>(0, prm.g - 2 * o - seq.loadstore_cycles);
    const Cycles stage = (n / P / 2) * seq.butterfly_cycles;
    tp.add_row({std::to_string(o), std::to_string(idle),
                util::fmt(double(rs.total) / 1e6, 2),
                util::fmt(double(ro.total) / 1e6, 2),
                util::fmt(double(rs.total - ro.total) / 1e6, 2),
                util::fmt(double(rs.total - ro.total) / double(stage), 2)});
  }
  tp.print(std::cout);

  std::cout << "\nWith the CM-5's o = 66 the remap is already overhead-\n"
               "bound (2o + load/store > g) and merging buys nothing; as o\n"
               "shrinks, the merged schedule hides up to a full butterfly\n"
               "stage of computation inside the transmission gaps.\n";
  return 0;
}
