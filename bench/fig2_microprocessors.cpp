// Reproduces paper Figure 2: state-of-the-art microprocessor performance
// 1987-1992 (SPEC ratings relative to the VAX-11/780) and the growth rates
// the paper quotes: ~97%/year floating point, ~54%/year integer. This is
// the technology argument for LogP — processor speed outruns networks, so
// o and g stay significant.
//
// Pure data + least-squares fit; the figure's machines, read from the plot.
#include <cmath>
#include <iostream>
#include <vector>

#include "obs/cli.hpp"
#include "util/table.hpp"

namespace {

struct Chip {
  const char* name;
  double year;
  double integer;  // x VAX-11/780
  double fp;
};

// Approximate readings of the paper's Figure 2 data points.
const Chip kChips[] = {
    {"Sun 4/260", 1987.0, 9, 6},       {"MIPS M/120", 1988.5, 13, 10},
    {"MIPS M2000", 1989.5, 18, 18},    {"IBM RS6000/540", 1990.5, 24, 44},
    {"HP 9000/750", 1991.5, 51, 77},   {"DEC alpha", 1992.5, 80, 140},
};

// Least-squares fit of log(perf) vs year; returns annual growth factor.
double growth(double Chip::*field) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (const auto& c : kChips) {
    const double x = c.year - 1987.0;
    const double y = std::log(c.*field);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return std::exp(slope);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logp;
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  std::cout << "== Figure 2: microprocessor performance, 1987-1992 ==\n\n";
  util::TablePrinter tp({"machine", "year", "integer (xVAX)", "FP (xVAX)"});
  for (const auto& c : kChips)
    tp.add_row({c.name, util::fmt(c.year, 1), util::fmt(c.integer, 0),
                util::fmt(c.fp, 0)});
  tp.print(std::cout);

  const double gi = growth(&Chip::integer);
  const double gf = growth(&Chip::fp);
  std::cout << "\nfitted annual growth: integer " << util::fmt((gi - 1) * 100, 0)
            << "%/year, floating point " << util::fmt((gf - 1) * 100, 0)
            << "%/year\npaper: integer ~54%/year, floating point ~97%/year\n"
            << "\nThe point: processors improve faster than network\n"
               "interfaces, so latency and overhead stay significant —\n"
               "the premise of the whole model.\n";
  return 0;
}
