// Reproduces paper Table 1: network timing parameters and the unloaded
// one-way time T(M=160) for a 1024-processor configuration of each machine,
// plus the LogP parameters the Section 5.2 recipe derives from them.
#include <iostream>

#include "machines/database.hpp"
#include "obs/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace logp;
  if (const int rc = obs::parse_cli(argc, argv, {})) return rc;
  std::cout << "== Table 1: one-way message time without contention "
               "(1024 processors, M = 160 bits) ==\n\n";

  util::TablePrinter t({"Machine", "Network", "Cycle ns", "w bits",
                        "Tsnd+Trcv", "r", "avg H", "T(M=160)"});
  for (const auto& m : machines::table1()) {
    t.add_row({m.name, m.topology, util::fmt(m.cycle_ns, 0),
               std::to_string(m.width_bits), util::fmt_count(m.snd_rcv),
               util::fmt_count(m.hop_delay), util::fmt(m.avg_hops_1024, 1),
               util::fmt(m.unloaded_time(160, m.avg_hops_1024), 0)});
  }
  t.print(std::cout);

  std::cout << "\npaper reports: 6760, 3714, 53, 60, 30, 1360, 246 cycles\n";

  std::cout << "\n== LogP parameters derived per Section 5.2 "
               "(o = (Tsnd+Trcv)/2, L = H*r + M/w, g from bisection BW) ==\n\n";
  util::TablePrinter d({"Machine", "L", "o", "g", "capacity L/g"});
  for (const auto& m : machines::table1()) {
    const Params prm = m.derive_logp(160, m.avg_hops_1024, 1024);
    d.add_row({m.name, util::fmt_count(prm.L), util::fmt_count(prm.o),
               util::fmt_count(prm.g), util::fmt_count(prm.capacity())});
  }
  d.print(std::cout);
  std::cout << "\nNote how overhead dominates the commercial send/receive\n"
               "stacks (nCUBE/2, CM-5) while the research machines and the\n"
               "Active Message layers shrink o toward the wire time.\n";
  return 0;
}
