// Reproduces paper Figure 3: the optimal single-item broadcast.
//
// Prints (a) the exact worked example (P=8, L=6, g=4, o=2) with its
// processor-activity timeline, and (b) sweeps of broadcast completion time
// against P and against each LogP parameter, comparing the optimal tree with
// the linear and binomial baselines — both analytically and as executed on
// the discrete-event machine. The simulated sweep fans out across worker
// threads (`--threads N`); output is byte-identical for any thread count.
#include <iostream>
#include <memory>
#include <vector>

#include "core/broadcast_tree.hpp"
#include "exp/sweep.hpp"
#include "obs/cli.hpp"
#include "obs/metrics.hpp"
#include "runtime/collectives.hpp"
#include "trace/timeline.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

/// One grid point of the "completion vs P" sweep: the tree is shared
/// read-only; the value array is created per run inside the factory.
exp::ExperimentSpec broadcast_spec(const Params& prm) {
  auto tree = std::make_shared<const BroadcastTree>(optimal_broadcast_tree(prm));
  exp::ExperimentSpec spec;
  spec.label = std::to_string(prm.P);
  spec.config.params = prm;
  spec.make_program = [prm, tree]() -> runtime::Program {
    auto value =
        std::make_shared<std::vector<std::uint64_t>>(static_cast<std::size_t>(prm.P), 0);
    (*value)[0] = 1;
    return [tree, value](runtime::Ctx ctx) -> runtime::Task {
      return runtime::coll::broadcast_optimal(
          ctx, *tree, &(*value)[static_cast<std::size_t>(ctx.proc())]);
    };
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  // The obs sinks apply to the worked example below; all default off,
  // keeping stdout byte-stable.
  obs::ObsFlags obs_flags;
  if (const int rc = obs::parse_cli(
          argc, argv, {obs::threads_flag(&threads)},
          obs::sink::kMachine | obs::sink::kCriticalPath | obs::sink::kWhatif,
          &obs_flags))
    return rc;
  std::cout << "== Figure 3: optimal broadcast tree ==\n\n";

  const Params fig3{6, 2, 4, 8};
  const auto tree = optimal_broadcast_tree(fig3);
  std::cout << "Worked example " << fig3.to_string() << ":\n";
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const auto& n = tree.nodes[i];
    std::cout << "  P" << i
              << (n.parent < 0 ? std::string(": source")
                               : ": recv at t=" + std::to_string(n.recv_done) +
                                     " from P" + std::to_string(n.parent))
              << "\n";
  }
  std::cout << "completion t=" << tree.completion
            << "  (paper: last value received at time 24)\n\n";

  {
    obs::MetricsRegistry metrics;
    obs::CritPathRecorder critpath;
    sim::MachineConfig cfg;
    cfg.params = fig3;
    cfg.record_trace = true;
    if (!obs_flags.metrics_csv.empty()) cfg.metrics = &metrics;
    if (obs_flags.wants_critpath() || !obs_flags.trace_json.empty())
      cfg.critpath = &critpath;
    runtime::Scheduler sched(cfg);
    std::vector<std::uint64_t> value(8, 0);
    value[0] = 1;
    sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
      return runtime::coll::broadcast_optimal(
          ctx, tree, &value[static_cast<std::size_t>(ctx.proc())]);
    });
    sched.run();
    std::cout << trace::render_timeline(sched.machine().recorder(), 8) << '\n';
    obs::emit_machine_obs(obs_flags, sched.machine(), "fig3 worked example",
                          std::cout, &metrics, &critpath);
  }

  std::cout << "== Completion time vs P (CM-5 parameters, in us) ==\n\n";
  util::TablePrinter tp({"P", "optimal (analytic)", "optimal (simulated)",
                         "binomial", "linear", "opt fanout(root)"});
  const std::vector<int> ps = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  std::vector<exp::ExperimentSpec> specs;
  for (int P : ps) specs.push_back(broadcast_spec(Cm5::params(P)));
  const exp::SweepRunner runner({threads});
  const auto results = runner.run(specs);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const Params prm = Cm5::params(ps[i]);
    const auto t = optimal_broadcast_tree(prm);
    const double us = Cm5::kTickNs / 1000.0;
    tp.add_row({std::to_string(ps[i]), util::fmt(t.completion * us, 1),
                util::fmt(static_cast<double>(results[i].finish) * us, 1),
                util::fmt(binomial_broadcast_time(prm) * us, 1),
                util::fmt(linear_broadcast_time(prm) * us, 1),
                std::to_string(t.fanout(0))});
  }
  tp.print(std::cout);

  std::cout << "\n== Sensitivity at P=64 (base L=6, o=2, g=4; cycles) ==\n\n";
  util::TablePrinter sp({"variant", "L", "o", "g", "optimal", "binomial",
                         "linear"});
  const std::vector<std::pair<const char*, Params>> variants = {
      {"base", {6, 2, 4, 64}},     {"high latency", {24, 2, 4, 64}},
      {"high overhead", {6, 8, 8, 64}}, {"low bandwidth", {6, 2, 16, 64}},
      {"free comm (PRAM-ish)", {1, 0, 1, 64}}};
  for (const auto& [name, prm] : variants) {
    sp.add_row({name, std::to_string(prm.L), std::to_string(prm.o),
                std::to_string(prm.g),
                std::to_string(optimal_broadcast_time(prm)),
                std::to_string(binomial_broadcast_time(prm)),
                std::to_string(linear_broadcast_time(prm))});
  }
  sp.print(std::cout);
  std::cout << "\nThe optimal tree adapts its fan-out to L, o and g; the\n"
               "binomial shape is only optimal when the gap never binds.\n";
  return 0;
}
