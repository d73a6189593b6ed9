// Harness microbenchmarks (google-benchmark): throughput of the simulator
// itself — events per second for message ping-pong, broadcast fan-out and
// all-to-all — so regressions in the engine are visible, plus sweep
// throughput (events/sec through exp::SweepRunner at 1, 4 and N workers) so
// regressions in the parallel harness are too. BM_PacketSim and
// BM_MachineChurn guard the zero-allocation hot paths of the packet-level
// network simulator and the machine's message/continuation pools.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/broadcast_tree.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "runtime/collectives.hpp"

namespace {

using namespace logp;
namespace coll = runtime::coll;

void BM_PingPong(benchmark::State& state) {
  const auto rounds = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.params = {6, 2, 4, 2};
    runtime::Scheduler sched(cfg);
    sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
      return [](runtime::Ctx c, std::int64_t n) -> runtime::Task {
        for (std::int64_t i = 0; i < n; ++i) {
          if (c.proc() == 0) {
            co_await c.send(1, 1);
            (void)co_await c.recv(2);
          } else {
            (void)co_await c.recv(1);
            co_await c.send(0, 2);
          }
        }
      }(ctx, rounds);
    });
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_PingPong)->Arg(1000);

void BM_Broadcast(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const Params prm{6, 2, 4, P};
  const auto tree = optimal_broadcast_tree(prm);
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.params = prm;
    runtime::Scheduler sched(cfg);
    std::vector<std::uint64_t> value(static_cast<std::size_t>(P), 1);
    sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
      return coll::broadcast_optimal(
          ctx, tree, &value[static_cast<std::size_t>(ctx.proc())]);
    });
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * (P - 1));
}
BENCHMARK(BM_Broadcast)->Arg(64)->Arg(1024);

void BM_AllToAll(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  const Params prm{20, 2, 4, P};
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.params = prm;
    runtime::Scheduler sched(cfg);
    coll::A2AOptions opts;
    opts.msgs_per_peer = 8;
    sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
      return coll::all_to_all(ctx, opts);
    });
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * P * (P - 1) * 8);
}
BENCHMARK(BM_AllToAll)->Arg(16)->Arg(64);

/// Packet-level network simulator throughput (delivered packets/sec of wall
/// time). Arg = injection rate in units of 1e-4 packets/node/cycle; 200 is
/// the stable regime, 500 pushes the torus toward its saturation knee, so
/// both the low-occupancy and the deep-queue paths are timed.
///
/// LOGP_PERF_OBS=1 attaches a MetricsRegistry (the engine-introspection
/// sink) to every run. The toggle is an env var rather than an Arg so the
/// benchmark NAME stays identical — tools/bench_record.py --compare can
/// gate the recorder-attached run against a recorder-off baseline of the
/// same BM_PacketSim/200 row (CI asserts within 10%).
void BM_PacketSim(benchmark::State& state) {
  const char* env = std::getenv("LOGP_PERF_OBS");
  const bool obs_on = env != nullptr && std::atoi(env) != 0;
  const auto topo = net::make_mesh2d(8, 8, true);
  obs::MetricsRegistry metrics;
  net::PacketSimConfig cfg;
  cfg.injection_rate = static_cast<double>(state.range(0)) * 1e-4;
  cfg.duration = 20000;
  if (obs_on) cfg.metrics = &metrics;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const auto r = net::run_packet_sim(*topo, cfg);
    delivered = r.delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * delivered);
  state.counters["obs"] = obs_on ? 1 : 0;
}
BENCHMARK(BM_PacketSim)->Arg(200)->Arg(500);

/// Faulted-path throughput in the fault-degradation-grid regime: a 16x16
/// torus under load heavy enough that link backlogs form, with an active
/// FaultPlan (2% drop + 0.5% corruption, retransmitted with backoff, plus
/// killed/degraded link intervals) so every window runs the faulted kernel.
/// This is the per-cell workload of bench/fig_fault_degradation scaled up
/// one topology size; Arg is injection rate x 1e4. The ratio
/// BM_PacketSim : BM_PacketSimFaulted is the price of fault handling
/// itself — the batch verdict pipeline exists to keep it near 1.
void BM_PacketSimFaulted(benchmark::State& state) {
  const auto topo = net::make_mesh2d(16, 16, true);
  net::PacketSimConfig cfg;
  cfg.injection_rate = static_cast<double>(state.range(0)) * 1e-4;
  cfg.duration = 20000;
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.corrupt_rate = 0.005;
  plan.retry_timeout = 4 * net::lookahead(cfg);
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 1, 0, cfg.duration / 2, 3});
  plan.link_faults.push_back({17, 18, cfg.duration / 4, cfg.duration, 0});
  cfg.faults = &plan;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const auto r = net::run_packet_sim(*topo, cfg);
    delivered = r.delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * delivered);
}
BENCHMARK(BM_PacketSimFaulted)->Arg(500)->Arg(600);

/// Production-scale grid: 64x64 torus (4096 endpoints, 16384 links) under
/// uniform traffic in the stable regime. Pins the windowed engine's
/// throughput where the per-window batches are wide enough for the SIMD
/// classification and arbitration kernels to matter.
void BM_PacketSimLargeP(benchmark::State& state) {
  const auto topo = net::make_mesh2d(64, 64, true);
  net::PacketSimConfig cfg;
  cfg.injection_rate = 0.002;
  cfg.warmup = 500;
  cfg.duration = 4000;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    const auto r = net::run_packet_sim(*topo, cfg);
    delivered = r.delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * delivered);
}
BENCHMARK(BM_PacketSimLargeP);

/// Message + timed-call churn on the raw machine: proc 0 streams messages at
/// proc 1 while every completion schedules a short timed continuation, so
/// the message pool and the continuation pool recycle constantly. Items/sec
/// counts messages plus fired calls.
class ChurnHost final : public sim::Host {
 public:
  explicit ChurnHost(std::int64_t messages) : remaining_(messages) {}

  void attach(sim::Machine& m) { machine_ = &m; }
  std::int64_t calls_fired() const { return calls_fired_; }

  void on_startup(ProcId p) override {
    if (p == 0) next_send();
  }
  void on_compute_done(ProcId) override {}
  void on_send_done(ProcId) override {
    ++calls_scheduled_;
    machine_->schedule_call(machine_->now() + 1, [this] { ++calls_fired_; });
    next_send();
  }
  void on_accept_done(ProcId p, const sim::Message&) override {
    if (machine_->arrivals_pending(p) > 0) machine_->start_accept(p);
  }
  void on_message_arrived(ProcId p) override {
    if (machine_->cpu_idle(p)) machine_->start_accept(p);
  }

 private:
  void next_send() {
    if (remaining_-- <= 0) return;
    sim::Message m;
    m.dst = 1;
    m.push_word(static_cast<std::uint64_t>(remaining_));
    machine_->start_send(0, m);
  }

  sim::Machine* machine_ = nullptr;
  std::int64_t remaining_ = 0;
  std::int64_t calls_scheduled_ = 0;
  std::int64_t calls_fired_ = 0;
};

void BM_MachineChurn(benchmark::State& state) {
  const auto messages = static_cast<std::int64_t>(state.range(0));
  std::int64_t items = 0;
  for (auto _ : state) {
    sim::MachineConfig cfg;
    cfg.params = {6, 2, 4, 2};
    ChurnHost host(messages);
    sim::Machine machine(cfg, host);
    host.attach(machine);
    benchmark::DoNotOptimize(machine.run());
    items = machine.total_messages() + host.calls_fired();
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_MachineChurn)->Arg(4000);

/// A fixed grid of ping-pong experiments pushed through the sweep harness;
/// items/sec is simulator events/sec summed over the grid. Arg = threads.
void BM_SweepThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kGridSize = 64;
  constexpr std::int64_t kRounds = 200;
  std::vector<exp::ExperimentSpec> specs;
  for (int i = 0; i < kGridSize; ++i) {
    exp::ExperimentSpec spec;
    spec.label = std::to_string(i);
    spec.config.params = {6 + i % 4, 2, 4, 2};
    spec.config.seed = 0x10c9 + static_cast<std::uint64_t>(i);
    spec.make_program = []() -> runtime::Program {
      return [](runtime::Ctx ctx) -> runtime::Task {
        return [](runtime::Ctx c, std::int64_t n) -> runtime::Task {
          for (std::int64_t i = 0; i < n; ++i) {
            if (c.proc() == 0) {
              co_await c.send(1, 1);
              (void)co_await c.recv(2);
            } else {
              (void)co_await c.recv(1);
              co_await c.send(0, 2);
            }
          }
        }(ctx, kRounds);
      };
    };
    specs.push_back(std::move(spec));
  }
  const exp::SweepRunner runner({threads});
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results = runner.run(specs);
    events = 0;
    for (const auto& r : results) events += r.events;
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
  state.counters["grid"] = kGridSize;
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency()))
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
