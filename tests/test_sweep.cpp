#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "util/table.hpp"

namespace logp::exp {
namespace {

/// A ping-pong program parameterized by rounds; deterministic and message-y
/// enough that any engine-ordering difference would change its totals.
ExperimentSpec ping_pong_spec(Params prm, std::int64_t rounds,
                              std::uint64_t seed = 0x10c9) {
  ExperimentSpec spec;
  spec.label = prm.to_string();
  spec.config.params = prm;
  spec.config.seed = seed;
  spec.make_program = [rounds]() -> runtime::Program {
    return [rounds](runtime::Ctx ctx) -> runtime::Task {
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
    };
  };
  return spec;
}

std::vector<ExperimentSpec> grid() {
  std::vector<ExperimentSpec> specs;
  for (Cycles L : {4, 6, 12})
    for (Cycles g : {2, 4})
      for (std::int64_t rounds : {5, 23}) specs.push_back(
          ping_pong_spec(Params{L, 2, g, 2}, rounds));
  return specs;
}

std::string render(const std::vector<ExperimentResult>& results) {
  util::TablePrinter tp({"label", "finish", "messages", "events"});
  for (const auto& r : results)
    tp.add_row({r.label, std::to_string(r.finish), std::to_string(r.messages),
                std::to_string(r.events)});
  std::ostringstream os;
  tp.print(os);
  return os.str();
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  const auto specs = grid();
  const auto seq = SweepRunner({1}).run(specs);
  for (int threads : {2, 3, 8, 16}) {
    const auto par = SweepRunner({threads}).run(specs);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].index, i);
      EXPECT_EQ(par[i].label, seq[i].label);
      EXPECT_EQ(par[i].finish, seq[i].finish);
      EXPECT_EQ(par[i].messages, seq[i].messages);
      EXPECT_EQ(par[i].events, seq[i].events);
      EXPECT_EQ(par[i].totals.send_overhead, seq[i].totals.send_overhead);
      EXPECT_EQ(par[i].totals.stall, seq[i].totals.stall);
      EXPECT_EQ(par[i].totals.gap_wait, seq[i].totals.gap_wait);
    }
    // The rendered table — what figure binaries emit — is byte-identical.
    EXPECT_EQ(render(par), render(seq));
  }
}

TEST(Sweep, SeedStability) {
  // Randomized latency makes the trajectory seed-dependent; the same seed
  // must reproduce the same run on every invocation and thread count.
  auto with_seed = [](std::uint64_t seed) {
    auto spec = ping_pong_spec(Params{12, 2, 3, 2}, 40, seed);
    spec.config.latency_min = 3;  // uniform in [3, L]: reordering possible
    return spec;
  };
  const std::vector<ExperimentSpec> specs = {with_seed(1), with_seed(1),
                                             with_seed(99)};
  const auto r1 = SweepRunner({1}).run(specs);
  const auto r8 = SweepRunner({8}).run(specs);
  EXPECT_EQ(r1[0].finish, r1[1].finish);  // same seed, same trajectory
  EXPECT_EQ(r1[0].events, r1[1].events);
  EXPECT_EQ(r1[0].finish, r8[0].finish);  // threads don't perturb the RNG
  EXPECT_EQ(r8[0].finish, r8[1].finish);
  // A different seed draws different latencies; totals diverge.
  EXPECT_NE(r1[0].totals.gap_wait + r1[0].finish,
            r1[2].totals.gap_wait + r1[2].finish);
}

TEST(Sweep, WorkerExceptionPropagates) {
  auto specs = grid();
  specs[3].make_program = []() -> runtime::Program {
    throw std::runtime_error("factory failed on purpose");
  };
  for (int threads : {1, 4}) {
    EXPECT_THROW(SweepRunner({threads}).run(specs), std::runtime_error);
  }
}

TEST(Sweep, LowestIndexExceptionWins) {
  // Two failing specs: the rethrown error must be the lowest-index one no
  // matter which worker finishes first.
  auto specs = grid();
  specs[5].make_program = []() -> runtime::Program {
    throw std::runtime_error("later failure");
  };
  specs[2].make_program = []() -> runtime::Program {
    throw std::invalid_argument("earlier failure");
  };
  for (int threads : {1, 8}) {
    EXPECT_THROW(SweepRunner({threads}).run(specs), std::invalid_argument);
  }
}

TEST(Sweep, DeadlockInsideWorkerPropagates) {
  auto specs = grid();
  specs[1].make_program = []() -> runtime::Program {
    return [](runtime::Ctx ctx) -> runtime::Task {
      return [](runtime::Ctx c) -> runtime::Task {
        if (c.proc() == 0) (void)co_await c.recv(42);  // nobody sends
      }(ctx);
    };
  };
  EXPECT_THROW(SweepRunner({4}).run(specs), runtime::DeadlockError);
}

TEST(Sweep, MapPreservesOrder) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 100; ++i) jobs.push_back([i] { return i * i; });
  const auto out = SweepRunner({7}).map(jobs);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Sweep, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(SweepRunner({0}).threads(), 1);
}

TEST(Sweep, RepeatedInvocationsBitForBit) {
  // The runner dispatches onto the resident shared ThreadPool instead of
  // spawning threads per run(); repeated run() calls on one runner — and
  // fresh runners at other thread counts — must keep producing
  // byte-identical tables. Worker reuse must not leak state between
  // invocations.
  const auto specs = grid();
  SweepRunner runner({4});
  const std::string first = render(runner.run(specs));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(render(runner.run(specs)), first);
  EXPECT_EQ(render(SweepRunner({2}).run(specs)), first);
}

TEST(Sweep, NestingPolicyDividesOuterBudget) {
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  // Declared intra-job parallelism shrinks the outer worker budget so
  // outer x inner never oversubscribes the machine (but never below one).
  SweepRunner nested({0, 2});
  EXPECT_EQ(nested.inner_threads(), 2);
  EXPECT_GE(nested.threads(), 1);
  EXPECT_LE(nested.threads() * 2, std::max(hw, 2));
  // inner_threads = 1 (the default) leaves an explicit outer budget alone.
  EXPECT_EQ(SweepRunner({3, 1}).threads(), 3);
  EXPECT_EQ(SweepRunner({3}).inner_threads(), 1);
}

TEST(Sweep, RunnerStaysUsableAfterFailure) {
  // A failing sweep rethrows its (lowest-index) exception exactly once; the
  // runner and its resident worker pool are untouched, so the next run()
  // produces the usual byte-identical results.
  auto bad = grid();
  bad[0].make_program = []() -> runtime::Program {
    throw std::runtime_error("boom");
  };
  const auto good = grid();
  SweepRunner runner({4});
  const std::string expected = render(SweepRunner({1}).run(good));
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW(runner.run(bad), std::runtime_error);
    EXPECT_EQ(render(runner.run(good)), expected);
  }
}

}  // namespace
}  // namespace logp::exp
