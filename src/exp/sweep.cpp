#include "exp/sweep.hpp"

#include <algorithm>
#include <thread>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace logp::exp {

SweepRunner::SweepRunner(SweepOptions opts)
    : threads_(opts.threads), inner_threads_(std::max(1, opts.inner_threads)) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (threads_ <= 0) threads_ = hw;
  // Nesting policy: outer sweep workers x declared inner threads must not
  // oversubscribe the machine. The outer budget gives way (a sweep point
  // that asked for intra-run parallelism presumably profits more from it
  // than from grid-level concurrency), but never below one worker.
  if (inner_threads_ > 1)
    threads_ = std::max(1, std::min(threads_, hw / inner_threads_));
}

void SweepRunner::for_index(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  // The shared pool keeps its workers resident across run() calls — a sweep
  // no longer pays a thread spawn/join per invocation — and implements the
  // same contract the harness always had: every index runs exactly once,
  // results land by index, and the lowest-index exception is rethrown.
  util::ThreadPool::shared().for_index(n, threads_, body);
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) const {
  std::vector<ExperimentResult> results(specs.size());
  for_index(specs.size(), [&](std::size_t i) {
    const ExperimentSpec& spec = specs[i];
    LOGP_CHECK_MSG(static_cast<bool>(spec.make_program),
                   "ExperimentSpec " << i << " has no program factory");
    // A metrics registry has exactly one owner (see obs/metrics.hpp); a
    // parallel sweep sharing one across grid points would race.
    LOGP_CHECK_MSG(threads_ <= 1 || spec.config.metrics == nullptr,
                   "spec " << i << " attaches a MetricsRegistry to a "
                           << threads_ << "-thread sweep");
    // The DAG recorder is per-run worker-stack state, so (unlike an
    // externally owned registry) it is safe at any thread count.
    obs::CritPathRecorder cp;
    sim::MachineConfig config = spec.config;
    if (spec.critical_path) config.critpath = &cp;
    runtime::Scheduler sched(config);
    sched.set_program(spec.make_program());
    ExperimentResult r;
    r.index = i;
    r.label = spec.label;
    r.finish = sched.run();
    r.totals = sched.machine().total_stats();
    r.messages = sched.machine().total_messages();
    r.events = sched.machine().events_processed();
    r.profile = obs::profile_machine(sched.machine());
    r.profile.check_invariant();
    if (spec.config.record_trace)
      r.trace = sched.machine().recorder().intervals();
    r.degraded = sched.degraded();
    if (spec.critical_path) r.critpath = obs::analyze_critical_path(cp);
    results[i] = std::move(r);
  });
  return results;
}

}  // namespace logp::exp
