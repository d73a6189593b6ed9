// Recovery study: kill a processor (or a link) at t, revive it at t + delta,
// and measure the three latencies the self-healing runtime promises:
//
//   time-to-detect  — first DEAD verdict minus the kill instant. The
//                     heartbeat detector (runtime/detector.hpp) is a pure
//                     function of simulated time, so this must match the
//                     analytic value derived from (L, o, g) *to the cycle*:
//                     with round period T and suspicion window S, a kill at
//                     t is detected at (r* + 1)T + S where r* = ceil(t/T)
//                     is the first silent round — provided the outage
//                     swallows two consecutive round instants. Shorter
//                     outages are provably invisible: one missed round is
//                     only a SUSPECT, and the revived heartbeat clears it.
//   time-to-heal    — the revived processor's JOIN admission at the
//                     membership coordinator minus the recovery instant,
//                     plus the convergence time for every view to adopt the
//                     strictly-newer epoch (runtime/membership.hpp).
//   goodput dip     — on the packet network (net/packet_sim.hpp), delivered
//                     bandwidth in a measurement window during the outage
//                     and after the heal, against a fault-free baseline,
//                     with fault-aware rerouting on and off. After the heal
//                     the epoch-stamped routes return to the base paths, so
//                     post-heal goodput must sit within 5% of the baseline.
//
// An epoch-aware broadcast is launched at the kill instant, so every grid
// cell also demonstrates the collective completing over the survivors
// (re-fed after the epoch bump) and the revived rank being re-admitted in a
// strictly later epoch. Everything here is deterministic: the whole stdout
// is byte-identical at any --threads value.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/cli.hpp"
#include "runtime/detector.hpp"
#include "runtime/membership.hpp"
#include "runtime/reliable.hpp"
#include "runtime/scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace logp;

constexpr std::int32_t kBcastTag = 60;
constexpr std::uint64_t kPayload = 0xC0FFEE;

// ---------------------------------------------------------------------------
// Section A: runtime self-healing (detector + membership + epoch broadcast).
// ---------------------------------------------------------------------------

struct RecoveryCell {
  Cycles kill_at = 0;
  Cycles outage = 0;
  bool expect_detect = false;
  Cycles expect_detect_at = -1;
  bool detected = false;
  Cycles detect_at = -1;
  std::int64_t dead_verdicts = 0;
  std::int64_t suspect_verdicts = 0;
  bool healed = false;
  Cycles admit_at = -1;     ///< coordinator-side JOIN admission
  Cycles converge_at = -1;  ///< last VIEW adoption (all views converged)
  std::int64_t final_epoch = -1;
  int coverage = 0;  ///< survivors holding the broadcast payload
};

// Size of `rank`'s subtree in the founding view's binomial broadcast tree —
// the procs that can only hear the value through `rank`. When an outage is
// too short to detect, exactly this subtree starves until the deadline.
int subtree_size(int rank, int n) {
  int size = 1;
  int d = 1;
  while (d < n && (rank & d) == 0) d <<= 1;
  for (int c = d >> 1; c >= 1; c >>= 1)
    if (rank + c < n) size += subtree_size(rank + c, n);
  return size;
}

RecoveryCell run_recovery_cell(Cycles kill_at, Cycles outage,
                               std::vector<std::string>& failures) {
  constexpr int P = 8;
  constexpr ProcId kVictim = 4;  // an interior tree node: orphans ranks 5-7
  const Params params{20, 4, 8, P};
  const Cycles rtt = 2 * params.L + 4 * params.o;
  // The detector default (3 * rtt, no slack) is calibrated for small fan-out.
  // At P = 8 every round is a synchronized all-to-all burst: 7 reliable
  // heartbeats per processor land on each destination at the same instant,
  // far past the ceil(L/g) capacity bound, and the queueing delay alone can
  // eat the 3-RTT window. One extra suspicion window of slack keeps the
  // detector sound at this fan-out (derivation in DESIGN.md).
  const Cycles slack = 3 * rtt;
  const Cycles suspicion = 3 * rtt + slack;  // 336 with L=20, o=4
  const Cycles period = suspicion;           // heartbeat period defaults to it
  const Cycles recover_at = kill_at + outage;
  const Cycles deadline = recover_at + 2000;

  RecoveryCell cell;
  cell.kill_at = kill_at;
  cell.outage = outage;
  // First round the victim cannot send, and the analytic detection instant:
  // suspicion_misses = 2 consecutive silent rounds escalate to DEAD at the
  // second round's check, (r* + 1) * period + suspicion.
  const Cycles r_star = (kill_at + period - 1) / period;
  const int rounds = static_cast<int>(recover_at / period) + 4;
  cell.expect_detect = (r_star + 1) * period < recover_at;
  if (cell.expect_detect) cell.expect_detect_at = (r_star + 1) * period + suspicion;

  fault::FaultPlan plan;
  plan.proc_faults.push_back(fault::ProcFault{kVictim, kill_at, recover_at});

  sim::MachineConfig mcfg;
  mcfg.params = params;
  mcfg.faults = &plan;
  runtime::Scheduler sched(mcfg);
  // Cap the retransmit backoff so in-flight sends to the dead victim reach
  // their verdict (or the revived victim) in time linear in max_retries —
  // exactly what a detector budgeting against (L, o, g) wants.
  runtime::ReliableLayer::Options ropts;
  ropts.max_backoff = 4 * (2 * params.L + 6 * params.o + 4 * params.g);
  runtime::ReliableLayer rl(sched, ropts);
  runtime::Membership mem(sched, rl);
  runtime::FailureDetector::Options dopts;
  dopts.slack = slack;
  dopts.rounds = rounds;
  runtime::FailureDetector det(sched, rl, mem, dopts);

  std::vector<std::uint64_t> value(P, 0);
  value[0] = kPayload;
  sched.set_program([&](runtime::Ctx ctx) -> runtime::Task {
    const auto p = static_cast<std::size_t>(ctx.proc());
    ctx.spawn(det.run(ctx));
    ctx.spawn(mem.revival_task(ctx, &plan, deadline));
    // Launch the broadcast at the kill instant: the victim is already
    // fail-stopped, so its subtree is orphaned until (unless) the epoch
    // bumps and the holders re-feed it.
    if (ctx.now() < kill_at) co_await ctx.sleep_until(kill_at);
    runtime::coll::EpochCollOptions copts;
    copts.deadline = deadline;
    co_await runtime::coll::broadcast_resilient(ctx, mem, &value[p], nullptr,
                                                copts, kBcastTag);
  });
  sched.run();

  for (const auto& v : det.verdicts()) {
    if (!v.dead) continue;
    if (!cell.detected) {
      cell.detected = true;
      cell.detect_at = v.t;
    }
    if (v.subject != kVictim) {
      failures.push_back("cell (t=" + std::to_string(kill_at) + ", d=" +
                         std::to_string(outage) +
                         "): false positive against live proc " +
                         std::to_string(v.subject));
    }
  }
  cell.dead_verdicts = det.stats().dead_verdicts;
  cell.suspect_verdicts = det.stats().suspect_verdicts;
  for (const auto& r : mem.log()) {
    if (!r.joined) continue;
    if (r.subject == kVictim && !cell.healed) {
      cell.healed = true;
      cell.admit_at = r.t;
    }
    if (r.subject < 0) cell.converge_at = std::max(cell.converge_at, r.t);
  }
  cell.final_epoch = mem.epoch(0);
  for (int p = 0; p < P; ++p)
    if (p != kVictim && value[static_cast<std::size_t>(p)] == kPayload)
      ++cell.coverage;

  const std::string where =
      "cell (t=" + std::to_string(kill_at) + ", d=" + std::to_string(outage) + "): ";
  if (cell.detected != cell.expect_detect)
    failures.push_back(where + (cell.detected ? "unexpected" : "missing") +
                       " DEAD verdict (outage covers " +
                       std::to_string(cell.expect_detect ? 2 : 1) +
                       "+ heartbeat rounds?)");
  if (cell.expect_detect) {
    if (cell.detected && cell.detect_at != cell.expect_detect_at)
      failures.push_back(where + "time-to-detect " +
                         std::to_string(cell.detect_at - kill_at) +
                         " != analytic " +
                         std::to_string(cell.expect_detect_at - kill_at) +
                         " (must match to the cycle)");
    if (cell.dead_verdicts != P - 1)
      failures.push_back(where + std::to_string(cell.dead_verdicts) +
                         " dead verdicts, expected one per healthy observer");
    if (!cell.healed)
      failures.push_back(where + "revived proc was never re-admitted");
    if (cell.coverage != P - 1)
      failures.push_back(where + "broadcast reached " +
                         std::to_string(cell.coverage) + "/" +
                         std::to_string(P - 1) + " survivors");
    for (int p = 0; p < P; ++p) {
      if (mem.epoch(p) != 2)
        failures.push_back(where + "proc " + std::to_string(p) +
                           " finished at epoch " +
                           std::to_string(mem.epoch(p)) +
                           ", expected 2 (death bump + join bump)");
      if (mem.view(p).live_count() != P)
        failures.push_back(where + "proc " + std::to_string(p) +
                           "'s final view does not re-admit the victim");
    }
  } else {
    if (cell.dead_verdicts != 0)
      failures.push_back(where + "dead verdicts on a sub-detectable outage");
    if (cell.final_epoch != 0)
      failures.push_back(where + "epoch bumped without a detection");
    const int expect_cov = P - subtree_size(kVictim, P);
    if (cell.coverage != expect_cov)
      failures.push_back(where + "broadcast reached " +
                         std::to_string(cell.coverage) + " survivors, " +
                         "expected exactly the non-orphaned " +
                         std::to_string(expect_cov));
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  bool ci = false;
  if (const int rc = obs::parse_cli(
          argc, argv,
          {{"--ci", &ci, "the reduced kill/outage grid, sized for CI"},
           obs::threads_flag(&threads)}))
    return rc;

  std::vector<std::string> failures;

  // -------------------------------------------------------------------------
  // Section A: kill proc 4 of 8 at t, revive at t + delta.
  // -------------------------------------------------------------------------
  const std::vector<Cycles> kills = ci ? std::vector<Cycles>{500}
                                       : std::vector<Cycles>{500, 1000};
  const std::vector<Cycles> outages = ci ? std::vector<Cycles>{250, 1200}
                                         : std::vector<Cycles>{250, 1200, 2500};

  std::cout << "== Self-healing runtime: kill proc 4 of 8 at t, revive at "
               "t + delta ==\n\n"
            << "LogP (L=20, o=4, g=8): heartbeat period = suspicion window = "
               "3*(2L+4o) + slack\n= 336 cycles (one extra suspicion window "
               "of slack absorbs the queueing of\nthe synchronized 7-wide "
               "heartbeat burst; see DESIGN.md). DEAD after 2\nconsecutive "
               "silent rounds, so an outage is invisible unless it swallows "
               "two\nround instants. An epoch-aware broadcast launches at "
               "the kill instant;\n'coverage' counts survivors holding the "
               "payload (the victim's orphaned\nsubtree is 5,6,7 -- re-fed "
               "only after the epoch bump).\n\n";

  util::TablePrinter ta({"kill t", "outage", "detect (cyc)", "analytic",
                         "heal (cyc)", "converge", "epoch", "coverage",
                         "state"});
  for (const Cycles t : kills)
    for (const Cycles dt : outages) {
      const RecoveryCell c = run_recovery_cell(t, dt, failures);
      ta.add_row(
          {std::to_string(t), std::to_string(dt),
           c.detected ? std::to_string(c.detect_at - c.kill_at) : "-",
           c.expect_detect ? std::to_string(c.expect_detect_at - c.kill_at)
                           : "undetectable",
           c.healed ? std::to_string(c.admit_at - (c.kill_at + c.outage))
                    : "-",
           c.converge_at >= 0
               ? std::to_string(c.converge_at - (c.kill_at + c.outage))
               : "-",
           std::to_string(c.final_epoch),
           std::to_string(c.coverage) + "/7",
           c.detected ? "detected+healed" : "below suspicion"});
    }
  ta.print(std::cout);
  std::cout << "\nTime-to-detect is phase-aligned to the round grid: "
               "(r*+1)*336 + 336 - t for\nr* = ceil(t/336), matched to the "
               "cycle. Healing is one reliable JOIN one-way\nplus the VIEW "
               "state-sync fan-out; every view converges on epoch 2.\n\n";

  // -------------------------------------------------------------------------
  // Section B: packet-level goodput through a link outage (8x8 torus).
  // -------------------------------------------------------------------------
  const auto torus = net::make_mesh2d(8, 8, true);
  net::PacketSimConfig base;
  base.injection_rate = 0.05;
  const Cycles kill_at = 12000;
  const Cycles retry_timeout = 4 * net::lookahead(base);
  const std::vector<Cycles> link_outages =
      ci ? std::vector<Cycles>{4000} : std::vector<Cycles>{4000, 8000};

  std::vector<fault::FaultPlan> plans;
  plans.reserve(link_outages.size());
  for (const Cycles dt : link_outages) {
    fault::FaultPlan fp;
    fp.link_faults.push_back(fault::LinkFault{0, 1, kill_at, kill_at + dt, 0});
    fp.link_faults.push_back(fault::LinkFault{1, 0, kill_at, kill_at + dt, 0});
    fp.retry_timeout = retry_timeout;
    fp.max_retries = 6;
    plans.push_back(fp);
  }

  // Five windows per outage: (baseline, reroute, no-reroute) measured during
  // the outage, (baseline, reroute) measured after the heal plus settle.
  std::vector<std::function<net::PacketSimResult()>> jobs;
  for (std::size_t oi = 0; oi < link_outages.size(); ++oi) {
    const Cycles dt = link_outages[oi];
    const fault::FaultPlan* fp = &plans[oi];
    const auto add = [&](Cycles warmup, Cycles duration,
                         const fault::FaultPlan* plan, bool reroute) {
      jobs.push_back([&torus, base, warmup, duration, plan, reroute] {
        net::PacketSimConfig cfg = base;
        cfg.warmup = warmup;
        cfg.duration = duration;
        cfg.faults = plan;
        cfg.reroute = reroute;
        return net::run_packet_sim(*torus, cfg);
      });
    };
    add(kill_at, dt, nullptr, false);
    add(kill_at, dt, fp, true);
    add(kill_at, dt, fp, false);
    add(kill_at + dt + 2000, 6000, nullptr, false);
    add(kill_at + dt + 2000, 6000, fp, true);
  }
  const exp::SweepRunner runner({threads});
  const std::vector<net::PacketSimResult> results = runner.map(jobs);

  std::cout << "== Packet network: links 0<->1 of an 8x8 torus dead for "
               "delta cycles ==\n\n"
            << "Uniform traffic at 0.05 pkt/node/cyc (pre-knee). With "
               "rerouting, retries\nrecommit to a BFS detour for the "
               "outage epoch and return to the base route\nafter the heal; "
               "without it, retries hammer the dead link until the budget\n"
               "runs out and the packet is lost.\n\n";

  for (std::size_t oi = 0; oi < link_outages.size(); ++oi) {
    const Cycles dt = link_outages[oi];
    const auto& during_base = results[oi * 5 + 0];
    const auto& during_on = results[oi * 5 + 1];
    const auto& during_off = results[oi * 5 + 2];
    const auto& post_base = results[oi * 5 + 3];
    const auto& post_on = results[oi * 5 + 4];

    std::cout << "-- outage " << dt << " cycles (dead in [" << kill_at << ", "
              << kill_at + dt << ")) --\n";
    util::TablePrinter tb({"window", "baseline", "reroute", "ratio",
                           "no-reroute", "ratio", "lost on/off", "rerouted"});
    tb.add_row({"during outage", util::fmt(during_base.throughput, 4),
                util::fmt(during_on.throughput, 4),
                util::fmt(during_on.throughput / during_base.throughput, 3),
                util::fmt(during_off.throughput, 4),
                util::fmt(during_off.throughput / during_base.throughput, 3),
                std::to_string(during_on.lost) + "/" +
                    std::to_string(during_off.lost),
                std::to_string(during_on.rerouted)});
    tb.add_row({"after heal", util::fmt(post_base.throughput, 4),
                util::fmt(post_on.throughput, 4),
                util::fmt(post_on.throughput / post_base.throughput, 3), "-",
                "-",
                std::to_string(post_on.lost) + "/-",
                std::to_string(post_on.rerouted)});
    tb.print(std::cout);
    std::cout << '\n';

    const std::string where = "outage " + std::to_string(dt) + ": ";
    if (post_on.throughput < 0.95 * post_base.throughput)
      failures.push_back(where + "post-heal goodput " +
                         util::fmt(post_on.throughput, 4) +
                         " is more than 5% below the fault-free baseline " +
                         util::fmt(post_base.throughput, 4));
    if (during_on.lost >= during_off.lost)
      failures.push_back(where + "rerouting lost " +
                         std::to_string(during_on.lost) +
                         " packets, not fewer than the " +
                         std::to_string(during_off.lost) +
                         " lost without it");
    if (post_on.rerouted <= 0)
      failures.push_back(where + "no retries ever recommitted to a detour");
  }
  std::cout << "'rerouted' counts only retries recommitted at an epoch edge "
               "(in-flight\npackets caught by the kill); traffic injected "
               "inside the outage commits\nstraight to the detour and never "
               "retries at all -- which is why rerouting\nloses nothing "
               "while the no-reroute run burns its whole retry budget.\n"
               "Post-heal windows sit within 5% of the fault-free baseline: "
               "the epoch-stamped\nroutes revert to the base paths, so an "
               "outage leaves no permanent scar.\n\n";

  if (failures.empty()) {
    std::cout << "RECOVERY CHECKS: all passed\n";
    return 0;
  }
  for (const std::string& f : failures)
    std::cout << "RECOVERY CHECK FAILED: " << f << "\n";
  return 1;
}
