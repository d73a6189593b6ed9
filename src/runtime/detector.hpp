// Heartbeat failure detector over the reliable layer.
//
// Every processor runs the same two loops: a *sender* that reliable-sends a
// round-stamped heartbeat to every peer its local view believes live, once
// per heartbeat period; and a *checker* that wakes one suspicion timeout
// after each round's send instant and compares what arrived against the
// round counter. A peer whose heartbeat for round r has not arrived by
// T_r + suspicion_timeout earns a SUSPECT verdict; `suspicion_misses`
// consecutive suspect rounds escalate to a DEAD verdict, which is reported
// to the epoch-based membership layer (runtime/membership.hpp).
//
// The suspicion timeout is derived from the machine's (L, o, g), not
// guessed: an honest heartbeat round trip costs 2L + 4o (the LogP
// remote-read bound), so the timeout is
//
//     suspicion_timeout = ceil(rtt_multiple * (2L + 4o)) + slack
//
// and the constructor checks it is no tighter than the reliable layer's
// retransmit timeout (2L + 6o + 4g by default) — a detector that suspects
// faster than the transport can recover a single lost packet would be
// unsound by construction. With the defaults (rtt_multiple = 3) a heartbeat
// that loses its first transmission still arrives inside the window, so a
// bounded drop budget can never produce a false positive; the model checker
// proves this exhaustively (src/mc scenario "detector").
//
// Everything here is a deterministic function of simulated time: send
// instants and check instants are fixed cycles, the reliable layer is
// deterministic, so every run — at any --threads or SIMD setting —
// produces the same verdict sequence.
//
// Known limitation, by design: a processor listed in the fault plan's
// proc_faults is excluded from ever *issuing* verdicts, even before its
// fail_at and after its recover_at — its heartbeat bookkeeping goes stale
// across the outage, and a freshly revived processor would otherwise
// declare every healthy peer dead. Revived processors re-learn the world
// through the membership state-sync instead.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/membership.hpp"
#include "runtime/reliable.hpp"
#include "runtime/scheduler.hpp"

namespace logp::runtime {

/// Heartbeat tag (payload rides the reliable layer; w0 = round number).
inline constexpr std::int32_t kHeartbeatTag = kReservedTagBase + 900100;

class FailureDetector {
 public:
  struct Options {
    /// Absolute cycle of round 0's send instant.
    Cycles start = 0;
    /// Cycles between heartbeat rounds; 0 derives one suspicion window so
    /// rounds and checks interleave without overlap.
    Cycles heartbeat_period = 0;
    /// Suspicion timeout as a multiple of the honest round trip 2L + 4o.
    double rtt_multiple = 3.0;
    /// Additive queueing slack on top of the multiple.
    Cycles slack = 0;
    /// Consecutive suspect rounds before a DEAD verdict.
    int suspicion_misses = 2;
    /// Total heartbeat rounds (the detector is finite so every run
    /// quiesces; benches size this to cover the interval of interest).
    int rounds = 4;
  };

  /// One detector decision, in the order it was made.
  struct Verdict {
    Cycles t = 0;
    ProcId observer = -1;
    ProcId subject = -1;
    bool dead = false;  ///< false = suspect, true = dead (reported)
  };

  struct Stats {
    std::int64_t heartbeats_sent = 0;
    std::int64_t suspect_verdicts = 0;
    std::int64_t dead_verdicts = 0;
  };

  /// Installs the heartbeat handler on `sched` and validates the derived
  /// suspicion timeout against the reliable layer's retransmit timeout.
  FailureDetector(Scheduler& sched, ReliableLayer& rel, Membership& mem,
                  Options opts);
  FailureDetector(Scheduler& sched, ReliableLayer& rel, Membership& mem)
      : FailureDetector(sched, rel, mem, Options{}) {}

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// SPMD entry point: run the sender and checker loops for this
  /// processor. Finishes after the last round's check instant.
  Task run(Ctx ctx);

  Cycles suspicion_timeout() const { return suspicion_; }
  Cycles heartbeat_period() const { return opts_.heartbeat_period; }
  const Stats& stats() const { return stats_; }
  const std::vector<Verdict>& verdicts() const { return verdicts_; }

 private:
  Task send_rounds(Ctx ctx);
  Task check_rounds(Ctx ctx);
  void on_heartbeat(Ctx ctx, const Message& m);

  Scheduler* sched_;
  ReliableLayer* rel_;
  Membership* mem_;
  Options opts_;
  Cycles suspicion_ = 0;
  Stats stats_;
  std::vector<Verdict> verdicts_;
  /// last_round_[observer][peer]: highest heartbeat round received.
  std::vector<std::vector<std::int64_t>> last_round_;
  /// misses_[observer][peer]: consecutive suspect rounds.
  std::vector<std::vector<int>> misses_;
  /// Outcome slots for fire-and-forget heartbeat sends (stable addresses).
  std::deque<ReliableLayer::SendOutcome> outcomes_;
};

}  // namespace logp::runtime
