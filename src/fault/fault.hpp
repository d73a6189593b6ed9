// Deterministic fault injection for the packet simulator and the LogP
// machine.
//
// A FaultPlan is a *pure function* from identity to misfortune: every
// decision (drop this packet attempt? is this link dead at cycle t?) is a
// hash of the plan's seed and the canonical identity of the thing being
// decided — a packet's injection id and attempt number, a message's
// injection sequence number, a link's endpoints. No RNG stream is consumed
// and no wall-clock or scheduling order is observed, so a decision can be
// evaluated anywhere, in any order, and always agrees. That is the property
// that keeps faulted runs byte-identical across the packet engine's window
// kernels and SIMD settings (see DESIGN.md "Fault model").
//
// Faults are keyed on injection id rather than processing order because the
// packet engine's batch kernels do not process a window in event order —
// verdicts are hashed up front for the whole window, and survivors are
// grouped by link. The injection id is the packet's index in the
// (born, src)-sorted injection array, a total order every kernel shares by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"

namespace logp::fault {

/// A directed link (u -> v) that misbehaves during [from, to).
/// degrade == 0 kills the link: packets attempting the traversal are
/// dropped (and retried, if the plan retransmits). degrade > 1 multiplies
/// the link's service time — a slow link never violates the packet
/// engine's lookahead, because service only grows.
struct LinkFault {
  int u = 0;
  int v = 0;
  Cycles from = 0;
  Cycles to = 0;
  int degrade = 0;
};

/// A processor that fails at fail_at: the machine drops every message
/// destined to it from that cycle on, and resilient collectives route
/// around it (conservatively, from the start of the run — trees are built
/// before anyone knows when the failure lands). recover_at < 0 means the
/// failure is permanent; recover_at >= fail_at makes the fault an interval
/// [fail_at, recover_at) mirroring LinkFault — from recover_at on, the
/// machine delivers to the processor again and the membership layer can
/// re-admit it via a state-sync rejoin (runtime/membership.hpp).
struct ProcFault {
  ProcId proc = -1;
  Cycles fail_at = 0;
  Cycles recover_at = -1;
};

struct FaultPlan {
  std::uint64_t seed = 0xfa0172;

  // ---- packet-level faults (net::run_packet_sim) ----
  /// Per-attempt probability that a packet attempt is dropped mid-route.
  double drop_rate = 0.0;
  /// Probability that a fully-delivered attempt arrives corrupted and is
  /// discarded at the destination (after consuming every link it crossed).
  double corrupt_rate = 0.0;
  /// Explicit injection ids whose first attempt is dropped (see header
  /// comment for what an injection id is). Order is irrelevant.
  std::vector<std::int64_t> drop_packets;
  /// Link kill / degrade intervals.
  std::vector<LinkFault> link_faults;
  /// Retransmission: a dropped or corrupted attempt is re-dispatched from
  /// hop 0 this many cycles after the loss, up to max_retries times.
  /// 0 disables retransmission (losses are final). When nonzero it must be
  /// >= net::lookahead(cfg), so the retry lands in a later window than the
  /// loss: the packet engine fixes a window's population when it opens, and
  /// a retry pushed into the window being processed would be lost.
  Cycles retry_timeout = 0;
  int max_retries = 0;
  /// Per-packet injection delay, uniform-by-hash in [0, max_injection_delay]
  /// cycles (per-endpoint injection order is preserved).
  Cycles max_injection_delay = 0;

  // ---- message-level faults (sim::Machine) ----
  /// Probability that an injected machine message vanishes in flight: it
  /// holds network capacity for its latency, then is discarded at the
  /// destination without notifying anyone (the reliable-delivery layer's
  /// reason to exist).
  double msg_drop_rate = 0.0;
  std::vector<ProcFault> proc_faults;

  /// True when the plan injects no faults at all (engines take their
  /// unmodified fast paths; results are byte-identical to faults == null).
  bool empty() const;
  /// True when any packet-level knob is active.
  bool has_packet_faults() const;
  /// Range-checks every knob; throws util::check_error with the offending
  /// value on violation.
  void validate() const;

  // ---- deterministic decisions (pure; any thread may evaluate) ----
  bool drop_attempt(std::int64_t inj, int attempt) const;
  /// Hop index in [0, hops) at which a dropped attempt vanishes.
  int drop_hop(std::int64_t inj, int attempt, int hops) const;
  bool corrupt_attempt(std::int64_t inj, int attempt) const;
  /// Extra cycles added to the packet born at `born` from endpoint `src`.
  Cycles injection_delay(int src, Cycles born) const;
  /// 1 = healthy, 0 = dead, > 1 = service-time multiplier at cycle t.
  int link_degrade(int u, int v, Cycles t) const;
  /// Decision for the `msg_id`-th message injected by a Machine.
  bool message_dropped(std::uint64_t msg_id) const;
  /// True when machine messages are subject to in-flight loss at all
  /// (msg_drop_rate > 0). The model checker uses this to decide where a
  /// drop/keep choice point exists; the hash verdict above stays the
  /// default branch, so checking and plain simulation see the same plan.
  bool message_droppable() const { return msg_drop_rate > 0.0; }
  /// True when p appears in proc_faults (used to build resilient trees).
  bool proc_fails(ProcId p) const;
  /// True when p is failed at cycle t (messages to it are dropped): inside
  /// some [fail_at, recover_at) interval, or past a permanent fail_at.
  bool proc_failed(ProcId p, Cycles t) const;
  /// Earliest recover_at > t among p's fault intervals covering t, or -1
  /// when p is healthy at t or failed forever (the revival-task query).
  Cycles proc_recovers_at(ProcId p, Cycles t) const;

  // ---- batch verdicts (the packet engine's vectorized fault kernel) ----
  //
  // Every per-attempt verdict above is a pure SplitMix64 hash compared
  // against a rate, so a whole sorted window of events can be decided in
  // one vectorized pass (util::simd::decide_hash_u64) instead of one
  // cross-TU call per event. verdict_mask() is specified to be bit-exact
  // with the scalar predicates: corrupt_attempt() for delivery events,
  // drop_attempt() — including the targeted drop_packets overlay — for
  // link-traversal events. The caller keeps the drop-hop refinement
  // (drop_hop() == current hop) because it needs the route table.

  /// Reusable staging arrays for verdict_mask, owned by the caller so the
  /// steady state allocates nothing.
  struct VerdictScratch {
    std::vector<std::uint64_t> salt, a, b, hash;
  };

  /// For each of n events, sets bit i of mask_words (bit i%64 of word i/64)
  /// iff the plan's verdict for event i is "misfortune": events whose bit
  /// is set in delivery_words test corrupt_rate under the corrupt salt, all
  /// others test drop_rate under the drop salt. inj/attempt are parallel
  /// arrays of event identities. Words at and beyond n keep their
  /// rate-irrelevant hash bits zeroed.
  void verdict_mask(const std::uint64_t* delivery_words,
                    const std::uint32_t* inj, const std::uint16_t* attempt,
                    std::size_t n, VerdictScratch& scratch,
                    std::uint64_t* mask_words) const;
};

/// Integer threshold T with (h >> 11) < T  <=>  to_unit(h) < rate, for every
/// hash h — the exact integer form of the fault layer's double compare
/// (to_unit maps the top 53 bits onto [0, 1); scaling rate by 2^53 is a pure
/// exponent shift, so ceil() loses nothing). Exposed for tests.
std::uint64_t unit_threshold(double rate);

}  // namespace logp::fault
