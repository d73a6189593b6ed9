// The LogP machine: a deterministic discrete-event simulator enforcing the
// model's semantics (paper Section 3):
//
//  * Sending engages the processor for `o` cycles; consecutive transmissions
//    at one processor are at least `g` apart (the send "port").
//  * A message is injected when its send overhead completes and arrives at
//    its destination after a latency of at most `L` (deterministic L by
//    default; optionally uniform in [latency_min, L], which reorders
//    messages, as the model allows).
//  * Receiving engages the processor for `o` cycles; consecutive receptions
//    are at least `g` apart (the receive "port").
//  * At most ceil(L/g) messages may be in flight from any processor or to
//    any processor. A send that would exceed either bound stalls its
//    processor until a slot frees. A message counts as "in flight" from its
//    injection until the destination processor *begins* receiving it, so a
//    processor that floods a busy receiver is throttled — the behaviour the
//    capacity constraint exists to discourage.
//
// The machine is policy-free: a Host (normally runtime::Scheduler) decides
// what each processor does whenever its CPU is free. All Host callbacks are
// invoked during event processing; the Host may immediately start the next
// operation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "sim/choice.hpp"
#include "sim/message.hpp"
#include "trace/recorder.hpp"
#include "util/event_heap.hpp"
#include "util/inplace_function.hpp"
#include "util/pool.hpp"
#include "util/ring_deque.hpp"
#include "util/rng.hpp"

namespace logp::fault {
struct FaultPlan;
}  // namespace logp::fault

namespace logp::obs {
class Counter;
class CritPathRecorder;
class FixedHistogram;
class MetricsRegistry;
}  // namespace logp::obs

namespace logp::sim {

/// Per-processor accounting, all in cycles unless noted.
struct ProcStats {
  Cycles compute = 0;
  Cycles send_overhead = 0;
  Cycles recv_overhead = 0;
  Cycles stall = 0;     ///< blocked on network capacity
  Cycles gap_wait = 0;  ///< waiting for the send/receive port
  std::int64_t msgs_sent = 0;
  std::int64_t msgs_received = 0;
  std::int64_t max_arrival_backlog = 0;  ///< contention indicator

  Cycles busy() const {
    return compute + send_overhead + recv_overhead + stall + gap_wait;
  }
};

/// The Host is informed whenever a processor's CPU becomes free or a message
/// shows up, and drives the processor by calling Machine::start_*.
class Host {
 public:
  virtual ~Host() = default;
  /// t = 0: the processor exists and is idle.
  virtual void on_startup(ProcId p) = 0;
  /// A compute issued via start_compute finished; CPU is idle.
  virtual void on_compute_done(ProcId p) = 0;
  /// A send issued via start_send was injected into the network; CPU is idle.
  virtual void on_send_done(ProcId p) = 0;
  /// A reception finished; CPU is idle and `m` is available.
  virtual void on_accept_done(ProcId p, const Message& m) = 0;
  /// A message was delivered into p's arrival queue (the processor has not
  /// yet spent its receive overhead; call start_accept to do so).
  virtual void on_message_arrived(ProcId p) = 0;
};

struct MachineConfig {
  Params params;
  std::uint64_t seed = 0x10c9;
  /// Latency is deterministic (== L) when latency_min < 0, otherwise drawn
  /// uniformly from [latency_min, L] per message.
  Cycles latency_min = -1;
  /// Multiplicative jitter on compute durations: each start_compute runs for
  /// dur * (1 + u * compute_jitter), u uniform in [-1, 1). Models the
  /// "cache effects, network collisions" drift of paper Section 4.1.4.
  double compute_jitter = 0.0;
  bool record_trace = false;
  /// A processor stalled on network capacity services its own arrivals
  /// (paying the usual receive overhead) and then retries the injection.
  /// This mirrors Active Message layers, which poll the receive queue while
  /// waiting to inject, and is what makes flood patterns (e.g. the naive
  /// all-to-all schedule) livelock-free. Disable to study pure stalling.
  bool drain_while_stalled = true;
  /// Safety valve: run() throws if more events than this are processed.
  std::uint64_t max_events = std::uint64_t(1) << 62;
  /// Optional metrics sink (see obs/metrics.hpp). The machine registers
  /// sim.* counters/gauges/histograms at construction and updates them as it
  /// runs; null (the default) costs one predicted branch on the few paths
  /// instrumented, and -DLOGP_OBS=OFF compiles even that out. The registry
  /// must outlive the machine and must not be shared with a machine running
  /// on another thread (one registry per experiment, like the RNG).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional critical-path DAG recorder (see obs/critical_path.hpp): when
  /// attached, the machine records one node per operation milestone so the
  /// finish time can be decomposed along its binding chain and re-costed
  /// under perturbed (L, o, g). Same rules as `metrics`: one recorder per
  /// machine run, must outlive the machine, never shared across threads;
  /// null costs one predicted branch per hook and -DLOGP_OBS=OFF compiles
  /// the hooks out entirely.
  obs::CritPathRecorder* critpath = nullptr;
  /// Optional deterministic fault plan (see fault/fault.hpp). The machine
  /// honors msg_drop_rate and proc_faults: a doomed message pays its full
  /// network cost (it is injected normally and counts against both capacity
  /// bounds until its arrival instant) but is then discarded without
  /// notifying anyone — no Host callback fires. Decisions are hashed from
  /// the message's injection sequence number, so they are independent of
  /// host scheduling. Null disables all of it at the cost of one branch per
  /// injection. The plan must outlive the machine.
  const fault::FaultPlan* faults = nullptr;
  /// Optional model-checker branch oracle (see ChoiceOracle above and
  /// src/mc). Null keeps every decision on its default; the -DLOGP_MC=OFF
  /// build compiles the consultation sites out entirely. The oracle must
  /// outlive the machine.
  ChoiceOracle* oracle = nullptr;
};

class Machine {
 public:
  /// Timed continuation: stored inline (48 bytes), never heap-allocated.
  /// Captures larger than the inline buffer are a compile error — keep
  /// continuations down to a few pointers, as every current Host does.
  using Call = util::InplaceFunction<void()>;

  Machine(MachineConfig config, Host& host);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Processes events until the queue is empty (the Host injects all work).
  /// Returns the final simulated time.
  Cycles run();

  Cycles now() const { return now_; }
  const Params& params() const { return cfg_.params; }
  const MachineConfig& config() const { return cfg_; }

  /// True when the processor can start a new operation.
  bool cpu_idle(ProcId p) const {
    return procs_[static_cast<std::size_t>(p)].state == CpuState::kIdle;
  }
  /// Number of delivered-but-not-yet-received messages at p.
  int arrivals_pending(ProcId p) const {
    return static_cast<int>(procs_[static_cast<std::size_t>(p)].arrivals.size());
  }
  /// True when a reception started now would begin immediately (the receive
  /// port's gap has elapsed). Hosts use this to avoid committing the CPU to
  /// a port wait while other work is runnable.
  bool recv_port_ready(ProcId p) const {
    return procs_[static_cast<std::size_t>(p)].recv_port_free <= now_;
  }

  /// Occupies p's CPU for `dur` cycles (plus jitter). Requires cpu_idle(p).
  void start_compute(ProcId p, Cycles dur);
  /// Begins transmitting `m` from p (m.src is overwritten with p).
  /// Requires cpu_idle(p). The CPU is engaged through gap wait, overhead and
  /// any capacity stall; Host::on_send_done fires at injection.
  void start_send(ProcId p, Message m);
  /// Long-message (DMA) send, paper Section 5.4 / the LogGP refinement:
  /// the CPU pays the setup overhead o once, then a network DMA engine
  /// streams `words` payload words at `gap_per_word` cycles each while the
  /// CPU computes. The send port stays busy for the whole stream; the
  /// message (with m.bulk_words = words) arrives L after the last word and
  /// costs the receiver a single o. Counts as one unit of network capacity.
  /// Host::on_send_done fires when the CPU is released (after o), not when
  /// the stream drains.
  void start_send_dma(ProcId p, Message m, std::uint64_t words,
                      Cycles gap_per_word);
  /// Begins receiving the oldest arrival. Requires cpu_idle(p) and
  /// arrivals_pending(p) > 0. Host::on_accept_done fires o cycles after the
  /// reception starts (which itself waits for the receive port).
  void start_accept(ProcId p);

  /// Runs `fn` at absolute time t (>= now). Used for timed program steps.
  /// The continuation is moved into a pooled slot; no heap allocation occurs
  /// once the pool has warmed up.
  void schedule_call(Cycles t, Call fn);

  const ProcStats& stats(ProcId p) const {
    return procs_[static_cast<std::size_t>(p)].stats;
  }
  /// Aggregate over processors.
  ProcStats total_stats() const;

  std::int64_t total_messages() const { return total_messages_; }
  /// Messages discarded in flight by the fault plan (0 without one).
  std::int64_t messages_dropped() const { return msgs_dropped_; }
  std::uint64_t events_processed() const { return events_processed_; }

  trace::Recorder& recorder() { return recorder_; }
  const trace::Recorder& recorder() const { return recorder_; }

 private:
  enum class CpuState : std::uint8_t {
    kIdle,
    kCompute,
    kSendGapWait,    ///< waiting for the send port
    kSendOverhead,   ///< paying o
    kSendStalled,    ///< overhead paid, network full
    kAcceptGapWait,  ///< waiting for the receive port
    kRecvOverhead,   ///< paying o
  };

  enum class EvKind : std::uint8_t {
    kStartup,
    kComputeDone,
    kSendEngage,
    kSendOverheadDone,
    kDeliver,
    kDropArrive,  ///< fault plan: message vanishes at its arrival instant
    kAcceptStart,
    kAcceptDone,
    kCall,
  };

  struct Event {
    Cycles t;
    std::uint64_t seq;
    EvKind kind;
    ProcId proc;
    std::uint32_t payload;  ///< message pool index or callback slot
  };

  /// Orders by (t, seq); seq is strictly increasing at push time, so events
  /// at equal timestamps dispatch in FIFO push order.
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };

  struct Proc {
    CpuState state = CpuState::kIdle;
    Cycles send_port_free = 0;
    Cycles recv_port_free = 0;
    int out_inflight = 0;
    int in_inflight = 0;
    Cycles op_requested = 0;    ///< when the current op was requested
    Cycles stall_begin = 0;     ///< when a capacity stall started
    /// Stamp of this processor's entry in blocked_at_, 0 when it has none:
    /// set when a send blocks on capacity, cleared when the stall ends
    /// (injection, or a drain of its own arrivals).
    std::uint64_t stall_stamp = 0;
    bool pending_injection = false;  ///< stalled send awaiting retry
    std::uint64_t dma_words = 0;     ///< outgoing DMA stream length
    Cycles dma_gap = 0;              ///< cycles per streamed word
    std::uint32_t current_msg = 0;
    util::RingDeque<std::uint32_t> arrivals;
    ProcStats stats;
  };

  /// Resolved metric pointers (all null when cfg_.metrics is null or obs is
  /// compiled out). Stall-related updates sit on contention paths only; the
  /// per-event loop is untouched — totals are flushed once at end of run().
  struct Instruments {
    obs::Counter* stalls_entered = nullptr;
    obs::Counter* stall_wakeups = nullptr;
    obs::Counter* drained_accepts = nullptr;
    obs::FixedHistogram* stall_cycles = nullptr;
  };

  void push_event(Cycles t, EvKind kind, ProcId proc, std::uint32_t payload);
  void dispatch(const Event& ev);
  void flush_metrics();

  void engage_send(ProcId p, Cycles t);
  /// Removes and returns the arrival-queue entry the processor engages with:
  /// the front, unless a choice oracle picks another pending arrival.
  std::uint32_t take_arrival(ProcId p);
  void try_inject(ProcId p, Cycles t);
  void inject(ProcId p, Cycles t);
  void accept_begin(ProcId p, Cycles t);
  void maybe_accept_while_stalled(ProcId p);
  void try_retry_injection(ProcId p);
  void block_sender(ProcId p);
  /// A message src -> dst left the network: wake the blocked senders that
  /// now fit, in the order one scan over every blocked sender would.
  void wake_blocked_senders(ProcId src, ProcId dst);
  Cycles sample_latency();
  Cycles apply_jitter(Cycles dur);

  MachineConfig cfg_;
  Host& host_;
  std::vector<Proc> procs_;
  util::FourAryHeap<Event, EventBefore> events_;
  std::uint64_t event_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  Cycles now_ = 0;

  /// In-flight message and pending-continuation records, both addressed by
  /// the 32-bit pool ids riding on events. Freelist recycling keeps churn
  /// allocation-free in steady state.
  util::Pool<Message> msgs_;
  util::Pool<Call> calls_;

  /// Senders blocked on capacity, queued at their message's destination in
  /// stamp order. A processor has at most one blocked send; entries whose
  /// stamp no longer matches Proc::stall_stamp are stale and skipped.
  struct Blocked {
    ProcId proc;
    std::uint64_t stamp;
  };
  std::vector<util::RingDeque<Blocked>> blocked_at_;
  std::uint64_t stall_seq_ = 0;
  /// Network slots freed since the outermost active wake began, as
  /// (src, dst). A wake only looks at senders these frees can have unblocked.
  struct Freed {
    ProcId src;
    ProcId dst;
  };
  std::vector<Freed> freed_;
  /// Stamp of the sender the innermost active wake is injecting; a wake
  /// nested in that injection considers only older entries.
  std::uint64_t wake_limit_ = ~std::uint64_t{0};

  std::int64_t total_messages_ = 0;
  std::uint64_t msg_seq_ = 0;      ///< injection sequence, fault-plan key
  std::int64_t msgs_dropped_ = 0;
  util::Xoshiro256StarStar rng_;
  trace::Recorder recorder_;
  Instruments obs_;
};

}  // namespace logp::sim
