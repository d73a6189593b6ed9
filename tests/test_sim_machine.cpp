#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "alloc_counter.hpp"
#include "fault/fault.hpp"
#include "sim/machine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace logp::sim {
namespace {

/// Scripted host: records callbacks and executes queued reactions.
class ScriptHost : public Host {
 public:
  std::function<void(ProcId)> startup;
  std::function<void(ProcId)> compute_done;
  std::function<void(ProcId)> send_done;
  std::function<void(ProcId, const Message&)> accept_done;
  std::function<void(ProcId)> arrived;

  void on_startup(ProcId p) override {
    if (startup) startup(p);
  }
  void on_compute_done(ProcId p) override {
    if (compute_done) compute_done(p);
  }
  void on_send_done(ProcId p) override {
    if (send_done) send_done(p);
  }
  void on_accept_done(ProcId p, const Message& m) override {
    if (accept_done) accept_done(p, m);
  }
  void on_message_arrived(ProcId p) override {
    if (arrived) arrived(p);
  }
};

MachineConfig cfg(Params p) {
  MachineConfig c;
  c.params = p;
  return c;
}

TEST(Machine, ComputeTakesExactCycles) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 1}), host);
  Cycles done = -1;
  host.startup = [&](ProcId p) { m.start_compute(p, 17); };
  host.compute_done = [&](ProcId) { done = m.now(); };
  m.run();
  EXPECT_EQ(done, 17);
  EXPECT_EQ(m.stats(0).compute, 17);
}

TEST(Machine, ZeroCycleComputeCompletesImmediately) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 1}), host);
  int completions = 0;
  host.startup = [&](ProcId p) { m.start_compute(p, 0); };
  host.compute_done = [&](ProcId p) {
    if (++completions < 3) m.start_compute(p, 0);
  };
  EXPECT_EQ(m.run(), 0);
  EXPECT_EQ(completions, 3);
}

TEST(Machine, MessageArrivesAfterOverheadPlusLatency) {
  // Send at t=0: overhead [0,2), inject at 2, arrive at 2+L=8, reception
  // [8,10) — the Figure 3 timing.
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 2}), host);
  Cycles send_done_at = -1, arrived_at = -1, accepted_at = -1;
  host.startup = [&](ProcId p) {
    if (p == 0) {
      Message msg;
      msg.dst = 1;
      msg.tag = 7;
      m.start_send(p, msg);
    }
  };
  host.send_done = [&](ProcId) { send_done_at = m.now(); };
  host.arrived = [&](ProcId p) {
    arrived_at = m.now();
    m.start_accept(p);
  };
  host.accept_done = [&](ProcId, const Message& msg) {
    accepted_at = m.now();
    EXPECT_EQ(msg.tag, 7);
    EXPECT_EQ(msg.src, 0);
  };
  m.run();
  EXPECT_EQ(send_done_at, 2);
  EXPECT_EQ(arrived_at, 8);
  EXPECT_EQ(accepted_at, 10);
  EXPECT_EQ(m.stats(0).send_overhead, 2);
  EXPECT_EQ(m.stats(1).recv_overhead, 2);
  EXPECT_EQ(m.stats(0).msgs_sent, 1);
  EXPECT_EQ(m.stats(1).msgs_received, 1);
}

TEST(Machine, ConsecutiveSendsPacedByGap) {
  // Figure 3's root: sends engage at 0, 4, 8, 12 with o=2 < g=4.
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 2}), host);
  std::vector<Cycles> send_times;
  int remaining = 4;
  auto send_one = [&](ProcId p) {
    Message msg;
    msg.dst = 1;
    m.start_send(p, msg);
  };
  host.startup = [&](ProcId p) {
    if (p == 0) send_one(p);
  };
  host.send_done = [&](ProcId p) {
    send_times.push_back(m.now());
    if (--remaining > 0) send_one(p);
  };
  host.arrived = [&](ProcId p) {
    if (m.cpu_idle(p)) m.start_accept(p);
  };
  host.accept_done = [&](ProcId p, const Message&) {
    if (m.arrivals_pending(p) > 0) m.start_accept(p);
  };
  m.run();
  // Overhead completes at engage+2: engagements 0,4,8,12 -> done 2,6,10,14.
  EXPECT_EQ(send_times, (std::vector<Cycles>{2, 6, 10, 14}));
  EXPECT_EQ(m.stats(0).gap_wait, 3 * 2);  // waited g-o after each send
}

TEST(Machine, ReceptionsPacedByGap) {
  // Two messages arriving together are accepted g apart.
  ScriptHost host;
  Machine m(cfg({6, 1, 5, 3}), host);
  std::vector<Cycles> accepts;
  host.startup = [&](ProcId p) {
    if (p != 2) {
      Message msg;
      msg.dst = 2;
      m.start_send(p, msg);
    }
  };
  host.arrived = [&](ProcId p) {
    if (m.cpu_idle(p)) m.start_accept(p);
  };
  host.accept_done = [&](ProcId p, const Message&) {
    accepts.push_back(m.now());
    if (m.arrivals_pending(p) > 0) m.start_accept(p);
  };
  m.run();
  ASSERT_EQ(accepts.size(), 2u);
  // Both arrive at 1+6=7; receptions start at 7 and 7+g=12.
  EXPECT_EQ(accepts[0], 8);
  EXPECT_EQ(accepts[1], 13);
}

TEST(Machine, CapacityStallsFloodingSender) {
  // L=4, g=4 -> capacity 1. A sender that never lets the receiver drain
  // (receiver never accepts) stalls forever; with drain disabled and the
  // receiver busy-computing the run still terminates (events exhausted)
  // leaving the sender stalled mid-operation.
  ScriptHost host;
  MachineConfig c = cfg({4, 1, 4, 2});
  c.drain_while_stalled = false;
  Machine m(c, host);
  int sends_completed = 0;
  host.startup = [&](ProcId p) {
    if (p == 0) {
      Message msg;
      msg.dst = 1;
      m.start_send(p, msg);
    } else {
      m.start_compute(p, 1000);  // receiver ignores the network
    }
  };
  host.send_done = [&](ProcId p) {
    ++sends_completed;
    Message msg;
    msg.dst = 1;
    m.start_send(p, msg);
  };
  m.run();
  // First message injects fine; the second stalls forever (capacity 1, the
  // first is never taken off the network by the busy receiver).
  EXPECT_EQ(sends_completed, 1);
}

TEST(Machine, GapPacedStreamNeverStalls) {
  // Steady one-message-per-g traffic to an always-ready receiver fits the
  // capacity bound exactly — zero stall cycles.
  ScriptHost host;
  Machine m(cfg({8, 1, 4, 2}), host);  // capacity = 2
  int to_send = 50;
  auto send_one = [&](ProcId p) {
    Message msg;
    msg.dst = 1;
    m.start_send(p, msg);
  };
  host.startup = [&](ProcId p) {
    if (p == 0) send_one(p);
  };
  host.send_done = [&](ProcId p) {
    if (--to_send > 0) send_one(p);
  };
  host.arrived = [&](ProcId p) {
    if (m.cpu_idle(p)) m.start_accept(p);
  };
  host.accept_done = [&](ProcId p, const Message&) {
    if (m.arrivals_pending(p) > 0) m.start_accept(p);
  };
  m.run();
  EXPECT_EQ(m.stats(0).stall, 0);
  EXPECT_EQ(m.stats(1).msgs_received, 50);
}

TEST(Machine, StalledSenderDrainsOwnArrivals) {
  // Two processors flood each other with capacity 1: with
  // drain_while_stalled (default) both make progress and finish.
  ScriptHost host;
  Machine m(cfg({4, 1, 4, 2}), host);
  int sent[2] = {0, 0};
  constexpr int kEach = 20;
  // Drain-first policy, invoked whenever the CPU goes idle.
  auto step = [&](ProcId p) {
    if (!m.cpu_idle(p)) return;
    if (m.arrivals_pending(p) > 0) {
      m.start_accept(p);
      return;
    }
    if (sent[p] < kEach) {
      Message msg;
      msg.dst = 1 - p;
      m.start_send(p, msg);
    }
  };
  host.startup = step;
  host.send_done = [&](ProcId p) {
    ++sent[p];
    step(p);
  };
  host.accept_done = [&](ProcId p, const Message&) { step(p); };
  host.arrived = step;
  m.run();
  EXPECT_EQ(sent[0], kEach);
  EXPECT_EQ(sent[1], kEach);
  EXPECT_EQ(m.stats(0).msgs_received, kEach);
  EXPECT_EQ(m.stats(1).msgs_received, kEach);
}

TEST(Machine, RandomLatencyBoundedAndReorders) {
  ScriptHost host;
  MachineConfig c = cfg({20, 0, 1, 2});
  c.latency_min = 1;
  c.seed = 99;
  Machine m(c, host);
  std::vector<std::uint32_t> recv_order;
  int to_send = 30;
  std::uint32_t seq = 0;
  auto send_one = [&](ProcId p) {
    Message msg;
    msg.dst = 1;
    msg.seq = seq++;
    m.start_send(p, msg);
  };
  host.startup = [&](ProcId p) {
    if (p == 0) send_one(p);
  };
  host.send_done = [&](ProcId p) {
    if (--to_send > 0) send_one(p);
  };
  host.arrived = [&](ProcId p) {
    if (m.cpu_idle(p)) m.start_accept(p);
  };
  host.accept_done = [&](ProcId p, const Message& msg) {
    recv_order.push_back(msg.seq);
    if (m.arrivals_pending(p) > 0) m.start_accept(p);
  };
  m.run();
  ASSERT_EQ(recv_order.size(), 30u);
  EXPECT_FALSE(std::is_sorted(recv_order.begin(), recv_order.end()))
      << "uniform latency in [1,20] should reorder some pair";
}

TEST(Machine, DeterministicReplay) {
  auto run_once = [] {
    ScriptHost host;
    MachineConfig c = cfg({10, 1, 2, 4});
    c.latency_min = 2;
    c.seed = 1234;
    Machine m(c, host);
    int budget = 100;
    util::Xoshiro256StarStar traffic(7);
    std::function<void(ProcId)> send_random = [&](ProcId p) {
      if (budget-- <= 0) return;
      Message msg;
      msg.dst = static_cast<ProcId>(traffic.uniform(4));
      if (msg.dst == p) msg.dst = static_cast<ProcId>((p + 1) % 4);
      m.start_send(p, msg);
    };
    ScriptHost& h = host;
    h.startup = [&](ProcId p) { send_random(p); };
    h.send_done = [&](ProcId p) { send_random(p); };
    h.arrived = [&](ProcId p) {
      if (m.cpu_idle(p)) m.start_accept(p);
    };
    h.accept_done = [&](ProcId p, const Message&) {
      if (m.cpu_idle(p) && m.arrivals_pending(p) > 0) m.start_accept(p);
    };
    const Cycles end = m.run();
    return std::make_pair(end, m.total_messages());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Machine, ComputeJitterChangesDurationsDeterministically) {
  auto total_with = [](double jitter, std::uint64_t seed) {
    ScriptHost host;
    MachineConfig c = cfg({6, 2, 4, 1});
    c.compute_jitter = jitter;
    c.seed = seed;
    Machine m(c, host);
    int rounds = 20;
    host.startup = [&](ProcId p) { m.start_compute(p, 100); };
    host.compute_done = [&](ProcId p) {
      if (--rounds > 0) m.start_compute(p, 100);
    };
    m.run();
    return m.stats(0).compute;
  };
  EXPECT_EQ(total_with(0.0, 1), 2000);
  const auto j1 = total_with(0.2, 1);
  EXPECT_NE(j1, 2000);
  EXPECT_NEAR(static_cast<double>(j1), 2000.0, 2000.0 * 0.2);
  EXPECT_EQ(j1, total_with(0.2, 1));  // same seed, same jitter
  EXPECT_NE(j1, total_with(0.2, 2));  // different seed
}

TEST(Machine, RejectsOpsWhileBusy) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 1}), host);
  host.startup = [&](ProcId p) {
    m.start_compute(p, 10);
    EXPECT_THROW(m.start_compute(p, 1), util::check_error);
  };
  m.run();
}

TEST(Machine, RejectsBadDestination) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 2}), host);
  host.startup = [&](ProcId p) {
    if (p == 0) {
      Message msg;
      msg.dst = 5;
      EXPECT_THROW(m.start_send(p, msg), util::check_error);
    }
  };
  m.run();
}

TEST(Machine, TraceRecordsActivities) {
  ScriptHost host;
  MachineConfig c = cfg({6, 2, 4, 2});
  c.record_trace = true;
  Machine m(c, host);
  host.startup = [&](ProcId p) {
    if (p == 0) {
      Message msg;
      msg.dst = 1;
      m.start_send(p, msg);
    }
  };
  host.arrived = [&](ProcId p) { m.start_accept(p); };
  m.run();
  bool saw_send = false, saw_recv = false;
  for (const auto& iv : m.recorder().intervals()) {
    saw_send |= iv.what == trace::Activity::kSendOverhead;
    saw_recv |= iv.what == trace::Activity::kRecvOverhead;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST(Machine, ScheduledCallsRunAtTheRightTime) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 1}), host);
  std::vector<Cycles> fired;
  host.startup = [&](ProcId) {
    m.schedule_call(5, [&] { fired.push_back(m.now()); });
    m.schedule_call(3, [&] { fired.push_back(m.now()); });
    m.schedule_call(3, [&] { fired.push_back(m.now()); });
  };
  m.run();
  EXPECT_EQ(fired, (std::vector<Cycles>{3, 3, 5}));
}

TEST(Machine, EventBudgetGuard) {
  ScriptHost host;
  MachineConfig c = cfg({6, 2, 4, 1});
  c.max_events = 10;
  Machine m(c, host);
  host.startup = [&](ProcId p) { m.start_compute(p, 1); };
  host.compute_done = [&](ProcId p) { m.start_compute(p, 1); };  // forever
  EXPECT_THROW(m.run(), util::check_error);
}

// Event-queue ordering regression: events pushed at the same timestamp must
// dispatch in push (FIFO) order — the determinism guarantee the sweep
// harness and traces rely on. Scheduled calls at one instant exercise the
// queue directly, including a same-time call pushed *during* dispatch.
TEST(Machine, EqualTimestampCallsDispatchFifo) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 1}), host);
  std::vector<int> order;
  host.startup = [&](ProcId) {
    for (int i = 0; i < 9; ++i)
      m.schedule_call(7, [&order, i] { order.push_back(i); });
    m.schedule_call(7, [&] {
      m.schedule_call(7, [&order] { order.push_back(100); });  // same instant
    });
  };
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 100}));
}

// Two senders whose messages are delivered at the same cycle: the receiver
// must accept them in injection order (proc 1 engaged its send first, so its
// message was pushed onto the queue first).
TEST(Machine, EqualTimestampDeliveriesAcceptedFifo) {
  ScriptHost host;
  Machine m(cfg({6, 2, 4, 3}), host);
  std::vector<ProcId> accepted_from;
  host.startup = [&](ProcId p) {
    if (p == 0) return;
    Message msg;
    msg.dst = 0;
    msg.tag = p;
    m.start_send(p, msg);  // both sends start at t=0, deliver at o+L
  };
  host.arrived = [&](ProcId p) {
    if (m.cpu_idle(p)) m.start_accept(p);
  };
  host.accept_done = [&](ProcId p, const Message& msg) {
    accepted_from.push_back(msg.src);
    if (m.arrivals_pending(p) > 0) m.start_accept(p);
  };
  m.run();
  EXPECT_EQ(accepted_from, (std::vector<ProcId>{1, 2}));
}

// ---- Capacity-stall wake order --------------------------------------------
//
// Flood programs keep many senders blocked on the ceil(L/g) bound. The host
// receives before it sends, so the on_send_done of a woken sender often
// starts a reception at once and re-enters the wake path from inside a wake.
// Each sender sends per_dest messages to every destination: "naive" floods
// the lowest destination first (the Section 4.1 naive remap), "staggered"
// starts past its own id, and "random" draws each destination. Without
// drain_while_stalled the upper half only receives: a stalled sender never
// services its arrivals, so if every processor flooded, all would soon be
// stalled on one another.

struct FloodCase {
  std::uint64_t seed;
  int P;
  bool drain;  ///< MachineConfig::drain_while_stalled
  bool drops;  ///< attach a FaultPlan with msg_drop_rate > 0
};

struct FloodOutcome {
  Cycles finish = 0;
  std::vector<Cycles> stall;
  std::vector<Cycles> gap_wait;
  std::uint64_t digest = 0;  ///< trace intervals + per-processor receive order
};

FloodOutcome run_flood(const FloodCase& fc) {
  util::Xoshiro256StarStar rng(fc.seed);
  Params prm;
  prm.P = fc.P;
  prm.g = static_cast<Cycles>(1 + rng.uniform(4));
  prm.L = prm.g * static_cast<Cycles>(1 + rng.uniform(4)) +
          static_cast<Cycles>(rng.uniform(static_cast<std::uint64_t>(prm.g)));
  prm.o = static_cast<Cycles>(rng.uniform(3));
  MachineConfig c = cfg(prm);
  c.seed = fc.seed;
  c.record_trace = true;
  c.drain_while_stalled = fc.drain;
  if (rng.uniform(2) == 0)
    c.latency_min = static_cast<Cycles>(
        rng.uniform(static_cast<std::uint64_t>(prm.L) + 1));
  fault::FaultPlan plan;
  plan.seed = fc.seed * 31 + 7;
  plan.msg_drop_rate = 0.15;
  if (fc.drops) c.faults = &plan;
  const int per_dest = static_cast<int>(2 + rng.uniform(6));
  const int pattern = static_cast<int>(rng.uniform(3));
  const int senders = fc.drain ? fc.P : fc.P / 2;  // [0, senders) send
  const int total = per_dest * (fc.P - 1);
  auto dest_of = [&](ProcId p, int k) -> ProcId {
    const int step =
        pattern == 2
            ? static_cast<int>(rng.uniform(static_cast<std::uint64_t>(fc.P - 1)))
            : (pattern == 0 ? k / per_dest : (p + k / per_dest) % (fc.P - 1));
    return step >= p ? step + 1 : step;  // every processor but p
  };

  ScriptHost host;
  Machine m(c, host);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&digest](std::int64_t v) {
    digest = (digest ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  };
  std::vector<int> sent(static_cast<std::size_t>(fc.P), 0);
  auto step = [&](ProcId p) {
    if (!m.cpu_idle(p)) return;
    if (m.arrivals_pending(p) > 0) {
      m.start_accept(p);
      return;
    }
    int& k = sent[static_cast<std::size_t>(p)];
    if (p < senders && k < total) {
      Message msg;
      msg.dst = dest_of(p, k);
      msg.tag = k++;
      m.start_send(p, msg);
    }
  };
  host.startup = step;
  host.send_done = step;
  host.arrived = step;
  host.accept_done = [&](ProcId p, const Message& msg) {
    mix(p);
    mix(msg.src);
    mix(msg.tag);
    step(p);
  };

  FloodOutcome out;
  out.finish = m.run();
  for (const auto& iv : m.recorder().intervals()) {
    mix(iv.proc);
    mix(iv.begin);
    mix(iv.end);
    mix(static_cast<std::int64_t>(iv.what));
    mix(iv.peer);
  }
  mix(m.total_messages());
  mix(m.messages_dropped());
  for (ProcId p = 0; p < fc.P; ++p) {
    out.stall.push_back(m.stats(p).stall);
    out.gap_wait.push_back(m.stats(p).gap_wait);
  }
  out.digest = digest;
  return out;
}

struct PinnedFlood {
  FloodCase c;
  Cycles finish;
  std::vector<Cycles> stall;
  std::vector<Cycles> gap_wait;
  std::uint64_t digest;
};

// Captured from the machine whose wake path rescanned one global list of
// blocked senders on every accept and drop. The per-destination FIFOs must
// wake the same senders in the same order, so every figure stays put.
const PinnedFlood kPinnedFloods[] = {
    {{1000, 2, true, false},
     29,
     {0, 0},
     {7, 15},
     0xb7c55528052f4d7aULL},
    {{1001, 7, false, false},
     73,
     {0, 0, 2, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0},
     0xd5daa45007d9d486ULL},
    {{1002, 12, true, true},
     156,
     {68, 76, 104, 68, 88, 72, 84, 84, 80, 92, 60, 76},
     {52, 64, 44, 28, 44, 52, 56, 52, 52, 52, 56, 56},
     0x03b0b4866c0ec6bcULL},
    {{1003, 3, false, true},
     28,
     {0, 0, 0},
     {12, 0, 0},
     0xce49971a23fdd9e2ULL},
    {{1004, 8, true, false},
     64,
     {17, 5, 6, 16, 21, 8, 15, 13},
     {32, 49, 53, 41, 37, 52, 38, 38},
     0x632bc3c7aabcb08aULL},
    {{1005, 13, false, false},
     532,
     {55, 219, 247, 315, 321, 345, 0, 0, 0, 0, 0, 0, 0},
     {182, 128, 113, 63, 81, 69, 64, 61, 65, 66, 58, 64, 61},
     0x902f5210cd13f73dULL},
    {{1006, 4, true, true},
     39,
     {0, 2, 5, 12},
     {24, 15, 23, 20},
     0xa9bc5e8d7ac1a0eeULL},
    {{1007, 9, false, true},
     6,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {2, 2, 0, 0, 0, 0, 0, 0, 0},
     0xf39c53dcfd93e6e6ULL},
    {{1008, 14, true, false},
     346,
     {6, 0, 6, 0, 0, 0, 0, 4, 2, 4, 4, 0, 2, 2},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0x6aff8eb80ddd3269ULL},
    {{1009, 5, false, false},
     11,
     {0, 0, 0, 0, 0},
     {3, 3, 0, 0, 0},
     0xb4ce2ea5ea7ae931ULL},
    {{1010, 10, true, true},
     208,
     {26, 23, 32, 51, 15, 15, 33, 31, 45, 55},
     {137, 153, 168, 133, 149, 166, 142, 120, 151, 141},
     0x01016ce182afc6c7ULL},
    {{1011, 15, false, true},
     19,
     {4, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     {2, 3, 3, 3, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
     0xa23188412fad0803ULL},
    {{1012, 6, true, false},
     147,
     {0, 0, 0, 1, 0, 0},
     {30, 33, 22, 32, 22, 24},
     0x7ba86e257166fbd0ULL},
    {{1013, 11, false, false},
     158,
     {69, 69, 70, 61, 14, 0, 0, 0, 0, 0, 0},
     {36, 42, 32, 49, 82, 7, 6, 11, 5, 4, 4},
     0xfe7b0679de5bdee7ULL},
    {{1014, 16, true, true},
     499,
     {54, 59, 88, 50, 7, 45, 55, 62, 77, 69, 129, 8, 63, 54, 69, 66},
     {234, 250, 249, 209, 298, 237, 248, 224, 204, 234, 210, 260, 223, 258, 263, 249},
     0x2a45178f93cfcb8cULL},
    {{1015, 7, false, true},
     66,
     {8, 10, 6, 0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0},
     0x8cb0a2119b09359bULL},
    {{1016, 12, true, false},
     420,
     {66, 64, 20, 22, 6, 38, 26, 34, 36, 40, 38, 66},
     {118, 90, 112, 144, 122, 98, 112, 106, 118, 108, 114, 80},
     0xdef802351b49d53bULL},
    {{1017, 2, false, false},
     9,
     {0, 0},
     {0, 0},
     0x798d1330e38808e3ULL},
    {{1018, 8, true, true},
     148,
     {0, 0, 0, 0, 0, 0, 0, 0},
     {145, 145, 145, 142, 145, 145, 145, 145},
     0x9ab04d52223b25d2ULL},
    {{1019, 13, false, true},
     248,
     {40, 100, 154, 160, 178, 188, 0, 0, 0, 0, 0, 0, 0},
     {88, 42, 12, 10, 10, 0, 0, 0, 0, 0, 0, 0, 0},
     0xbc7a7e5839a7f2b4ULL},
    {{1020, 3, true, false},
     45,
     {3, 8, 11},
     {8, 8, 3},
     0x0ff2071c5f133505ULL},
    {{1021, 9, false, false},
     189,
     {18, 7, 6, 8, 0, 0, 0, 0, 0},
     {56, 61, 61, 60, 9, 18, 18, 15, 2},
     0x388f38a2752f4714ULL},
    {{1022, 14, true, true},
     218,
     {0, 2, 0, 0, 2, 0, 0, 0, 0, 4, 0, 0, 2, 2},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xa7016ce15f2b80a3ULL},
    {{1023, 4, false, true},
     38,
     {2, 0, 0, 0},
     {12, 12, 3, 2},
     0x5a167245c10e8303ULL}
};

TEST(Machine, CapacityStallWakeOrderIsPinned) {
  std::int64_t stalled_runs = 0;
  for (const auto& pin : kPinnedFloods) {
    const FloodOutcome got = run_flood(pin.c);
    SCOPED_TRACE(testing::Message()
                 << "seed " << pin.c.seed << " P " << pin.c.P << " drain "
                 << pin.c.drain << " drops " << pin.c.drops);
    EXPECT_EQ(got.finish, pin.finish);
    EXPECT_EQ(got.stall, pin.stall);
    EXPECT_EQ(got.gap_wait, pin.gap_wait);
    EXPECT_EQ(got.digest, pin.digest);
    Cycles stall = 0;
    for (const Cycles s : got.stall) stall += s;
    stalled_runs += stall > 0;
  }
  // The table is only a net if the stall path actually runs.
  EXPECT_GE(stalled_runs, 12);
}

// The stall path of a warm machine allocates nothing: blocked senders are
// queued in storage that is reused across stalls and runs.
TEST(Machine, WarmCapacityStallRunDoesNotAllocate) {
  constexpr int kP = 16;
  constexpr int kPerDest = 4;
  ScriptHost host;
  Machine m(cfg({24, 2, 4, kP}), host);  // capacity 6
  int sent[kP] = {};
  // Naive flood: every processor sends to 0 first, then 1, ... .
  auto step = [&](ProcId p) {
    if (!m.cpu_idle(p)) return;
    if (m.arrivals_pending(p) > 0) {
      m.start_accept(p);
      return;
    }
    int& k = sent[p];
    if (k < kPerDest * (kP - 1)) {
      const int dst = k++ / kPerDest;
      Message msg;
      msg.dst = dst < p ? dst : dst + 1;
      m.start_send(p, msg);
    }
  };
  host.startup = step;
  host.send_done = step;
  host.arrived = step;
  host.accept_done = [&](ProcId p, const Message&) { step(p); };
  auto flood_again = [&] {
    for (int& k : sent) k = 0;
    m.schedule_call(m.now(), [&step] {
      for (ProcId p = 0; p < kP; ++p) step(p);
    });
  };
  m.run();  // cold: pools, heap and queues grow to their high-water marks
  flood_again();
  m.run();
  const Cycles stall_before = m.total_stats().stall;
  flood_again();
  test::AllocationGuard guard;
  m.run();
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_GT(m.total_stats().stall, stall_before) << "the run never stalled";
}

}  // namespace
}  // namespace logp::sim
