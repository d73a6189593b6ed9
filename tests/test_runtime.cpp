#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <numeric>
#include <vector>

#include "alloc_counter.hpp"
#include "runtime/bulk.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace logp::runtime {
namespace {

sim::MachineConfig cfg(Params p) {
  sim::MachineConfig c;
  c.params = p;
  return c;
}

TEST(Runtime, PingPongTakesMessageTimeEachWay) {
  // o=2, L=6: one-way message time is 10; ping-pong is 20.
  Scheduler sched(cfg({6, 2, 4, 2}));
  Cycles pong_at = -1;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await ctx.send(1, 1, 42);
      const Message m = co_await ctx.recv(2, 1);
      EXPECT_EQ(m.word(0), 43u);
      pong_at = ctx.now();
    } else {
      const Message m = co_await ctx.recv(1, 0);
      co_await ctx.send(0, 2, m.word(0) + 1);
    }
  });
  sched.run();
  EXPECT_EQ(pong_at, 20);
}

TEST(Runtime, ComputeAdvancesLocalTimeOnly) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  std::vector<Cycles> finish(2);
  sched.set_program([&](Ctx ctx) -> Task {
    co_await ctx.compute(ctx.proc() == 0 ? 5 : 9);
    finish[static_cast<std::size_t>(ctx.proc())] = ctx.now();
  });
  EXPECT_EQ(sched.run(), 9);
  EXPECT_EQ(finish[0], 5);
  EXPECT_EQ(finish[1], 9);
}

TEST(Runtime, RecvMatchesByTagAcrossReordering) {
  Scheduler sched(cfg({6, 1, 2, 2}));
  std::vector<std::uint64_t> got;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await ctx.send(1, /*tag=*/7, 70);
      co_await ctx.send(1, /*tag=*/8, 80);
      co_await ctx.send(1, /*tag=*/9, 90);
    } else {
      // Claim in reverse tag order; mailbox must hold the others.
      got.push_back((co_await ctx.recv(9)).word(0));
      got.push_back((co_await ctx.recv(8)).word(0));
      got.push_back((co_await ctx.recv(7)).word(0));
    }
  });
  sched.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{90, 80, 70}));
}

TEST(Runtime, RecvMatchesBySource) {
  Scheduler sched(cfg({6, 1, 2, 3}));
  std::vector<ProcId> order;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 2) {
      order.push_back((co_await ctx.recv(kAnyTag, 1)).src);
      order.push_back((co_await ctx.recv(kAnyTag, 0)).src);
    } else if (ctx.proc() == 0) {
      co_await ctx.send(2, 1, 0);
    } else {
      co_await ctx.compute(50);  // proc 1's message arrives much later
      co_await ctx.send(2, 1, 0);
    }
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<ProcId>{1, 0}));
}

TEST(Runtime, DeepMailboxTakesFirstMatchInArrivalOrder) {
  // Proc 0 lets a few hundred messages with mixed tags and sources pile up,
  // then drains them with a seeded mix of recv shapes while injecting as
  // many locally, so head and tail travel round the ring many times. Every
  // take must equal the first match in `ref`, a std::list mirroring the
  // mailbox in arrival order.
  constexpr int P = 4;
  constexpr int kPerSender = 100;
  constexpr std::int32_t kTags = 3;     // user tags 1..kTags
  constexpr std::int32_t kWire = 1000;  // network tag; word 1 = user tag
  constexpr std::int32_t kAbsentTag = 99;
  struct Entry {
    std::int32_t tag;
    ProcId src;
    std::uint64_t id;
  };
  std::list<Entry> ref;
  int arrived = 0, takes = 0, mid_takes = 0, timeouts = 0;

  Scheduler sched(cfg({12, 2, 3, P}));
  // Network messages reach the mailbox through this handler, which records
  // them and re-delivers them under their user tag: `ref` sees exactly the
  // order in which the mailbox receives them.
  sched.set_handler(kWire, [&](Ctx ctx, const Message& m) {
    Message u = m;
    u.tag = static_cast<std::int32_t>(m.word(1));
    ref.push_back({u.tag, u.src, u.word(0)});
    ++arrived;
    ctx.scheduler().inject_local(ctx.proc(), u);
  });
  sched.set_program([&](Ctx ctx) -> Task {
    util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(ctx.proc()) + 7);
    if (ctx.proc() != 0) {
      for (int i = 0; i < kPerSender; ++i) {
        if (rng.bernoulli(0.2)) co_await ctx.compute(Cycles(rng.uniform(9)));
        co_await ctx.send(0, kWire,
                          std::uint64_t(ctx.proc()) * 1000 + std::uint64_t(i),
                          1 + rng.uniform(kTags));
      }
      co_return;
    }
    std::uint64_t next_local = 100000;
    auto inject = [&] {
      Message m;
      m.src = static_cast<ProcId>(rng.uniform(P));
      m.dst = 0;
      m.tag = 1 + static_cast<std::int32_t>(rng.uniform(kTags));
      m.push_word(next_local++);
      ref.push_back({m.tag, m.src, m.word(0)});
      ctx.scheduler().inject_local(0, m);
    };
    // Pile up: sleeping leaves the CPU idle, so arrivals are accepted into
    // the mailbox while no recv is waiting.
    while (arrived < (P - 1) * kPerSender) {
      if (rng.bernoulli(0.3)) inject();
      co_await ctx.sleep_until(ctx.now() + 20);
    }
    // Drain with every recv shape; keys come from a random queued message,
    // so most matches sit behind the head.
    auto take = [&](std::int32_t tag, ProcId src, const Message& got) {
      auto it = std::find_if(ref.begin(), ref.end(), [&](const Entry& e) {
        return (tag == kAnyTag || e.tag == tag) &&
               (src == kAnySrc || e.src == src);
      });
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(got.tag, it->tag);
      EXPECT_EQ(got.src, it->src);
      EXPECT_EQ(got.word(0), it->id);
      if (it != ref.begin()) ++mid_takes;
      ref.erase(it);
      ++takes;
    };
    for (int step = 0; step < 2400 || !ref.empty(); ++step) {
      if (step < 2400 && (ref.empty() || rng.bernoulli(0.5))) {
        inject();
        continue;
      }
      const Entry& e = *std::next(
          ref.begin(), static_cast<std::ptrdiff_t>(rng.uniform(ref.size())));
      const std::int32_t tag = e.tag;
      const ProcId src = e.src;
      switch (step < 2400 ? rng.uniform(5) : 0) {
        case 0:
          take(kAnyTag, kAnySrc, co_await ctx.recv());
          break;
        case 1:
          take(tag, kAnySrc, co_await ctx.recv(tag));
          break;
        case 2:
          take(kAnyTag, src, co_await ctx.recv(kAnyTag, src));
          break;
        case 3:
          take(tag, src, co_await ctx.recv(tag, src));
          break;
        default: {
          const bool absent = rng.bernoulli(0.3);
          const std::int32_t t = absent ? kAbsentTag : tag;
          const Cycles deadline = ctx.now() + 5;
          const TimedRecv r = co_await ctx.recv_until(deadline, t, src);
          EXPECT_EQ(r.ok, !absent);
          if (r.ok) {
            take(t, src, r.msg);
          } else {
            EXPECT_EQ(ctx.now(), deadline);
            ++timeouts;
          }
        }
      }
    }
  });
  sched.run();
  EXPECT_EQ(arrived, (P - 1) * kPerSender);
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(takes, 600);
  EXPECT_GT(mid_takes, takes / 3);
  EXPECT_GT(timeouts, 0);
}

TEST(Runtime, WarmMailboxDrainAndRefillDoesNotAllocate) {
  // Each round proc 0 streams kDepth messages that pile up behind proc 1's
  // wait for the round marker; proc 1 then drains them. The warm-up rounds
  // bring every queue and pool to its high-water mark (the machine's arrival
  // ring is first used in round 1); later rounds reach the same depths and
  // must not touch the heap.
  constexpr int kDepth = 300;
  constexpr int kWarmRounds = 2;
  constexpr int kRounds = 5;
  Scheduler sched(cfg({6, 2, 4, 2}));
  std::vector<std::uint64_t> got;
  got.reserve(kDepth * kRounds);
  std::size_t warm_at = 0, done_at = 0;
  sched.set_program([&](Ctx ctx) -> Task {
    for (int round = 0; round < kRounds; ++round) {
      if (ctx.proc() == 0) {
        for (int i = 0; i < kDepth; ++i)
          co_await ctx.send(1, 1, std::uint64_t(i));
        co_await ctx.send(1, 2);  // round marker
        co_await ctx.recv(3, 1);  // drained
      } else {
        co_await ctx.recv(2, 0);
        for (int i = 0; i < kDepth; ++i)
          got.push_back((co_await ctx.recv(1, 0)).word(0));
        co_await ctx.send(0, 3);
        if (round == kWarmRounds - 1) warm_at = test::g_heap_allocs;
      }
    }
    if (ctx.proc() == 1) done_at = test::g_heap_allocs;
  });
  sched.run();
  ASSERT_EQ(got.size(), std::size_t(kDepth * kRounds));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], i % kDepth);
  EXPECT_EQ(done_at - warm_at, 0u);
}

TEST(Runtime, SpawnedTasksInterleaveOnOneCpu) {
  Scheduler sched(cfg({6, 0, 1, 1}));
  std::vector<int> trace;
  sched.set_program([&](Ctx ctx) -> Task {
    ctx.spawn([](Ctx c, std::vector<int>& t) -> Task {
      t.push_back(1);
      co_await c.compute(10);
      t.push_back(2);
    }(ctx, trace));
    ctx.spawn([](Ctx c, std::vector<int>& t) -> Task {
      t.push_back(3);
      co_await c.compute(10);
      t.push_back(4);
    }(ctx, trace));
    co_return;
  });
  // One CPU: the first task's compute occupies [0,10) before the second
  // task is ever resumed; computations serialize.
  EXPECT_EQ(sched.run(), 20);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Runtime, NestedTasksRunOnSameProcessor) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  Cycles t_after = -1;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() != 0) co_return;
    co_await [](Ctx c) -> Task {
      co_await c.compute(4);
      co_await [](Ctx c2) -> Task { co_await c2.compute(6); }(c);
    }(ctx);
    t_after = ctx.now();
  });
  sched.run();
  EXPECT_EQ(t_after, 10);
}

TEST(Runtime, ExceptionInTaskPropagatesFromRun) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  sched.set_program([&](Ctx ctx) -> Task {
    co_await ctx.compute(3);
    if (ctx.proc() == 1) throw std::runtime_error("boom");
  });
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Runtime, ExceptionFromChildTaskReachesParent) {
  Scheduler sched(cfg({6, 2, 4, 1}));
  bool caught = false;
  sched.set_program([&](Ctx ctx) -> Task {
    try {
      co_await [](Ctx c) -> Task {
        co_await c.compute(1);
        throw std::logic_error("child");
      }(ctx);
    } catch (const std::logic_error&) {
      caught = true;
    }
  });
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Runtime, DeadlockIsDetected) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) (void)co_await ctx.recv(123);  // nobody sends
  });
  EXPECT_THROW(sched.run(), DeadlockError);
}

TEST(Runtime, SleepUntilWakesOnTime) {
  Scheduler sched(cfg({6, 2, 4, 1}));
  Cycles woke = -1;
  sched.set_program([&](Ctx ctx) -> Task {
    co_await ctx.sleep_until(37);
    woke = ctx.now();
  });
  sched.run();
  EXPECT_EQ(woke, 37);
}

TEST(Runtime, SleeperDoesNotBlockOtherTasks) {
  Scheduler sched(cfg({6, 2, 4, 1}));
  Cycles compute_done = -1;
  sched.set_program([&](Ctx ctx) -> Task {
    ctx.spawn([](Ctx c, Cycles& done) -> Task {
      co_await c.compute(10);
      done = c.now();
    }(ctx, compute_done));
    co_await ctx.sleep_until(100);
  });
  sched.run();
  EXPECT_EQ(compute_done, 10);  // ran during the sleep
}

TEST(Runtime, HandlerRunsAndSpawnsReply) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  sched.set_handler(55, [](Ctx ctx, const Message& m) {
    ctx.spawn([](Ctx c, ProcId to, std::uint64_t v) -> Task {
      co_await c.send(to, 56, v * 2);
    }(ctx, m.src, m.word(0)));
  });
  std::uint64_t reply = 0;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await ctx.send(1, 55, 21);
      reply = (co_await ctx.recv(56, 1)).word(0);
    }
  });
  sched.run();
  EXPECT_EQ(reply, 42u);
}

TEST(Runtime, ManyProcessorsAllFinish) {
  constexpr int P = 64;
  Scheduler sched(cfg({10, 2, 3, P}));
  std::vector<int> done(P, 0);
  sched.set_program([&](Ctx ctx) -> Task {
    // Ring ping: send right, receive from left.
    const ProcId p = ctx.proc();
    co_await ctx.send((p + 1) % P, 5, static_cast<std::uint64_t>(p));
    const Message m = co_await ctx.recv(5, (p - 1 + P) % P);
    EXPECT_EQ(m.word(0), static_cast<std::uint64_t>((p - 1 + P) % P));
    done[static_cast<std::size_t>(p)] = 1;
  });
  sched.run();
  EXPECT_EQ(std::accumulate(done.begin(), done.end(), 0), P);
}

TEST(Bulk, RoundTripsWordsExactly) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  std::vector<std::uint64_t> sent(257);
  std::iota(sent.begin(), sent.end(), 1000u);
  std::vector<std::uint64_t> got;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await send_bulk(ctx, 1, 77, sent, 3);
    } else {
      co_await recv_bulk(ctx, 77, 0, &got);
    }
  });
  sched.run();
  EXPECT_EQ(got, sent);
}

TEST(Bulk, SurvivesLatencyReordering) {
  sim::MachineConfig c = cfg({40, 1, 2, 2});
  c.latency_min = 2;
  c.seed = 31337;
  Scheduler sched(std::move(c));
  std::vector<std::uint64_t> sent(100);
  std::iota(sent.begin(), sent.end(), 5u);
  std::vector<std::uint64_t> got;
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await send_bulk(ctx, 1, 9, sent, 2);
    } else {
      co_await recv_bulk(ctx, 9, 0, &got);
    }
  });
  sched.run();
  EXPECT_EQ(got, sent);
}

TEST(Bulk, EmptyTransfer) {
  Scheduler sched(cfg({6, 2, 4, 2}));
  std::vector<std::uint64_t> got{1, 2, 3};
  sched.set_program([&](Ctx ctx) -> Task {
    if (ctx.proc() == 0) {
      co_await send_bulk(ctx, 1, 8, {}, 3);
    } else {
      co_await recv_bulk(ctx, 8, 0, &got);
    }
  });
  sched.run();
  EXPECT_TRUE(got.empty());
}

TEST(Bulk, TwoSourcesSameTagDoNotMix) {
  Scheduler sched(cfg({6, 1, 2, 3}));
  std::vector<std::uint64_t> a{1, 2, 3, 4, 5}, b{9, 8, 7};
  std::vector<std::uint64_t> got_a, got_b;
  sched.set_program([&](Ctx ctx) -> Task {
    switch (ctx.proc()) {
      case 0:
        co_await send_bulk(ctx, 2, 4, a, 2);
        break;
      case 1:
        co_await send_bulk(ctx, 2, 4, b, 2);
        break;
      default:
        co_await recv_bulk(ctx, 4, 0, &got_a);
        co_await recv_bulk(ctx, 4, 1, &got_b);
    }
  });
  sched.run();
  EXPECT_EQ(got_a, a);
  EXPECT_EQ(got_b, b);
}

}  // namespace
}  // namespace logp::runtime
