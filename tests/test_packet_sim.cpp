// Pins the packet-level network simulator's three core contracts:
//
//  * Zero allocation on the hot path: pooled packet slots recycle (no growth
//    after warmup) and pre-reserved capacities absorb 4x the workload with
//    O(1) extra allocations (counted by a replacement operator new).
//  * Golden byte-identity: results are bit-for-bit reproducible. The golden
//    values below were captured under the canonical (time, injection-id)
//    event order — they pin today's trajectory against accidental change.
//  * Kernel invariance: the SIMD kernels and their scalar references (and
//    the batch window kernel and its strictly-ordered faulted reference)
//    must produce byte-identical results AND telemetry for every traffic
//    pattern x topology pair.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "fault/fault.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "util/simd.hpp"

// ---- Counting allocator guard (this TU is its own test binary) ----------

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace logp::net {
namespace {

PacketSimConfig golden_config(TrafficPattern p) {
  PacketSimConfig cfg;
  cfg.pattern = p;
  cfg.injection_rate = 0.02;
  cfg.duration = 10000;
  return cfg;
}

TEST(PacketSim, FreelistRecyclesDeliveredSlots) {
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.duration = 40000;  // long churn: many generations through the pool
  const auto r = run_packet_sim(*topo, cfg);
  // Slots are created only when the freelist is empty, so the store's size
  // is exactly the peak number of simultaneously in-flight packets...
  EXPECT_EQ(r.pool_slots, r.peak_in_flight);
  // ...which is far below the packet count: delivered slots were recycled.
  EXPECT_GT(r.injected, 10000);
  EXPECT_LT(r.pool_slots, r.injected / 10);
}

TEST(PacketSim, PoolDoesNotGrowAfterWarmup) {
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.injection_rate = 0.02;
  // Same load, 4x the duration: 4x the packets must reuse the same
  // steady-state slot population (peak concurrency is load-bound, not
  // duration-bound). Allow slack for the tail of the arrival distribution.
  PacketSimConfig cfg4 = cfg;
  cfg4.duration = 4 * cfg.duration;
  const auto r1 = run_packet_sim(*topo, cfg);
  const auto r4 = run_packet_sim(*topo, cfg4);
  EXPECT_GT(r4.injected, 3 * r1.injected);
  EXPECT_LT(r4.pool_slots, 2 * r1.pool_slots);
}

TEST(PacketSim, SteadyStateIsAllocationFree) {
  // Every hot-path container pre-reserves from the config's capacity bound,
  // so quadrupling the workload must not add more than a handful of
  // allocations (fixed per-run setup is identical in both). kNeighbor keeps
  // the route/link working set constant across durations.
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kNeighbor;
  cfg.injection_rate = 0.02;
  cfg.duration = 10000;
  PacketSimConfig cfg4 = cfg;
  cfg4.duration = 4 * cfg.duration;
  (void)run_packet_sim(*topo, cfg);  // warm anything lazy outside the sim
  const long long before1 = g_allocs.load();
  (void)run_packet_sim(*topo, cfg);
  const long long a1 = g_allocs.load() - before1;
  const long long before4 = g_allocs.load();
  (void)run_packet_sim(*topo, cfg4);
  const long long a4 = g_allocs.load() - before4;
  EXPECT_LE(a4, a1 + 8) << "4x duration should not grow hot-path buffers";
  // And the per-run allocation budget itself is fixed-size setup, far from
  // the O(packets) of a per-packet-allocating implementation.
  EXPECT_LT(a4, 200);

  // The faulted steady state honours the same bound: the verdict staging
  // tile, the batch-kernel survivor scratch and the radix-sort ping-pong
  // buffers are all reserved up front, so 4x the drops/retries/degraded
  // traffic must not allocate either.
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.corrupt_rate = 0.005;
  plan.retry_timeout = 4 * lookahead(cfg);
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 1, 0, cfg4.duration, 3});
  PacketSimConfig fcfg = cfg;
  fcfg.faults = &plan;
  PacketSimConfig fcfg4 = cfg4;
  fcfg4.faults = &plan;
  (void)run_packet_sim(*topo, fcfg);
  const long long beforef1 = g_allocs.load();
  (void)run_packet_sim(*topo, fcfg);
  const long long f1 = g_allocs.load() - beforef1;
  const long long beforef4 = g_allocs.load();
  const auto rf4 = run_packet_sim(*topo, fcfg4);
  const long long f4 = g_allocs.load() - beforef4;
  EXPECT_GT(rf4.dropped + rf4.corrupted, 0)
      << "the plan must actually fire for this to test the faulted path";
  EXPECT_LE(f4, f1 + 8) << "faulted 4x duration should not grow buffers";
  EXPECT_LT(f4, 240);
}

struct Golden {
  std::int64_t injected;
  std::int64_t delivered;
  bool saturated;
  double mean, variance, min, max, p95;
};

/// Captured under the canonical (time, injection-id) event order (torus
/// 8x8, rate 0.02, duration 10000, default seed). Exact doubles: the
/// simulator is integer-cycle arithmetic plus a fixed-order deterministic
/// accumulation, so any drift — including from the reduction's replay — is
/// a bug, not noise.
const Golden kGolden[] = {
    {15204, 12737, false, 0x1.b339aa9613c96p+5, 0x1.1012a7b069c8dp+9,
     0x1.8p+3, 0x1.44p+7, 0x1.7e242c14e1784p+6},  // uniform
    {15223, 12668, false, 0x1.307daa9e9931p+7, 0x1.d0a45f3a44308p+13,
     0x1.8p+3, 0x1.8ap+9, 0x1.9ba5999999996p+8},  // transpose
    {15223, 12634, false, 0x1.51ae228c55951p+7, 0x1.952716ef8d04ap+14,
     0x1.8p+3, 0x1.eb8p+9, 0x1.fd66666666663p+8},  // bit-reverse
    {15223, 12672, false, 0x1.e9b008ba5bad9p+3, 0x1.0d55118afa752p+5,
     0x1.8p+3, 0x1.08p+6, 0x1.04e4c759acc86p+5},  // neighbor
    {15383, 11926, false, 0x1.d1a50d0168e53p+9, 0x1.0bdea69976c85p+22,
     0x1.8p+3, 0x1.33ap+13, 0x1.86e199999999p+12},  // hotspot
};

const TrafficPattern kPatterns[] = {
    TrafficPattern::kUniform, TrafficPattern::kTranspose,
    TrafficPattern::kBitReverse, TrafficPattern::kNeighbor,
    TrafficPattern::kHotspot};

TEST(PacketSim, ByteIdenticalToGoldenRunPerPattern) {
  const auto topo = make_mesh2d(8, 8, true);
  for (std::size_t i = 0; i < std::size(kPatterns); ++i) {
    SCOPED_TRACE(traffic_pattern_name(kPatterns[i]));
    const auto r = run_packet_sim(*topo, golden_config(kPatterns[i]));
    const Golden& g = kGolden[i];
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.delivered, g.delivered);
    EXPECT_EQ(r.saturated, g.saturated);
    // None of these golden runs hits the drain limit, and no fault plan is
    // attached: the truncation/fault surface must stay all-zero.
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.undrained, 0);
    EXPECT_EQ(r.dropped, 0);
    EXPECT_EQ(r.corrupted, 0);
    EXPECT_EQ(r.retransmitted, 0);
    EXPECT_EQ(r.lost, 0);
    EXPECT_EQ(r.latency.mean(), g.mean);
    EXPECT_EQ(r.latency.variance(), g.variance);
    EXPECT_EQ(r.latency.min(), g.min);
    EXPECT_EQ(r.latency.max(), g.max);
    EXPECT_EQ(r.p95_latency, g.p95);
  }
}

/// Full-surface equality: every result field plus the complete telemetry
/// (per-link rows in id order and the sampled in-flight series).
void expect_identical(const PacketSimResult& a, const obs::NetTelemetry& ta,
                      const PacketSimResult& b, const obs::NetTelemetry& tb) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.undrained, b.undrained);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.retransmitted, b.retransmitted);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
  EXPECT_EQ(a.pool_slots, b.pool_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.variance(), b.latency.variance());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(ta.horizon, tb.horizon);
  ASSERT_EQ(ta.links.size(), tb.links.size());
  for (std::size_t i = 0; i < ta.links.size(); ++i) {
    const auto& la = ta.links[i];
    const auto& lb = tb.links[i];
    EXPECT_EQ(la.u, lb.u) << "link " << i;
    EXPECT_EQ(la.v, lb.v) << "link " << i;
    EXPECT_EQ(la.channels, lb.channels) << "link " << i;
    EXPECT_EQ(la.packets, lb.packets) << "link " << i;
    EXPECT_EQ(la.busy, lb.busy) << "link " << i;
    EXPECT_EQ(la.queue_wait, lb.queue_wait) << "link " << i;
    EXPECT_EQ(la.max_queue_wait, lb.max_queue_wait) << "link " << i;
    EXPECT_EQ(la.max_backlog, lb.max_backlog) << "link " << i;
    EXPECT_EQ(la.drops, lb.drops) << "link " << i;
    EXPECT_EQ(la.retransmits, lb.retransmits) << "link " << i;
    EXPECT_EQ(la.reroutes, lb.reroutes) << "link " << i;
  }
  ASSERT_EQ(ta.reroutes.size(), tb.reroutes.size());
  for (std::size_t i = 0; i < ta.reroutes.size(); ++i) {
    EXPECT_EQ(ta.reroutes[i].first, tb.reroutes[i].first)
        << "reroute sample " << i;
    EXPECT_EQ(ta.reroutes[i].second, tb.reroutes[i].second)
        << "reroute sample " << i;
  }
  ASSERT_EQ(ta.dead_links.size(), tb.dead_links.size());
  for (std::size_t i = 0; i < ta.dead_links.size(); ++i) {
    EXPECT_EQ(ta.dead_links[i].second, tb.dead_links[i].second)
        << "dead-link sample " << i;
  }
  ASSERT_EQ(ta.retransmits.size(), tb.retransmits.size());
  for (std::size_t i = 0; i < ta.retransmits.size(); ++i) {
    EXPECT_EQ(ta.retransmits[i].first, tb.retransmits[i].first)
        << "retx sample " << i;
    EXPECT_EQ(ta.retransmits[i].second, tb.retransmits[i].second)
        << "retx sample " << i;
  }
  ASSERT_EQ(ta.in_flight.size(), tb.in_flight.size());
  for (std::size_t i = 0; i < ta.in_flight.size(); ++i) {
    EXPECT_EQ(ta.in_flight[i].first, tb.in_flight[i].first) << "sample " << i;
    EXPECT_EQ(ta.in_flight[i].second, tb.in_flight[i].second)
        << "sample " << i;
  }
}

/// Runs a faulted config with `telem` and a fresh metrics registry attached,
/// SIMD on (faulted windows on the batch kernel) or forced scalar (on the
/// strictly-ordered reference kernel), and proves which kernel ran — a
/// SIMD-on/off comparison is only a batch-vs-reference check if each side
/// really took its own kernel.
PacketSimResult run_faulted_side(const Topology& topo, PacketSimConfig cfg,
                                 bool scalar, obs::NetTelemetry& telem) {
  obs::MetricsRegistry reg;
  cfg.telemetry = &telem;
  cfg.metrics = &reg;
  util::simd::set_force_scalar(scalar);
  const auto r = run_packet_sim(topo, cfg);
  util::simd::set_force_scalar(false);
  const std::int64_t ordered =
      reg.counter("net.kernel.scalar_windows")->value();
  const std::int64_t batch =
      reg.counter("net.kernel.faulted_simd_windows")->value();
  if (scalar) {
    EXPECT_GT(ordered, 0) << "forced scalar must walk the ordered kernel";
    EXPECT_EQ(batch, 0) << "forced scalar must never reach the batch kernel";
  } else {
    EXPECT_EQ(ordered, 0) << "the ordered kernel is the scalar reference only";
    EXPECT_GT(batch, 0) << "faulted windows must take the batch kernel";
  }
  return r;
}

/// Runs a faulted config SIMD-on and forced-scalar through run_faulted_side
/// and expects byte-identical results and telemetry. Returns the SIMD side's
/// result so a case can prove its faults actually fired.
PacketSimResult expect_faulted_sides_identical(const Topology& topo,
                                               const PacketSimConfig& cfg) {
  obs::NetTelemetry telem_on;
  telem_on.sample_every = 500;
  const auto on = run_faulted_side(topo, cfg, false, telem_on);
  obs::NetTelemetry telem_off;
  telem_off.sample_every = 500;
  const auto off = run_faulted_side(topo, cfg, true, telem_off);
  expect_identical(on, telem_on, off, telem_off);
  return on;
}

TEST(PacketSim, SaturationFlagStableAcrossIdenticalRuns) {
  // Hotspot traffic at an aggressive rate with a tight drain limit: the run
  // saturates mid-flight (events parked past the drain limit), and the flag,
  // every counter and the telemetry horizon must agree across runs.
  const auto topo = make_mesh2d(8, 8, false);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.injection_rate = 0.1;
  cfg.duration = 15000;
  cfg.drain_limit = 60000;
  PacketSimConfig cfg_a = cfg;
  obs::NetTelemetry telem_a;
  telem_a.sample_every = 500;
  cfg_a.telemetry = &telem_a;
  const auto a = run_packet_sim(*topo, cfg_a);
  PacketSimConfig cfg_b = cfg;
  obs::NetTelemetry telem_b;
  telem_b.sample_every = 500;
  cfg_b.telemetry = &telem_b;
  const auto b = run_packet_sim(*topo, cfg_b);
  EXPECT_TRUE(a.saturated);
  // Giving up the drain is exactly what `truncated` reports, and the packets
  // still parked past the limit are the undrained count. `delivered` only
  // counts in-window deliveries while undrained complements deliveries at
  // *any* time, so injected - delivered (which also includes drain-phase
  // deliveries) bounds it from above.
  EXPECT_TRUE(a.truncated);
  EXPECT_GT(a.undrained, 0);
  EXPECT_LE(a.undrained, a.injected - a.delivered);
  expect_identical(a, telem_a, b, telem_b);
}

TEST(PacketSim, IdenticalRunsBitForBit) {
  const auto topo = make_hypercube(64);
  for (const auto pat : kPatterns) {
    SCOPED_TRACE(traffic_pattern_name(pat));
    const auto a = run_packet_sim(*topo, golden_config(pat));
    const auto b = run_packet_sim(*topo, golden_config(pat));
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.latency.variance(), b.latency.variance());
    EXPECT_EQ(a.p95_latency, b.p95_latency);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.pool_slots, b.pool_slots);
  }
}

TEST(PacketSim, SimdOnOffByteIdenticalEverywhere) {
  // The vector kernels must be invisible: forcing every kernel through its
  // scalar reference has to reproduce the SIMD run bit-for-bit — full
  // result surface plus telemetry — for every pattern x topology pair.
  // These runs carry no fault plan, so no vector kernel runs on either side
  // (decide_hash_u64, the only one, hashes fault verdicts): this pins that
  // the switch itself perturbs nothing on the fault-free path.
  // FatTree4(64, 2) is the load-bearing topology: its multi-channel links
  // exercise the first-minimum channel arbitration (and its equal-cycle
  // tie-break).
  struct Case {
    const char* name;
    std::unique_ptr<Topology> topo;
  };
  Case cases[3];
  cases[0] = {"torus8x8", make_mesh2d(8, 8, true)};
  cases[1] = {"butterfly32", make_butterfly(32)};
  cases[2] = {"fattree64t2", make_fat_tree4(64, 2)};
  for (const auto& c : cases) {
    for (const auto pat : kPatterns) {
      SCOPED_TRACE(std::string(c.name) + "/" + traffic_pattern_name(pat));
      const PacketSimConfig base = golden_config(pat);
      PacketSimConfig cfg_on = base;
      obs::NetTelemetry telem_on;
      telem_on.sample_every = 500;
      cfg_on.telemetry = &telem_on;
      util::simd::set_force_scalar(false);
      const auto on = run_packet_sim(*c.topo, cfg_on);
      PacketSimConfig cfg_off = base;
      obs::NetTelemetry telem_off;
      telem_off.sample_every = 500;
      cfg_off.telemetry = &telem_off;
      util::simd::set_force_scalar(true);
      const auto off = run_packet_sim(*c.topo, cfg_off);
      util::simd::set_force_scalar(false);
      expect_identical(on, telem_on, off, telem_off);
    }
  }
}

TEST(PacketSim, SimdOnOffByteIdenticalUnderActiveFaultPlan) {
  // Same invariant under a fault plan, where it pins the batch kernel
  // against its strictly-ordered reference: drops, corruption, retries and
  // a degraded link must not perturb byte-identity between the SIMD side
  // (batch verdicts, survivor chains) and the forced-scalar side (one event
  // at a time in canonical order). Forcing scalar does more than pick the
  // scalar hash: it moves every faulted window onto the ordered reference
  // kernel, which no build configuration selects on its own.
  {
    SCOPED_TRACE("fattree64t2");
    const auto topo = make_fat_tree4(64, 2);
    fault::FaultPlan plan;
    plan.drop_rate = 0.05;
    plan.corrupt_rate = 0.02;
    plan.retry_timeout = 64;
    plan.max_retries = 3;
    plan.link_faults.push_back({0, 64, 2000, 6000, 4});
    PacketSimConfig base = golden_config(TrafficPattern::kUniform);
    base.faults = &plan;
    const auto on = expect_faulted_sides_identical(*topo, base);
    EXPECT_GT(on.dropped + on.corrupted, 0);
  }
  {
    // fig_fault_degradation's harshest cell: 10% loss at the grid's top
    // load on the 8x8 torus, up to six retries, over the bench's full
    // 30000-cycle run. Retransmits keep the batch kernel's verdict hashing
    // busy in every window of a long, congested run.
    SCOPED_TRACE("torus8x8 drop 0.1 load 0.08");
    const auto topo = make_mesh2d(8, 8, true);
    PacketSimConfig base;
    base.duration = 30000;
    base.injection_rate = 0.08;
    fault::FaultPlan plan;
    plan.drop_rate = 0.1;
    plan.retry_timeout = 4 * lookahead(base);
    plan.max_retries = 6;
    base.faults = &plan;
    const auto on = expect_faulted_sides_identical(*topo, base);
    EXPECT_GT(on.dropped, 0);
    EXPECT_GT(on.retransmitted, 0);
  }
}

TEST(PacketSim, SimdOnOffByteIdenticalPerFaultType) {
  // The batch verdict kernel has one code path per misfortune family
  // (hashed drop, hashed corrupt, targeted first-attempt drop, dead link,
  // degraded link, injection jitter, retransmit pressure). Exercise each in
  // isolation and pin batch-vs-ordered (SIMD-on/off) byte-identity per
  // family, with a counter proof that the family actually fired — a plan
  // that never triggers would make the identity check vacuous.
  const auto topo = make_fat_tree4(64, 2);
  struct Case {
    const char* name;
    fault::FaultPlan plan;
    // Which result fields must be non-zero for the case to count.
    bool wants_dropped = false;
    bool wants_corrupted = false;
    bool wants_retransmitted = false;
    bool wants_perturbed = false;  // latency must differ from the clean run
  };
  Case cases[7];
  cases[0].name = "drop_only";
  cases[0].plan.drop_rate = 0.05;
  cases[0].wants_dropped = true;
  cases[1].name = "corrupt_only";
  cases[1].plan.corrupt_rate = 0.04;
  cases[1].wants_corrupted = true;
  cases[2].name = "targeted_drop_packets";
  cases[2].plan.drop_packets = {5, 50, 500, 5000};
  cases[2].wants_dropped = true;
  cases[3].name = "link_kill_interval";
  cases[3].plan.link_faults.push_back({0, 64, 1000, 9000, 0});
  cases[3].wants_dropped = true;
  cases[4].name = "link_degrade_interval";
  cases[4].plan.link_faults.push_back({0, 64, 1000, 9000, 4});
  cases[4].wants_perturbed = true;
  cases[5].name = "injection_jitter";
  cases[5].plan.max_injection_delay = 37;
  cases[5].wants_perturbed = true;
  cases[6].name = "retransmit_flood";
  cases[6].plan.drop_rate = 0.35;
  cases[6].plan.max_retries = 6;
  cases[6].wants_dropped = true;
  cases[6].wants_retransmitted = true;
  const auto clean =
      run_packet_sim(*topo, golden_config(TrafficPattern::kUniform));
  for (auto& c : cases) {
    PacketSimConfig probe = golden_config(TrafficPattern::kUniform);
    c.plan.retry_timeout = 8 * lookahead(probe);
    if (c.plan.max_retries == 0) c.plan.max_retries = 3;
    SCOPED_TRACE(c.name);
    PacketSimConfig base = golden_config(TrafficPattern::kUniform);
    base.faults = &c.plan;
    const auto on = expect_faulted_sides_identical(*topo, base);
    if (c.wants_dropped) {
      EXPECT_GT(on.dropped, 0);
    }
    if (c.wants_corrupted) {
      EXPECT_GT(on.corrupted, 0);
    }
    if (c.wants_retransmitted) {
      EXPECT_GT(on.retransmitted, 0);
    }
    if (c.wants_perturbed) {
      EXPECT_NE(on.latency.mean(), clean.latency.mean())
          << "plan should perturb timing even without losses";
    }
  }
}

TEST(PacketSim, LookaheadMatchesPerHopServiceTime) {
  PacketSimConfig cfg;
  cfg.hop_delay = 3;
  cfg.phits = 7;
  // The engine's causality window: no event can influence another less than
  // one full hop (routing + serialization) in the future.
  EXPECT_EQ(lookahead(cfg), 10);
  EXPECT_EQ(unloaded_packet_time(cfg, 1.0),
            static_cast<double>(lookahead(cfg)));
}

// ---- Fault-aware rerouting (PacketSimConfig::reroute) --------------------

TEST(PacketSim, RerouteDetoursAroundKilledLinkAndHealsBack) {
  // Hotspot traffic on an open 4x4 mesh funnels through the two links into
  // node 0; killing (1, 0) mid-run strands the upstream backlog of packets
  // that committed their route before the outage (injections during the
  // outage are born onto the detour and never touch the dead link). With a
  // retry budget far too small to outlive the outage, those packets are
  // lost without rerouting; with it, the first retry recommits to the BFS
  // detour around the dead link and delivers.
  const auto topo = make_mesh2d(4, 4, false);
  PacketSimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.injection_rate = 0.05;
  cfg.duration = 10000;
  fault::FaultPlan plan;
  plan.retry_timeout = 2 * lookahead(cfg);
  plan.max_retries = 3;
  plan.link_faults.push_back({1, 0, 2000, 9000, 0});
  cfg.faults = &plan;

  obs::NetTelemetry telem_off;
  telem_off.sample_every = 500;
  PacketSimConfig off = cfg;
  off.telemetry = &telem_off;
  const auto r_off = run_packet_sim(*topo, off);
  EXPECT_GT(r_off.lost, 0) << "retries must exhaust inside the outage";
  EXPECT_EQ(r_off.rerouted, 0);
  EXPECT_TRUE(telem_off.reroutes.empty())
      << "reroute series stays empty without the flag";
  EXPECT_TRUE(telem_off.dead_links.empty());

  obs::NetTelemetry telem_on;
  telem_on.sample_every = 500;
  PacketSimConfig on = cfg;
  on.telemetry = &telem_on;
  on.reroute = true;
  const auto r_on = run_packet_sim(*topo, on);
  EXPECT_GT(r_on.rerouted, 0);
  EXPECT_LT(r_on.lost, r_off.lost);
  // Workload is untouched by the route choice.
  EXPECT_EQ(r_on.injected, r_off.injected);
  // Rerouting converts losses into (possibly late) deliveries. The detour
  // squeezes everything through the surviving link into node 0, so the
  // windowed goodput can dip below the no-reroute run — which sheds load by
  // losing packets — but end-to-end completions must strictly improve.
  const std::int64_t done_on = r_on.injected - r_on.lost - r_on.undrained;
  const std::int64_t done_off = r_off.injected - r_off.lost - r_off.undrained;
  EXPECT_GT(done_on, done_off);

  // The sampled reroute series is cumulative and ends at the result total;
  // the dead-link series overlays the configured outage exactly.
  ASSERT_FALSE(telem_on.reroutes.empty());
  EXPECT_EQ(telem_on.reroutes.back().second, r_on.rerouted);
  for (std::size_t i = 1; i < telem_on.reroutes.size(); ++i)
    EXPECT_GE(telem_on.reroutes[i].second, telem_on.reroutes[i - 1].second);
  ASSERT_FALSE(telem_on.dead_links.empty());
  for (const auto& [t, n] : telem_on.dead_links)
    EXPECT_EQ(n, (t >= 2000 && t < 9000) ? 1 : 0) << "at t=" << t;

  // Per-link attribution: no corruption in the plan, so every reroute (and
  // every retransmit) is charged to the link that dropped the attempt.
  std::int64_t link_reroutes = 0, link_retransmits = 0, link_drops = 0;
  for (const auto& l : telem_on.links) {
    link_reroutes += l.reroutes;
    link_retransmits += l.retransmits;
    link_drops += l.drops;
  }
  EXPECT_EQ(link_reroutes, r_on.rerouted);
  EXPECT_EQ(link_retransmits, r_on.retransmitted);
  EXPECT_EQ(link_drops, r_on.dropped);
}

TEST(PacketSim, RerouteByteIdenticalAcrossSimd) {
  // The recovery figure's contract: a kill/heal run with rerouting engaged
  // is byte-identical — full result surface plus telemetry, including the
  // reroute and dead-link series — across repeat runs and between the batch
  // kernel (SIMD on) and its strictly-ordered reference (forced scalar).
  const auto topo = make_hypercube(32);
  PacketSimConfig base;
  base.injection_rate = 0.02;
  base.duration = 10000;
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;  // background noise on top of the outage
  plan.retry_timeout = 4 * lookahead(base);
  plan.max_retries = 5;
  plan.link_faults.push_back({0, 1, 1000, 6000, 0});
  plan.link_faults.push_back({32, 33, 2000, 8000, 0});
  base.faults = &plan;
  base.reroute = true;

  obs::NetTelemetry ref_telem;
  ref_telem.sample_every = 250;
  PacketSimConfig ref_cfg = base;
  ref_cfg.telemetry = &ref_telem;
  const auto ref = run_packet_sim(*topo, ref_cfg);
  EXPECT_GT(ref.rerouted, 0);

  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "simd");
    obs::NetTelemetry telem;
    telem.sample_every = 250;
    const auto r = run_faulted_side(*topo, base, scalar, telem);
    expect_identical(ref, ref_telem, r, telem);
  }
}

TEST(PacketSim, RerouteFlagIsInertWithoutKillIntervals) {
  // Degraded (slow but live) links give the router nothing to route
  // around: the flag must not perturb the run in any observable way.
  const auto topo = make_mesh2d(8, 8, true);
  PacketSimConfig cfg = golden_config(TrafficPattern::kUniform);
  fault::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.retry_timeout = 4 * lookahead(cfg);
  plan.max_retries = 4;
  plan.link_faults.push_back({0, 1, 1000, 9000, 3});  // degrade, not kill
  cfg.faults = &plan;
  obs::NetTelemetry telem_off;
  telem_off.sample_every = 500;
  PacketSimConfig off = cfg;
  off.telemetry = &telem_off;
  const auto r_off = run_packet_sim(*topo, off);
  obs::NetTelemetry telem_on;
  telem_on.sample_every = 500;
  PacketSimConfig on = cfg;
  on.telemetry = &telem_on;
  on.reroute = true;
  const auto r_on = run_packet_sim(*topo, on);
  EXPECT_EQ(r_on.rerouted, 0);
  expect_identical(r_off, telem_off, r_on, telem_on);
}

}  // namespace
}  // namespace logp::net
