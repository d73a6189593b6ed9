#include "algo/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "core/fft_cost.hpp"
#include "runtime/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace logp::algo {

namespace {

using runtime::Ctx;
using runtime::Message;
using runtime::Task;
namespace coll = runtime::coll;

constexpr std::int32_t kFftTag = 400;

/// Twiddle factor W_m^j = exp(-2*pi*i*j/m). Must be the single source of
/// twiddles for both the serial kernel and the distributed phases so that
/// results agree bit-for-bit.
std::complex<double> twiddle(std::int64_t j, std::int64_t m) {
  const double theta =
      -2.0 * std::numbers::pi * static_cast<double>(j) / static_cast<double>(m);
  return {std::cos(theta), std::sin(theta)};
}

/// One DIF stage over a[0, len): the butterfly on (base + j, base + j +
/// half) for every block base and every j < half uses twiddle(j * stride +
/// offset, span). The twiddles depend on j alone, so they are computed once
/// per j, a stack chunk at a time, and reused across every block. The
/// butterflies of one stage touch disjoint pairs, so the result is
/// bit-identical to evaluating twiddle() inside each butterfly.
void dif_stage(std::complex<double>* a, std::int64_t len, std::int64_t half,
               std::int64_t stride, std::int64_t offset, std::int64_t span) {
  constexpr std::int64_t kChunk = 256;
  std::complex<double> w[kChunk];
  for (std::int64_t j0 = 0; j0 < half; j0 += kChunk) {
    const std::int64_t count = std::min(kChunk, half - j0);
    for (std::int64_t k = 0; k < count; ++k)
      w[k] = twiddle((j0 + k) * stride + offset, span);
    for (std::int64_t base = j0; base < len; base += 2 * half) {
      std::complex<double>* u = a + base;
      std::complex<double>* v = u + half;
      for (std::int64_t k = 0; k < count; ++k) {
        const auto x = u[k];
        const auto y = v[k];
        u[k] = x + y;
        v[k] = (x - y) * w[k];
      }
    }
  }
}

}  // namespace

void fft_dif(std::vector<std::complex<double>>& a) {
  const auto n = static_cast<std::int64_t>(a.size());
  LOGP_CHECK(n >= 1 && (n & (n - 1)) == 0);
  for (std::int64_t half = n / 2; half >= 1; half /= 2)
    dif_stage(a.data(), n, half, 1, 0, 2 * half);
}

void bit_reverse_permute(std::vector<std::complex<double>>& a) {
  const auto n = static_cast<std::int64_t>(a.size());
  LOGP_CHECK(n >= 1 && (n & (n - 1)) == 0);
  const int lg = log2_exact(n);
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t r = 0;
    for (int b = 0; b < lg; ++b)
      if (i & (std::int64_t{1} << b)) r |= std::int64_t{1} << (lg - 1 - b);
    if (r > i)
      std::swap(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(r)]);
  }
}

namespace {

struct Shared {
  const FftConfig* cfg;
  Params params;
  std::int64_t rows;      // n/P points per processor
  std::int64_t per_peer;  // n/P^2 points for each destination
  int lg_n, lg_p;
  // carry_data payloads; indexed [proc][local index].
  std::vector<std::vector<std::complex<double>>> cyclic;
  std::vector<std::vector<std::complex<double>>> blocked;
  // Phase completion timestamps per processor.
  std::vector<Cycles> t_phase1, t_remap;
  coll::BarrierState barrier;

  explicit Shared(const Params& p) : barrier(p.P) {}
};

// Phase I on processor p: DIF stages for address bits lg_n-1 .. lg_p over
// the cyclic-local array. Local pair (jl, jl + half_loc); the global twiddle
// index is (jl mod half_loc)*P + p over span 2*half_loc*P.
void phase1_host_compute(Shared& sh, ProcId p) {
  auto& a = sh.cyclic[static_cast<std::size_t>(p)];
  const std::int64_t P = sh.params.P;
  for (std::int64_t half = sh.rows / 2; half >= 1; half /= 2)
    dif_stage(a.data(), sh.rows, half, P, p, 2 * half * P);
}

// Phase III on processor p: DIF stages for bits lg_p-1 .. 0 over the blocked
// array; twiddles are purely local (the block base is a multiple of 2^s+1).
void phase3_host_compute(Shared& sh, ProcId p) {
  auto& a = sh.blocked[static_cast<std::size_t>(p)];
  const std::int64_t first_half = std::int64_t{1} << (sh.lg_p - 1);
  for (std::int64_t half = first_half; half >= 1; half /= 2)
    dif_stage(a.data(), sh.rows, half, 1, 0, 2 * half);
}

Task fft_program(Ctx ctx, Shared& sh) {
  const ProcId p = ctx.proc();
  const int P = ctx.nprocs();
  const FftConfig& cfg = *sh.cfg;
  const Cycles stage_cost = sh.rows / 2 * cfg.butterfly_cycles;

  // ---- Phase I: local computation under the cyclic layout ----
  const int stages1 = sh.lg_n - sh.lg_p;
  if (!cfg.overlap_remap) {
    for (int s = 0; s < stages1; ++s) co_await ctx.compute(stage_cost);
  } else {
    // Section 4.1.5: all but the last stage as usual; the last stage is
    // computed per destination block, each block's messages issued as soon
    // as its share is done so transmissions hide under the remaining work.
    for (int s = 0; s + 1 < stages1; ++s) co_await ctx.compute(stage_cost);
  }
  if (cfg.carry_data) phase1_host_compute(sh, p);
  // With overlap, "phase I" ends before the last stage; the remaining stage
  // is charged inside the remap loop, one destination block at a time.
  sh.t_phase1[static_cast<std::size_t>(p)] = ctx.now();
  // Interleave the deferred stage's work point by point between sends, so
  // it fills the g - 2o slots the port pacing would otherwise leave idle.
  const Cycles overlap_per_point =
      cfg.overlap_remap ? stage_cost / sh.rows : 0;

  // ---- Remap: cyclic -> blocked, one message per point ----
  // Point at cyclic-local jl is global i = jl*P + p and belongs to block
  // owner i / rows; for a fixed destination those jl are contiguous.
  auto send_block = [&](ProcId dst) -> Task {
    const std::int64_t jl0 = static_cast<std::int64_t>(dst) * sh.per_peer;
    for (std::int64_t k = 0; k < sh.per_peer; ++k) {
      const std::int64_t jl = jl0 + k;
      const std::int64_t i = jl * P + p;
      co_await ctx.compute(cfg.loadstore_cycles + overlap_per_point);
      if (dst == p) {
        if (cfg.carry_data)
          sh.blocked[static_cast<std::size_t>(p)]
                    [static_cast<std::size_t>(i % sh.rows)] =
              sh.cyclic[static_cast<std::size_t>(p)]
                       [static_cast<std::size_t>(jl)];
        continue;
      }
      Message m;
      m.dst = dst;
      m.tag = kFftTag;
      m.push_word(static_cast<std::uint64_t>(i));
      if (cfg.carry_data) {
        const auto v = sh.cyclic[static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(jl)];
        m.push_word(std::bit_cast<std::uint64_t>(v.real()));
        m.push_word(std::bit_cast<std::uint64_t>(v.imag()));
      } else {
        m.nwords = 3;
      }
      co_await ctx.send(m);
    }
  };

  // Destination order is the communication schedule (Section 4.1.2).
  int blocks_since_barrier = 0;
  co_await send_block(p);  // own block is a pure local copy
  for (int step = 1; step < P; ++step) {
    const ProcId dst = cfg.schedule == coll::A2ASchedule::kNaive
                           ? static_cast<ProcId>(step - 1 + (step > p ? 1 : 0))
                           : static_cast<ProcId>((p + step) % P);
    co_await send_block(dst);
    if (cfg.schedule == coll::A2ASchedule::kSynchronized &&
        ++blocks_since_barrier >= cfg.barrier_every_blocks) {
      blocks_since_barrier = 0;
      co_await coll::barrier(ctx, sh.barrier);
    }
  }

  // Drain the (P-1)*per_peer incoming points (many are already accepted).
  const std::int64_t expect = static_cast<std::int64_t>(P - 1) * sh.per_peer;
  for (std::int64_t k = 0; k < expect; ++k) {
    const Message m = co_await ctx.recv(kFftTag);
    if (cfg.carry_data) {
      const auto i = static_cast<std::int64_t>(m.word(0));
      sh.blocked[static_cast<std::size_t>(p)]
                [static_cast<std::size_t>(i % sh.rows)] = {
          std::bit_cast<double>(m.word(1)), std::bit_cast<double>(m.word(2))};
    }
  }
  sh.t_remap[static_cast<std::size_t>(p)] = ctx.now();

  // ---- Phase III: local computation under the blocked layout ----
  for (int s = 0; s < sh.lg_p; ++s) co_await ctx.compute(stage_cost);
  if (cfg.carry_data) phase3_host_compute(sh, p);
}

}  // namespace

FftResult run_hybrid_fft(const Params& params, const FftConfig& cfg) {
  params.validate();
  const int lg_n = log2_exact(cfg.n);
  const int lg_p = log2_exact(params.P);
  LOGP_CHECK_MSG(lg_n >= 2 * lg_p, "hybrid FFT requires n >= P^2");

  Shared sh(params);
  sh.cfg = &cfg;
  sh.params = params;
  sh.rows = cfg.n / params.P;
  sh.per_peer = sh.rows / params.P;
  sh.lg_n = lg_n;
  sh.lg_p = lg_p;
  sh.t_phase1.assign(static_cast<std::size_t>(params.P), 0);
  sh.t_remap.assign(static_cast<std::size_t>(params.P), 0);

  std::vector<std::complex<double>> reference;
  if (cfg.carry_data) {
    util::Xoshiro256StarStar rng(cfg.seed);
    reference.resize(static_cast<std::size_t>(cfg.n));
    for (auto& v : reference)
      v = {2.0 * rng.uniform01() - 1.0, 2.0 * rng.uniform01() - 1.0};
    sh.cyclic.resize(static_cast<std::size_t>(params.P));
    sh.blocked.assign(static_cast<std::size_t>(params.P),
                      std::vector<std::complex<double>>(
                          static_cast<std::size_t>(sh.rows)));
    for (ProcId p = 0; p < params.P; ++p) {
      auto& local = sh.cyclic[static_cast<std::size_t>(p)];
      local.resize(static_cast<std::size_t>(sh.rows));
      for (std::int64_t j = 0; j < sh.rows; ++j)
        local[static_cast<std::size_t>(j)] =
            reference[static_cast<std::size_t>(j * params.P + p)];
    }
  }

  sim::MachineConfig mc;
  mc.params = params;
  mc.seed = cfg.seed;
  mc.compute_jitter = cfg.compute_jitter;
  runtime::Scheduler sched(mc);
  sched.set_program([&](Ctx ctx) -> Task { return fft_program(ctx, sh); });

  FftResult result;
  result.total = sched.run();
  result.phase1_end = *std::max_element(sh.t_phase1.begin(), sh.t_phase1.end());
  result.remap_end = *std::max_element(sh.t_remap.begin(), sh.t_remap.end());
  result.messages = sched.machine().total_messages();
  const auto stats = sched.machine().total_stats();
  result.stall_cycles = stats.stall;
  result.gap_wait_cycles = stats.gap_wait;

  if (cfg.carry_data) {
    fft_dif(reference);
    result.verified = true;
    for (ProcId p = 0; p < params.P && result.verified; ++p)
      for (std::int64_t m = 0; m < sh.rows; ++m)
        if (sh.blocked[static_cast<std::size_t>(p)]
                      [static_cast<std::size_t>(m)] !=
            reference[static_cast<std::size_t>(
                static_cast<std::int64_t>(p) * sh.rows + m)]) {
          result.verified = false;
          break;
        }
    LOGP_CHECK_MSG(result.verified,
                   "distributed FFT diverged from the serial reference");
  }
  return result;
}

Cycles predicted_remap_time(const Params& params, const FftConfig& cfg) {
  const std::int64_t per_point =
      std::max(cfg.loadstore_cycles + 2 * params.o, params.g);
  return cfg.n / params.P * per_point + params.L;
}

double predicted_remap_rate_mbs(const Params& params, const FftConfig& cfg,
                                double cycle_ns) {
  const double bytes = 16.0 * static_cast<double>(cfg.n / params.P);
  const double ns =
      static_cast<double>(predicted_remap_time(params, cfg)) * cycle_ns;
  return bytes / ns * 1e3;  // bytes/ns * 1e3 == MB/s
}

}  // namespace logp::algo
