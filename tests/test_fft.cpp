#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>

#include "algo/fft.hpp"
#include "core/params.hpp"
#include "util/rng.hpp"

namespace logp::algo {
namespace {

namespace coll = runtime::coll;

// Naive O(n^2) DFT for ground truth.
std::vector<std::complex<double>> dft(
    const std::vector<std::complex<double>>& a) {
  const auto n = static_cast<std::int64_t>(a.size());
  std::vector<std::complex<double>> out(a.size());
  for (std::int64_t k = 0; k < n; ++k) {
    std::complex<double> acc{0, 0};
    for (std::int64_t t = 0; t < n; ++t) {
      const double th = -2.0 * std::numbers::pi * double(k) * double(t) /
                        double(n);
      acc += a[static_cast<std::size_t>(t)] *
             std::complex<double>{std::cos(th), std::sin(th)};
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

TEST(SerialFft, MatchesNaiveDft) {
  util::Xoshiro256StarStar rng(1);
  std::vector<std::complex<double>> a(64);
  for (auto& v : a) v = {rng.uniform01(), rng.uniform01()};
  const auto expect = dft(a);
  auto got = a;
  fft_dif(got);
  bit_reverse_permute(got);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_LT(std::abs(got[i] - expect[i]), 1e-9) << i;
}

// The loop fft_dif had before its twiddles were hoisted out of the block
// loop: one cos/sin pair per butterfly, evaluated exactly as twiddle() does.
void fft_dif_per_butterfly(std::vector<std::complex<double>>& a) {
  const auto n = static_cast<std::int64_t>(a.size());
  for (std::int64_t half = n / 2; half >= 1; half /= 2) {
    for (std::int64_t base = 0; base < n; base += 2 * half) {
      for (std::int64_t j = 0; j < half; ++j) {
        const double theta = -2.0 * std::numbers::pi *
                             static_cast<double>(j) /
                             static_cast<double>(2 * half);
        auto& u = a[static_cast<std::size_t>(base + j)];
        auto& v = a[static_cast<std::size_t>(base + j + half)];
        const auto x = u;
        const auto y = v;
        u = x + y;
        v = (x - y) * std::complex<double>{std::cos(theta), std::sin(theta)};
      }
    }
  }
}

TEST(SerialFft, HoistedTwiddlesAreBitIdenticalToPerButterflyLoop) {
  for (int lg = 1; lg <= 16; ++lg) {
    util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(100 + lg));
    std::vector<std::complex<double>> a(std::size_t{1} << lg);
    for (auto& v : a)
      v = {2.0 * rng.uniform01() - 1.0, 2.0 * rng.uniform01() - 1.0};
    auto want = a;
    fft_dif_per_butterfly(want);
    fft_dif(a);
    ASSERT_EQ(std::memcmp(a.data(), want.data(), a.size() * sizeof(a[0])), 0)
        << "n = 2^" << lg;
  }
}

TEST(SerialFft, DeltaGivesAllOnes) {
  std::vector<std::complex<double>> a(16, {0, 0});
  a[0] = {1, 0};
  fft_dif(a);
  for (const auto& v : a) EXPECT_LT(std::abs(v - std::complex<double>{1, 0}), 1e-12);
}

TEST(SerialFft, BitReverseIsInvolution) {
  util::Xoshiro256StarStar rng(2);
  std::vector<std::complex<double>> a(128);
  for (auto& v : a) v = {rng.uniform01(), rng.uniform01()};
  auto b = a;
  bit_reverse_permute(b);
  bit_reverse_permute(b);
  EXPECT_EQ(a, b);
}

TEST(HybridFft, DistributedMatchesSerialBitForBit) {
  for (int P : {4, 8}) {
    for (std::int64_t n : {64, 256, 1024}) {
      if (n < static_cast<std::int64_t>(P) * P) continue;
      const Params prm = Cm5::params(P);
      FftConfig cfg;
      cfg.n = n;
      const auto r = run_hybrid_fft(prm, cfg);  // throws on mismatch
      EXPECT_TRUE(r.verified) << "P=" << P << " n=" << n;
      EXPECT_EQ(r.messages,
                n - n / P);  // one message per remapped point (none to self)
    }
  }
}

TEST(HybridFft, AllSchedulesComputeTheSameAnswer) {
  const Params prm = Cm5::params(4);
  for (const auto s : {coll::A2ASchedule::kNaive, coll::A2ASchedule::kStaggered,
                       coll::A2ASchedule::kSynchronized}) {
    FftConfig cfg;
    cfg.n = 256;
    cfg.schedule = s;
    EXPECT_TRUE(run_hybrid_fft(prm, cfg).verified);
  }
}

// P = 32 with carried data: phase I's strided twiddles (j*P + p over span
// 2*half*P) and phase III's local ones must reproduce fft_dif bit for bit
// under every schedule and with the remap merged into phase I
// (run_hybrid_fft throws on the first differing point).
TEST(HybridFft, CarriedDataMatchesSerialAtP32) {
  const Params prm = Cm5::params(32);
  for (const auto s : {coll::A2ASchedule::kNaive, coll::A2ASchedule::kStaggered,
                       coll::A2ASchedule::kSynchronized}) {
    for (const bool overlap : {false, true}) {
      FftConfig cfg;
      cfg.n = 1 << 12;
      cfg.schedule = s;
      cfg.overlap_remap = overlap;
      EXPECT_TRUE(run_hybrid_fft(prm, cfg).verified)
          << "schedule " << static_cast<int>(s) << " overlap " << overlap;
    }
  }
}

TEST(HybridFft, StaggeredRemapBeatsNaive) {
  const Params prm = Cm5::params(16);
  FftConfig naive, stag;
  naive.n = stag.n = 1 << 12;
  naive.carry_data = stag.carry_data = false;
  naive.schedule = coll::A2ASchedule::kNaive;
  stag.schedule = coll::A2ASchedule::kStaggered;
  const auto rn = run_hybrid_fft(prm, naive);
  const auto rs = run_hybrid_fft(prm, stag);
  // Both compute phases are identical; only the remap differs.
  EXPECT_EQ(rn.phase1_end, rs.phase1_end);
  EXPECT_GT(rn.remap_time(), rs.remap_time());
  EXPECT_GT(rn.stall_cycles, rs.stall_cycles);
}

TEST(HybridFft, CountedModeMatchesCarriedModeTiming) {
  const Params prm = Cm5::params(4);
  FftConfig with, without;
  with.n = without.n = 256;
  without.carry_data = false;
  const auto a = run_hybrid_fft(prm, with);
  const auto b = run_hybrid_fft(prm, without);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.remap_end, b.remap_end);
}

TEST(HybridFft, PredictedRemapTracksSimulated) {
  const Params prm = Cm5::params(8);
  FftConfig cfg;
  cfg.n = 1 << 10;
  cfg.carry_data = false;
  const auto r = run_hybrid_fft(prm, cfg);
  const auto predicted = predicted_remap_time(prm, cfg);
  // The analysis ignores drain interleaving; agreement within 35 percent.
  EXPECT_NEAR(static_cast<double>(r.remap_time()),
              static_cast<double>(predicted),
              0.35 * static_cast<double>(predicted));
}

TEST(HybridFft, PhasesArePurelyLocal) {
  const Params prm = Cm5::params(4);
  FftConfig cfg;
  cfg.n = 256;
  cfg.carry_data = false;
  const auto r = run_hybrid_fft(prm, cfg);
  // Phase I is exactly the analytic compute time: stages * rows/2 * cost.
  const std::int64_t rows = cfg.n / prm.P;
  const int stages1 = 8 - 2;
  EXPECT_EQ(r.phase1_end, stages1 * (rows / 2) * cfg.butterfly_cycles);
}

TEST(HybridFft, OverlapRemapStillCorrect) {
  Params prm = Cm5::params(8);
  prm.o = 8;  // the future machine of Section 4.1.5: o shrinks vs g
  FftConfig cfg;
  cfg.n = 1024;
  cfg.overlap_remap = true;
  EXPECT_TRUE(run_hybrid_fft(prm, cfg).verified);
}

TEST(HybridFft, OverlapHidesComputeWhenOverheadIsSmall) {
  // Section 4.1.5: with o << g, merging the remap into the computation
  // hides the g - 2o idle slots; with the CM-5's large o there is nothing
  // to hide.
  Params small_o = Cm5::params(8);
  small_o.o = 8;
  FftConfig seq, ovl;
  seq.n = ovl.n = 1 << 12;
  seq.carry_data = ovl.carry_data = false;
  ovl.overlap_remap = true;
  const auto rs = run_hybrid_fft(small_o, seq);
  const auto ro = run_hybrid_fft(small_o, ovl);
  EXPECT_LT(ro.total, rs.total);
  // The hidden work is about one stage of phase I.
  const Cycles stage = (ovl.n / small_o.P / 2) * ovl.butterfly_cycles;
  EXPECT_GT(rs.total - ro.total, stage / 2);

  const Params cm5 = Cm5::params(8);  // o = 66: 2o + loadstore > g already
  const auto cs = run_hybrid_fft(cm5, seq);
  const auto co = run_hybrid_fft(cm5, ovl);
  EXPECT_NEAR(static_cast<double>(co.total), static_cast<double>(cs.total),
              0.02 * static_cast<double>(cs.total));
}

TEST(HybridFft, RejectsTooSmallN) {
  const Params prm = Cm5::params(16);
  FftConfig cfg;
  cfg.n = 64;  // < P^2
  EXPECT_THROW(run_hybrid_fft(prm, cfg), util::check_error);
}

TEST(HybridFft, PredictedRateMatchesPaperAsymptote) {
  // Section 4.1.4: the CM-5 remap is overhead-limited and approaches
  // 3.2 MB/s per processor.
  const Params prm = Cm5::params(128);
  FftConfig cfg;
  cfg.n = 1 << 22;
  const double rate =
      predicted_remap_rate_mbs(prm, cfg, Cm5::kTickNs);
  EXPECT_NEAR(rate, 3.2, 0.25);
}

}  // namespace
}  // namespace logp::algo
