// Pins the kernels of src/util/simd.hpp: the vector hash against its scalar
// reference, the two scalar scans against their specifications. These
// kernels sit inside the packet engine's canonical-order guarantees, so
// exactness — not approximate agreement — is the contract:
//
//  * first_min_index_i64 must return the FIRST index attaining the minimum.
//    This is the LinkTable::earliest channel-arbitration tie-break: equal-
//    cycle channels must pick the lowest channel id, or the simulated
//    trajectory (and the golden results pinning it) changes.
//  * negative_mask_i32_stride must produce bit-exact delivery masks with
//    all bits >= n zero, for any stride (the engine uses the WEvent stride).
//
// Everything here also passes where no vector variant can run (a target
// without AVX2, or under set_force_scalar): each dispatch then collapses to
// the scalar reference and the comparisons become trivial.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace logp::util::simd {
namespace {

/// Restore the runtime kill-switch even when an assertion fails mid-test.
struct ScalarGuard {
  explicit ScalarGuard(bool on) { set_force_scalar(on); }
  ~ScalarGuard() { set_force_scalar(false); }
};

TEST(Simd, FirstMinMatchesMinElementOnRandomArrays) {
  util::Xoshiro256StarStar rng(0xf00d);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<std::int64_t> v(n);
      // A tiny value range forces frequent duplicates, including duplicate
      // minima — the tie-break case that matters.
      for (auto& x : v) x = static_cast<std::int64_t>(rng.uniform(6)) - 2;
      const auto want =
          static_cast<std::size_t>(std::min_element(v.begin(), v.end()) -
                                   v.begin());
      EXPECT_EQ(first_min_index_i64(v.data(), n), want)
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Simd, FirstMinTakesFirstIndexOnTies) {
  // The minimum appears at every position pair: the kernel must always
  // report the first occurrence (equal earliest-free channels => lowest
  // id).
  for (std::size_t n = 2; n <= 19; ++n) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        std::vector<std::int64_t> v(n, 100);
        v[a] = -7;
        v[b] = -7;
        EXPECT_EQ(first_min_index_i64(v.data(), n), a)
            << "n=" << n << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(Simd, FirstMinAllEqualReturnsIndexZero) {
  for (std::size_t n : {1u, 3u, 4u, 5u, 8u, 16u, 33u}) {
    std::vector<std::int64_t> v(n, 42);
    EXPECT_EQ(first_min_index_i64(v.data(), n), 0u) << "n=" << n;
  }
}

TEST(Simd, FirstMinHandlesExtremeValues) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> v{hi, 0, lo, lo, hi, -1, lo, 5, 9};
  EXPECT_EQ(first_min_index_i64(v.data(), v.size()), 2u);
}

TEST(Simd, NegativeMaskMatchesBitwiseSpecAcrossStridesAndLengths) {
  util::Xoshiro256StarStar rng(0xbeef);
  for (const std::size_t stride : {1u, 2u, 4u, 5u, 7u}) {
    for (const std::size_t n :
         {1u, 7u, 8u, 9u, 63u, 64u, 65u, 127u, 130u, 200u}) {
      std::vector<std::int32_t> v(n * stride, 1);
      for (std::size_t i = 0; i < n; ++i)
        v[i * stride] = rng.bernoulli(0.3) ? -1 : static_cast<std::int32_t>(i);
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
      std::vector<std::uint64_t> want(words, 0);
      for (std::size_t i = 0; i < n; ++i)
        if (v[i * stride] < 0) want[i / 64] |= std::uint64_t{1} << (i % 64);
      negative_mask_i32_stride(v.data(), n, stride, got.data());
      for (std::size_t w = 0; w < words; ++w)
        EXPECT_EQ(got[w], want[w])
            << "stride=" << stride << " n=" << n << " word=" << w;
    }
  }
}

TEST(Simd, NegativeMaskZeroesBitsPastN) {
  // 70 elements, all negative: word 1 must carry exactly 6 set bits.
  const std::size_t n = 70;
  std::vector<std::int32_t> v(n, -5);
  std::uint64_t words[2] = {0x1111, 0x2222};
  negative_mask_i32_stride(v.data(), n, 1, words);
  EXPECT_EQ(words[0], ~std::uint64_t{0});
  EXPECT_EQ(words[1], (std::uint64_t{1} << 6) - 1);
}

TEST(Simd, DecideHashMatchesScalarAcrossLengths) {
  // The batched verdict hash must be bit-exact with the scalar SplitMix64
  // chain at every length — including lengths that split into a vector body
  // plus a scalar tail (5, 9, 17, ...), the handoff where a dirty-upper or
  // partial-lane bug would first show. Random salts mix decision families
  // within one batch, exactly as a faulted window does.
  util::Xoshiro256StarStar rng(0x5eed);
  const std::uint64_t seed = 0x8badf00dULL;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{31}, std::size_t{33},
                              std::size_t{64}, std::size_t{100},
                              std::size_t{255}, std::size_t{256},
                              std::size_t{257}}) {
    std::vector<std::uint64_t> salt(n), a(n), b(n), got(n, 0), want(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      salt[i] = 0xd201 + rng.uniform(5);  // the fault layer's salt range
      a[i] = rng();
      b[i] = rng.uniform(8);
    }
    decide_hash_u64(seed, salt.data(), a.data(), b.data(), n, got.data());
    decide_hash_u64_scalar(seed, salt.data(), a.data(), b.data(), n,
                           want.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
  }
}

TEST(Simd, DecideHashForceScalarIdentical) {
  // The runtime kill-switch must collapse onto the same answers.
  util::Xoshiro256StarStar rng(0xcafe);
  const std::size_t n = 71;
  std::vector<std::uint64_t> salt(n), a(n), b(n), got(n), want(n);
  for (std::size_t i = 0; i < n; ++i) {
    salt[i] = rng();
    a[i] = rng();
    b[i] = rng();
  }
  decide_hash_u64(42, salt.data(), a.data(), b.data(), n, want.data());
  {
    ScalarGuard guard(true);
    decide_hash_u64(42, salt.data(), a.data(), b.data(), n, got.data());
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << i;
}

TEST(Simd, ForceScalarDisablesVectorDispatch) {
  EXPECT_FALSE(force_scalar());
  {
    ScalarGuard guard(true);
    EXPECT_TRUE(force_scalar());
    EXPECT_FALSE(active());
  }
  EXPECT_FALSE(force_scalar());
  if (compiled_in()) {
    // active() may still be false on non-AVX2 hardware; it must simply
    // agree with itself across calls (cached cpuid, no flapping).
    EXPECT_EQ(active(), active());
  } else {
    EXPECT_FALSE(active());
  }
}

}  // namespace
}  // namespace logp::util::simd
