#include "util/simd.hpp"

#include <atomic>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define LOGP_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace logp::util::simd {

namespace {
std::atomic<bool> g_force_scalar{false};

bool cpu_has_avx2() {
#if defined(LOGP_SIMD_AVX2)
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

// AVX-512DQ brings a native 8-lane 64-bit multiply (vpmullq), which only
// the hash kernel uses. The AVX2 clone emulates each u64 multiply with three
// 32x32 partials plus shifts and still beats the scalar chain: on a 4-core
// AVX-512 Xeon, 4.1 vs 6.0 ns per element on 256-element batches (AVX-512:
// 2.5), and 607k vs 573k items/s on BM_PacketSimFaulted/500 (medians of
// six alternating pairs, the AVX2 clone ahead in five).
bool cpu_has_avx512dq() {
#if defined(LOGP_SIMD_AVX2)
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512dq") != 0;
  return ok;
#else
  return false;
#endif
}
}  // namespace

void set_force_scalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

bool force_scalar() { return g_force_scalar.load(std::memory_order_relaxed); }

bool active() {
  return compiled_in() && cpu_has_avx2() && !force_scalar();
}

// ---- first_min_index_i64 ------------------------------------------------

std::size_t first_min_index_i64(const std::int64_t* v, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (v[i] < v[best]) best = i;
  return best;
}

// ---- negative_mask_i32_stride -------------------------------------------

void negative_mask_i32_stride(const std::int32_t* v, std::size_t n,
                              std::size_t stride, std::uint64_t* out_words) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = 0;
    const std::size_t lo = w * 64;
    const std::size_t hi = lo + 64 < n ? lo + 64 : n;
    for (std::size_t i = lo; i < hi; ++i)
      if (v[i * stride] < 0) bits |= std::uint64_t{1} << (i - lo);
    out_words[w] = bits;
  }
}

// ---- decide_hash_u64 ----------------------------------------------------

namespace {
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMixMul2 = 0x94d049bb133111ebULL;

inline std::uint64_t splitmix(std::uint64_t z) {
  z += kGolden;
  z = (z ^ (z >> 30)) * kMixMul1;
  z = (z ^ (z >> 27)) * kMixMul2;
  return z ^ (z >> 31);
}
}  // namespace

void decide_hash_u64_scalar(std::uint64_t seed, const std::uint64_t* salt,
                            const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] =
        splitmix(seed ^ splitmix(salt[i] ^ splitmix(a[i]) ^ (b[i] * kGolden)));
}

#if defined(LOGP_SIMD_AVX2)
// 4-lane u64 multiply from 32-bit partial products: truncated 64-bit
// multiplication is lo*lo + ((lo*hi + hi*lo) << 32), each partial exact in
// epi64, so the composition matches scalar u64 wraparound bit-for-bit.
__attribute__((target("avx2"))) inline __m256i mul_u64_avx2(__m256i x,
                                                            __m256i y) {
  const __m256i xh = _mm256_srli_epi64(x, 32);
  const __m256i yh = _mm256_srli_epi64(y, 32);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i lh = _mm256_mul_epu32(x, yh);
  const __m256i hl = _mm256_mul_epu32(xh, y);
  return _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

__attribute__((target("avx2"))) inline __m256i splitmix_avx2(__m256i z) {
  z = _mm256_add_epi64(z, _mm256_set1_epi64x(
                              static_cast<long long>(kGolden)));
  z = mul_u64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   _mm256_set1_epi64x(static_cast<long long>(kMixMul1)));
  z = mul_u64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   _mm256_set1_epi64x(static_cast<long long>(kMixMul2)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__attribute__((target("avx2"))) void decide_hash_u64_avx2(
    std::uint64_t seed, const std::uint64_t* salt, const std::uint64_t* a,
    const std::uint64_t* b, std::size_t n, std::uint64_t* out) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i vgold = _mm256_set1_epi64x(static_cast<long long>(kGolden));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(salt + i));
    __m256i z = splitmix_avx2(va);
    z = _mm256_xor_si256(_mm256_xor_si256(vs, z), mul_u64_avx2(vb, vgold));
    z = _mm256_xor_si256(vseed, splitmix_avx2(z));
    z = splitmix_avx2(z);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), z);
  }
  // GCC only emits vzeroupper on the no-tail exit; the tail branch below
  // tail-calls the scalar routine with ymm uppers still dirty, putting the
  // core in the mixed-state regime that taxes every legacy-SSE instruction
  // until the next clean exit — measured as a ~35% whole-engine slowdown.
  _mm256_zeroupper();
  if (i < n) decide_hash_u64_scalar(seed, salt + i, a + i, b + i, n - i,
                                    out + i);
}

// 8-lane form with the native 64-bit multiply; integer truncation
// semantics are identical, so the output is bit-exact against the scalar
// reference (and the AVX2 emulation).
__attribute__((target("avx512f,avx512dq"))) inline __m512i splitmix_avx512(
    __m512i z) {
  z = _mm512_add_epi64(z,
                       _mm512_set1_epi64(static_cast<long long>(kGolden)));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         _mm512_set1_epi64(static_cast<long long>(kMixMul1)));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         _mm512_set1_epi64(static_cast<long long>(kMixMul2)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

__attribute__((target("avx512f,avx512dq"))) void decide_hash_u64_avx512(
    std::uint64_t seed, const std::uint64_t* salt, const std::uint64_t* a,
    const std::uint64_t* b, std::size_t n, std::uint64_t* out) {
  const __m512i vseed = _mm512_set1_epi64(static_cast<long long>(seed));
  const __m512i vgold = _mm512_set1_epi64(static_cast<long long>(kGolden));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i vs = _mm512_loadu_si512(salt + i);
    __m512i z = splitmix_avx512(va);
    z = _mm512_xor_si512(_mm512_xor_si512(vs, z),
                         _mm512_mullo_epi64(vb, vgold));
    z = _mm512_xor_si512(vseed, splitmix_avx512(z));
    z = splitmix_avx512(z);
    _mm512_storeu_si512(out + i, z);
  }
  // Same dirty-upper hazard as the AVX2 clone: force the state clean before
  // any scalar code runs.
  _mm256_zeroupper();
  if (i < n) decide_hash_u64_scalar(seed, salt + i, a + i, b + i, n - i,
                                    out + i);
}
#endif

void decide_hash_u64(std::uint64_t seed, const std::uint64_t* salt,
                     const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n, std::uint64_t* out) {
#if defined(LOGP_SIMD_AVX2)
  if (active()) {
    if (n >= 8 && cpu_has_avx512dq())
      return decide_hash_u64_avx512(seed, salt, a, b, n, out);
    if (n >= 4) return decide_hash_u64_avx2(seed, salt, a, b, n, out);
  }
#endif
  return decide_hash_u64_scalar(seed, salt, a, b, n, out);
}

}  // namespace logp::util::simd
