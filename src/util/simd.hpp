// Small SIMD kernel library for the packet engine's inner loops.
//
// Two deliberate constraints shape this file:
//
//  * Byte-identity. Every vector kernel is specified by its scalar
//    reference implementation (the *_scalar function beside it); the vector
//    variants must reproduce it exactly, so the simulator's results do not
//    depend on which variant ran (pinned by tests/test_simd.cpp and the
//    packet-sim goldens).
//  * Runtime dispatch. The repo builds for baseline x86-64, so vector code
//    is compiled behind `__attribute__((target(...)))` and selected at
//    runtime via cpuid. Targets without it (non-x86-64, or a compiler
//    without GNU target attributes) compile only the scalar references;
//    `set_force_scalar(true)` selects them at runtime, so one test binary
//    can diff both paths in-process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace logp::util::simd {

/// True when vector kernels are compiled in at all (false on non-x86-64
/// targets and on compilers without GNU target attributes).
constexpr bool compiled_in() {
#if !(defined(__x86_64__) || defined(_M_X64)) || \
    !(defined(__GNUC__) || defined(__clang__))
  return false;
#else
  return true;
#endif
}

/// Runtime switch: force every kernel onto its scalar reference path. The
/// packet engine also reads it once per run to walk faulted windows through
/// its strictly-ordered reference kernel instead of the batch kernel.
/// Test-only (not thread-safe against concurrent kernel calls).
void set_force_scalar(bool on);
bool force_scalar();

/// True when the vector variants will actually run: compiled in, CPU
/// supports AVX2, and not forced scalar.
bool active();

// ---- Kernels ------------------------------------------------------------

// first_min_index_i64 and negative_mask_i32_stride are scalar only: AVX2
// versions ran 2-4x faster in isolation but won nothing measurable end to
// end (paired A/B on BM_PacketSim* and the fat-tree benches, 4-core
// AVX-512 Xeon: within noise), so vector code does not pay here.

/// Index of the first minimum of v[0..n), n >= 1. The first-index tie-break
/// is load-bearing: it is the channel-arbitration order of
/// LinkTable::earliest (historically std::min_element), so equal-cycle
/// channels must resolve to the lowest index.
std::size_t first_min_index_i64(const std::int64_t* v, std::size_t n);

/// Sign mask of a strided i32 column: out_words[w] bit b is set iff
/// v[(64*w + b) * stride] < 0, for 64*w + b < n; bits at and beyond n are
/// zero. `stride` is in i32 elements. The packet engine points this at the
/// `link` column of its 16-byte window events (stride 4) to split each
/// 64-event block into deliveries (negative link) and link traversals.
void negative_mask_i32_stride(const std::int32_t* v, std::size_t n,
                              std::size_t stride, std::uint64_t* out_words);

/// Batched fault-verdict hash: out[i] = mix(seed ^ mix(salt[i] ^ mix(a[i]) ^
/// (b[i] * 0x9e3779b97f4a7c15))) where mix is the SplitMix64 finalizer —
/// exactly the fault layer's decide() composition (fault/fault.cpp owns the
/// scalar definition; tests/test_fault.cpp pins the two against each other).
/// The salt is per-element so one pass can hash a window whose events mix
/// decision families (drop verdicts for link traversals, corrupt verdicts
/// for deliveries). AVX2 has no 64-bit multiply, so the vector variant
/// decomposes each mul into 32-bit partial products — exact, pinned by
/// tests/test_simd.cpp.
void decide_hash_u64_scalar(std::uint64_t seed, const std::uint64_t* salt,
                            const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n, std::uint64_t* out);
void decide_hash_u64(std::uint64_t seed, const std::uint64_t* salt,
                     const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n, std::uint64_t* out);

}  // namespace logp::util::simd
