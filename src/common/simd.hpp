#pragma once
/// \file simd.hpp
/// \brief Runtime-dispatched SIMD kernel engine: a fixed-width vector
///        abstraction (`pack<double, W>`), one-time CPUID dispatch, and the
///        per-ISA kernel table every hot loop in the library routes through.
///
/// Design contract — *lane-canonical reductions*: every reduction kernel in
/// the table accumulates a 16Ki-element block into a fixed array of 8
/// logical lanes, lane l taking elements with (i − block_begin) ≡ l (mod 8)
/// in increasing i order, the 8 lanes combined serially in lane order. The
/// scalar backend keeps 8 independent scalar accumulators; SSE2 keeps four
/// 2-wide packs; AVX2 two 4-wide packs; AVX-512 one 8-wide pack — all of
/// them realize the *same* association, so dot/norm/SpMV-norm results are
/// bit-identical across ISA choice, `LCK_FORCE_ISA` override, and thread
/// count. CSR row dots follow the same scheme for rows with
/// >= kSimdRowMinNnz nonzeros and stay plain-serial below it (short stencil
/// rows gain nothing from gathers, and the serial sum keeps their results
/// identical to the pre-SIMD kernels).
///
/// Backends are compiled in dedicated TUs with per-file ISA flags (see
/// CMakeLists); this header only defines the pack specializations a TU's
/// own feature macros allow, so it is safe to include anywhere.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace lck::simd {

/// Instruction-set tiers the dispatcher can choose between. Ordering is
/// meaningful: a tier implies all lower ones.
enum class Isa : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// Number of logical accumulator lanes in the lane-canonical reduction
/// contract (the AVX-512 double width; every backend folds into it).
inline constexpr int kReductionLanes = 8;

/// CSR rows with fewer nonzeros than this keep the plain serial row sum
/// (identical in every backend); longer rows use the 8-lane-canonical
/// gather kernel. Part of the bit-stability contract — do not change
/// without re-goldening reduction-dependent test vectors.
inline constexpr index_t kSimdRowMinNnz = 16;

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Strict parse of an ISA name ("scalar", "sse2", "avx2", "avx512").
/// Unknown names throw config_error listing the valid spellings, mirroring
/// make_compressor's unknown-codec diagnostics.
[[nodiscard]] Isa parse_isa(const std::string& name);

/// Highest tier the running CPU supports (CPUID). AVX2 and AVX-512 also
/// require PCLMULQDQ (their CRC-32 kernel); without it this returns SSE2.
[[nodiscard]] Isa supported_isa() noexcept;

/// Highest tier compiled into this binary (x86-64 builds carry all four;
/// other architectures carry only the scalar backend).
[[nodiscard]] Isa compiled_isa() noexcept;

/// The dispatcher's one-time choice: min(supported, compiled), overridable
/// by the LCK_FORCE_ISA environment variable (strict-parsed; forcing a tier
/// the CPU or binary lacks throws config_error). Cached after first use.
[[nodiscard]] Isa active_isa();

/// Test hook: pin dispatch to `isa` for the rest of the process (must be
/// <= min(supported, compiled)).
void force_isa(Isa isa);

/// Test hook: drop the cached dispatch choice so the next active_isa()
/// re-reads LCK_FORCE_ISA and CPUID.
void reset_isa();

// ---------------------------------------------------------------------------
// Kernel table: one entry per hot loop, filled per backend.
// ---------------------------------------------------------------------------

/// Per-ISA kernel table. Reduction kernels operate on the half-open element
/// range [begin, end) of one lane-canonical block and return that block's
/// partial (lane array combined serially); the drivers in vector_ops.hpp
/// and spmv_simd.cpp own the fixed 16Ki partition and the serial combine of
/// block partials.
struct KernelOps {
  Isa isa;

  // --- lane-canonical block reductions ------------------------------------
  /// Σ x[i]·y[i] over [begin, end).
  double (*sum_mul)(const double* x, const double* y, index_t begin,
                    index_t end);
  /// Σ x[i]² over [begin, end).
  double (*sum_sq)(const double* x, index_t begin, index_t end);
  /// max |x[i]| over [begin, end) (0 for an empty range).
  double (*max_abs)(const double* x, index_t begin, index_t end);
  /// max |x[i] − y[i]| over [begin, end).
  double (*max_abs_diff)(const double* x, const double* y, index_t begin,
                         index_t end);

  // --- fused update + reduction blocks ------------------------------------
  /// y[i] += a·x[i]; returns Σ y[i]² of the updated values.
  double (*axpy_sq)(double a, const double* x, double* y, index_t begin,
                    index_t end);
  /// x[i] += a·p[i]; r[i] += (−a)·q[i]; returns Σ r[i]² (CG inner update).
  double (*update_xr_sq)(double a, const double* p, const double* q, double* x,
                         double* r, index_t begin, index_t end);
  /// Two products sharing the left operand: *xy = Σ x·y, *xz = Σ x·z, each
  /// in its own lane-canonical accumulator chain.
  void (*sum_mul2)(const double* x, const double* y, const double* z,
                   index_t begin, index_t end, double* xy, double* xz);
  /// w[i] = x[i] + a·y[i]; returns Σ w[i]·z[i]. `z` may equal `w` (the
  /// fused waxpy_norm2); other overlap is undefined.
  double (*waxpy_mul)(const double* x, double a, const double* y, double* w,
                      const double* z, index_t begin, index_t end);
  /// z[i] = (z[i] + a·x[i]) + b·y[i]; returns Σ z[i]² (MINRES Lanczos).
  double (*axpy2_sq)(double a, const double* x, double b, const double* y,
                     double* z, index_t begin, index_t end);

  // --- CSR row kernels (gather-based above kSimdRowMinNnz) ----------------
  /// Dot of one CSR row with a dense vector (lane-canonical contract).
  double (*row_dot)(const index_t* col, const double* val, index_t len,
                    const double* x);
  /// y[r] = A·x row dots for rows [r0, r1).
  void (*spmv_rows)(const index_t* rp, const index_t* ci, const double* val,
                    const double* x, double* y, index_t r0, index_t r1);
  /// y[r] = b[r] − (A·x)[r] for rows [r0, r1).
  void (*residual_rows)(const index_t* rp, const index_t* ci, const double* val,
                        const double* b, const double* x, double* y, index_t r0,
                        index_t r1);
  /// Fused residual + squared-norm partial: y[r] = b[r] − (A·x)[r] for rows
  /// [r0, r1) while accumulating y[r]² into lane (r − r0) mod 8 — exactly
  /// the partial sum_sq(y, r0, r1) would produce, so the fused SpMV+norm
  /// pass is bit-identical to residual_rows followed by sum_sq.
  double (*residual_sq_rows)(const index_t* rp, const index_t* ci,
                             const double* val, const double* b,
                             const double* x, double* y, index_t r0,
                             index_t r1);

  // --- compression hot loops ----------------------------------------------
  /// Byte-shuffle (transpose) of 8-byte elements [e0, e1) of an n-element
  /// array: out[k·n + e] = in[e·8 + k]. Pure permutation, so every backend
  /// emits identical bytes.
  void (*shuffle8)(const byte_t* in, byte_t* out, std::size_t n,
                   std::size_t e0, std::size_t e1);
  /// Inverse of shuffle8: out[e·8 + k] = in[k·n + e].
  void (*unshuffle8)(const byte_t* in, byte_t* out, std::size_t n,
                     std::size_t e0, std::size_t e1);
  /// 8-way interleaved partial histogram: part has 8·alphabet slots, symbol
  /// stream position i increments part[(i mod 8)·alphabet + s[i]].
  void (*hist8)(const std::uint32_t* s, std::size_t n, std::uint64_t* part,
                std::size_t alphabet);
  /// Merge the 8 partial tables into out (integer sums, order-free).
  void (*hist8_merge)(const std::uint64_t* part, std::size_t alphabet,
                      std::uint64_t* out);
  /// Count of leading equal bytes of a and b, capped at limit (the LZ4
  /// match extender). Never reads past a+limit / b+limit.
  std::size_t (*match_len)(const byte_t* a, const byte_t* b,
                           std::size_t limit);
  /// Fold n bytes into a running CRC-32 (IEEE 802.3, reflected) register —
  /// the pre-inverted state Crc32 keeps, not the final value. Scalar and
  /// SSE2 run the byte-table loop (the reference); AVX2 and AVX-512 fold
  /// 64- then 16-byte blocks with PCLMULQDQ and finish with a Barrett
  /// reduction (Gopal et al., "Fast CRC Computation for Generic Polynomials
  /// Using PCLMULQDQ Instruction", Intel 2009), table-looping only the
  /// sub-16-byte tail. Same polynomial arithmetic, so every backend returns
  /// the same value.
  std::uint32_t (*crc32_update)(std::uint32_t state, const byte_t* data,
                                std::size_t n);

  // --- self test -----------------------------------------------------------
  /// Exercises this backend's pack ops against scalar arithmetic; returns
  /// false and fills *msg on the first mismatch (tests/test_simd.cpp).
  bool (*pack_selftest)(std::string* msg);
};

/// Kernel table of the active ISA (one-time dispatch; see active_isa()).
[[nodiscard]] const KernelOps& ops();

/// Kernel table of a specific compiled tier. Throws config_error if the
/// binary does not carry that backend; the caller is responsible for
/// checking supported_isa() before *executing* kernels from a tier above
/// the running CPU.
[[nodiscard]] const KernelOps& ops_for(Isa isa);

// ---------------------------------------------------------------------------
// pack<double, W>: the fixed-width vector abstraction the kernels are
// written against. Specializations appear only when the including TU's
// feature macros allow their intrinsics.
// ---------------------------------------------------------------------------

template <typename T, int W>
struct pack;

/// Scalar backend: W = 1, plain double arithmetic.
template <>
struct pack<double, 1> {
  static constexpr int width = 1;
  double v;

  static pack zero() noexcept { return {0.0}; }
  static pack broadcast(double x) noexcept { return {x}; }
  static pack load(const double* p) noexcept { return {*p}; }
  static pack gather(const double* base, const index_t* idx) noexcept {
    return {base[idx[0]]};
  }
  void store(double* p) const noexcept { *p = v; }
  [[nodiscard]] double lane(int) const noexcept { return v; }

  friend pack operator+(pack a, pack b) noexcept { return {a.v + b.v}; }
  friend pack operator-(pack a, pack b) noexcept { return {a.v - b.v}; }
  friend pack operator*(pack a, pack b) noexcept { return {a.v * b.v}; }
  static pack max(pack a, pack b) noexcept { return {b.v > a.v ? b.v : a.v}; }
  static pack abs(pack a) noexcept { return {std::fabs(a.v)}; }
};

#if defined(__SSE2__)
/// SSE2 backend: W = 2 (__m128d). Gathers are emulated with two scalar
/// loads — SSE2 has no gather instruction, but the dense kernels still
/// halve the instruction count.
template <>
struct pack<double, 2> {
  static constexpr int width = 2;
  __m128d v;

  static pack zero() noexcept { return {_mm_setzero_pd()}; }
  static pack broadcast(double x) noexcept { return {_mm_set1_pd(x)}; }
  static pack load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
  static pack gather(const double* base, const index_t* idx) noexcept {
    return {_mm_set_pd(base[idx[1]], base[idx[0]])};
  }
  void store(double* p) const noexcept { _mm_storeu_pd(p, v); }
  [[nodiscard]] double lane(int i) const noexcept {
    alignas(16) double t[2];
    _mm_store_pd(t, v);
    return t[i];
  }

  friend pack operator+(pack a, pack b) noexcept {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend pack operator-(pack a, pack b) noexcept {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend pack operator*(pack a, pack b) noexcept {
    return {_mm_mul_pd(a.v, b.v)};
  }
  static pack max(pack a, pack b) noexcept { return {_mm_max_pd(a.v, b.v)}; }
  static pack abs(pack a) noexcept {
    return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// AVX2 backend: W = 4 (__m256d) with hardware i64 gathers.
template <>
struct pack<double, 4> {
  static constexpr int width = 4;
  __m256d v;

  static pack zero() noexcept { return {_mm256_setzero_pd()}; }
  static pack broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static pack load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static pack gather(const double* base, const index_t* idx) noexcept {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm256_i64gather_pd(base, vi, 8)};
  }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  [[nodiscard]] double lane(int i) const noexcept {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return t[i];
  }

  friend pack operator+(pack a, pack b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend pack operator-(pack a, pack b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend pack operator*(pack a, pack b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  static pack max(pack a, pack b) noexcept {
    return {_mm256_max_pd(a.v, b.v)};
  }
  static pack abs(pack a) noexcept {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// AVX-512 backend: W = 8 (__m512d) — one pack is the whole logical lane
/// array of the reduction contract.
template <>
struct pack<double, 8> {
  static constexpr int width = 8;
  __m512d v;

  static pack zero() noexcept { return {_mm512_setzero_pd()}; }
  static pack broadcast(double x) noexcept { return {_mm512_set1_pd(x)}; }
  static pack load(const double* p) noexcept { return {_mm512_loadu_pd(p)}; }
  static pack gather(const double* base, const index_t* idx) noexcept {
    const __m512i vi = _mm512_loadu_si512(idx);
    // Masked form with a zeroed source: same gather, but GCC's plain
    // _mm512_i64gather_pd expands with an uninitialized pass-through
    // operand that trips -Wmaybe-uninitialized.
    return {_mm512_mask_i64gather_pd(_mm512_setzero_pd(),
                                     static_cast<__mmask8>(0xff), vi, base, 8)};
  }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  [[nodiscard]] double lane(int i) const noexcept {
    alignas(64) double t[8];
    _mm512_store_pd(t, v);
    return t[i];
  }

  friend pack operator+(pack a, pack b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend pack operator-(pack a, pack b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend pack operator*(pack a, pack b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  static pack max(pack a, pack b) noexcept {
    return {_mm512_max_pd(a.v, b.v)};
  }
  static pack abs(pack a) noexcept { return {_mm512_abs_pd(a.v)}; }
};
#endif  // __AVX512F__

}  // namespace lck::simd
