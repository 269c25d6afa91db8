// Implementations of the deterministic blocked/SIMD LA kernels.
//
// THIS FILE IS COMPILED WITH -ffp-contract=off (set per-source by the root
// CMakeLists).  Every lane update of the schedule is an EXPLICIT
// correctly-rounded fused multiply-add (std::fma in scalar code,
// _mm256_fmadd_pd / _mm512_fmadd_pd in the vector paths — the same
// IEEE-754 fusedMultiplyAdd operation, one rounding); -ffp-contract=off
// forbids the compiler from fusing or splitting anything *else*, so the
// fixed accumulation schedule of la/kernel_config.h produces the same bits
// at every optimization level, with or without COCKTAIL_SIMD, on every
// conforming compiler.  add_outer_rows, adam_update and sum_parts have no
// fma: their contracts are sequences of rounded multiplies, divides, adds
// and square roots, and -ffp-contract=off is what keeps them unfused.
//
// The vectorized kernels pack independent schedule lanes (or independent
// output elements) into one register: every vector instruction is the
// element-wise image of the scalar sequence's per-lane operations, in the
// same order.  Vectorization therefore never reorders an accumulation; it
// only packs independent lanes into one instruction.  Without AVX2+FMA at
// compile time the entry points run the scalar references — same
// schedule, same bits (std::fma is correctly rounded even via libm's
// software path).
//
// Each lane kernel exists at two widths (LaneKernels): four lanes per AVX2
// vector, the file's own ISA, and eight per AVX-512F vector, compiled
// through a target attribute.  tanh (la/tanh_lanes.inc) and the training
// kernels with gemm_nt's short path (la/lane_kernels.inc) are one text each
// over a lane-traits type, included once per width; gemm_nt's eight-column
// and one-output passes are AVX-512F only.
// The entry points take the eight-lane table only where the CPU and OS
// report AVX-512F, checked once below.  This file, with the .inc files it
// includes, is the only place that holds ISA code or asks the host which
// instructions it runs: any other file would compile its arithmetic
// without -ffp-contract=off.
#include "la/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "la/kernel_config.h"

#if defined(__AVX2__) && defined(__FMA__)
#define COCKTAIL_LA_VECTOR 1
#include <immintrin.h>
// GCC and clang compile single functions for AVX-512F via a target
// attribute and declare its intrinsics whatever the file's ISA.
#if defined(__GNUC__)
#define COCKTAIL_LA_AVX512 1
#endif
#endif

namespace cocktail::la::kernels {
namespace {

constexpr std::size_t W = kDotLanes;
constexpr std::size_t KB = kDotBlockK;
constexpr std::size_t WT = kTransposeLanes;
constexpr std::size_t RB = kTransposeBlockR;
constexpr std::size_t NR = kGemmTileCols;

/// The fixed 8-lane pairwise tree of the dot schedule.
inline double reduce8(const double* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// The fixed 4-lane pairwise tree of the transpose schedule.
inline double reduce4(const double* l) {
  return (l[0] + l[1]) + (l[2] + l[3]);
}

#if defined(COCKTAIL_LA_VECTOR)

/// out[j] = dot(a, b[j]) (+ bias[j] when `bias` is non-null) for TR
/// parallel B-rows under the fixed dot schedule.  TR is the register-tile
/// width: it only reuses the loads of `a` across the TR accumulations, each
/// of which is the schedule verbatim.  Schedule lanes 0-3 live in lo[j],
/// lanes 4-7 in hi[j] — 2*TR+2 ymm registers total, so the accumulators
/// stay register-resident for the kGemmTileCols tile.
template <std::size_t TR>
inline void dot_rows(const double* a, const double* const* b, std::size_t k,
                     const double* bias, double* out) {
  double acc[TR];
  for (std::size_t j = 0; j < TR; ++j) acc[j] = 0.0;
  for (std::size_t t0 = 0; t0 < k; t0 += KB) {
    const std::size_t end = std::min(k, t0 + KB);
    __m256d lo[TR], hi[TR];
    for (std::size_t j = 0; j < TR; ++j) {
      lo[j] = _mm256_setzero_pd();
      hi[j] = _mm256_setzero_pd();
    }
    std::size_t t = t0;
    for (; t + W <= end; t += W) {
      const __m256d a_lo = _mm256_loadu_pd(a + t);
      const __m256d a_hi = _mm256_loadu_pd(a + t + WT);
      for (std::size_t j = 0; j < TR; ++j) {
        lo[j] = _mm256_fmadd_pd(a_lo, _mm256_loadu_pd(b[j] + t), lo[j]);
        hi[j] = _mm256_fmadd_pd(a_hi, _mm256_loadu_pd(b[j] + t + WT), hi[j]);
      }
    }
    // Tail of a partial block: keep feeding the SAME lanes, one fma at a
    // time in increasing t — the schedule does not change shape at the
    // edge, the unfilled lanes simply stay +0.0 through the tree.
    double larr[TR][W];
    for (std::size_t j = 0; j < TR; ++j) {
      _mm256_storeu_pd(larr[j], lo[j]);
      _mm256_storeu_pd(larr[j] + WT, hi[j]);
    }
    for (; t < end; ++t) {
      const double at = a[t];
      for (std::size_t j = 0; j < TR; ++j) {
        double& lane = larr[j][(t - t0) % W];
        lane = std::fma(at, b[j][t], lane);
      }
    }
    for (std::size_t j = 0; j < TR; ++j) acc[j] += reduce8(larr[j]);
  }
  for (std::size_t j = 0; j < TR; ++j)
    out[j] = bias != nullptr ? acc[j] + bias[j] : acc[j];
}

#endif  // COCKTAIL_LA_VECTOR

/// Strided-b dot under the fixed dot schedule (the reference for the NN
/// GEMM, which reads a column of row-major B directly).
double dot_strided_ref(const double* a, const double* b, std::size_t strideb,
                       std::size_t k) {
  double acc = 0.0;
  for (std::size_t t0 = 0; t0 < k; t0 += KB) {
    const std::size_t end = std::min(k, t0 + KB);
    double lanes[W] = {};
    for (std::size_t t = t0; t < end; ++t) {
      double& lane = lanes[(t - t0) % W];
      lane = std::fma(a[t], b[t * strideb], lane);
    }
    acc += reduce8(lanes);
  }
  return acc;
}

/// bt(n x k) = B(k x n)^T — the pack the NN product uses to reuse the NT
/// kernel.  Pure data movement (no arithmetic), so it is bitwise neutral
/// no matter how the copy is tiled or vectorized.
void pack_bt(std::size_t n, std::size_t k, const double* b, std::size_t ldb,
             double* bt) {
  std::size_t j0 = 0;
#if defined(COCKTAIL_LA_VECTOR)
  // 4x4 in-register transpose: both the loads and the stores run a full
  // cache line at a time instead of one strided double.
  for (; j0 + 4 <= n; j0 += 4) {
    std::size_t t = 0;
    for (; t + 4 <= k; t += 4) {
      const double* bp = b + t * ldb + j0;
      const __m256d r0 = _mm256_loadu_pd(bp);
      const __m256d r1 = _mm256_loadu_pd(bp + ldb);
      const __m256d r2 = _mm256_loadu_pd(bp + 2 * ldb);
      const __m256d r3 = _mm256_loadu_pd(bp + 3 * ldb);
      const __m256d u0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d u1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d u2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d u3 = _mm256_unpackhi_pd(r2, r3);
      double* btp = bt + j0 * k + t;
      _mm256_storeu_pd(btp, _mm256_permute2f128_pd(u0, u2, 0x20));
      _mm256_storeu_pd(btp + k, _mm256_permute2f128_pd(u1, u3, 0x20));
      _mm256_storeu_pd(btp + 2 * k, _mm256_permute2f128_pd(u0, u2, 0x31));
      _mm256_storeu_pd(btp + 3 * k, _mm256_permute2f128_pd(u1, u3, 0x31));
    }
    for (; t < k; ++t) {
      const double* brow = b + t * ldb + j0;
      for (std::size_t q = 0; q < 4; ++q) bt[(j0 + q) * k + t] = brow[q];
    }
  }
#endif
  for (; j0 < n; ++j0)
    for (std::size_t t = 0; t < k; ++t) bt[j0 * k + t] = b[t * ldb + j0];
}

}  // namespace

double dot_ref(const double* a, const double* b, std::size_t k) {
  return dot_strided_ref(a, b, 1, k);
}

double dot(const double* a, const double* b, std::size_t k) {
#if defined(COCKTAIL_LA_VECTOR)
  double out;
  const double* bp[1] = {b};
  dot_rows<1>(a, bp, k, nullptr, &out);
  return out;
#else
  return dot_ref(a, b, k);
#endif
}

void gemm_nt_ref(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      c[i * ldc + j] = dot_ref(a + i * lda, b + j * ldb, k);
}

void gemm_nn_ref(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      c[i * ldc + j] = dot_strided_ref(a + i * lda, b + j, ldb, k);
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
  // Pack B^T once (pure data movement — bitwise neutral) and run the NT
  // kernel, so the NN and NT products share one accumulation schedule.
  // The scratch is thread_local so repeated products (training loops,
  // batched serving) never reallocate, and the transpose runs in 32x32
  // tiles so both the strided reads and the strided writes stay within a
  // cache-resident working set.
  thread_local std::vector<double> bt;
  if (bt.size() < n * k) bt.resize(n * k);
  pack_bt(n, k, b, ldb, bt.data());
  gemm_nt(m, n, k, a, lda, bt.data(), k, nullptr, c, ldc);
}

void matvec_t_ref(std::size_t m, std::size_t k, const double* a,
                  std::size_t lda, const double* x, double* y) {
  std::fill(y, y + k, 0.0);
  for (std::size_t r0 = 0; r0 < m; r0 += RB) {
    const std::size_t rend = std::min(m, r0 + RB);
    for (std::size_t c = 0; c < k; ++c) {
      double lanes[WT] = {};
      for (std::size_t r = r0; r < rend; ++r) {
        double& lane = lanes[(r - r0) % WT];
        lane = std::fma(a[r * lda + c], x[r], lane);
      }
      y[c] += reduce4(lanes);
    }
  }
}

void add_outer_rows_ref(std::size_t rows, std::size_t m, std::size_t n,
                        const double* x, std::size_t ldx, const double* y,
                        std::size_t ldy, const std::size_t* y_rows, double* c,
                        std::size_t ldc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * ldx;
    const double* yr = y + (y_rows != nullptr ? y_rows[r] : r) * ldy;
    for (std::size_t i = 0; i < m; ++i) {
      double* ci = c + i * ldc;
      // A separate multiply and add: -ffp-contract=off keeps them unfused.
      for (std::size_t j = 0; j < n; ++j) ci[j] = ci[j] + xr[i] * yr[j];
    }
  }
}

void adam_update_ref(const AdamStep& s, std::size_t n, double* p, double* m,
                     double* v, const double* g) {
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * g[i];
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * g[i] * g[i];
    p[i] = p[i] - s.lr * (m[i] / s.bc1) / (std::sqrt(v[i] / s.bc2) + s.eps);
  }
}

#if !defined(COCKTAIL_LA_VECTOR)
namespace {

// The scalar table's matvec_t_rows and sum_parts: every row, then every
// element, in turn.
void matvec_t_rows_ref(std::size_t rows, std::size_t m, std::size_t k,
                       const double* a, std::size_t lda, const double* x,
                       std::size_t ldx, double* y, std::size_t ldy) {
  for (std::size_t r = 0; r < rows; ++r)
    matvec_t_ref(m, k, a, lda, x + r * ldx, y + r * ldy);
}

void sum_parts_ref(std::size_t count, const double* const* parts,
                   std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t c = 0; c < count; ++c) sum = sum + parts[c][i];
    out[i] = sum;
  }
}

}  // namespace
#endif

// ---------------------------------------------------------------------------
// tanh: fdlibm's s_tanh.c/s_expm1.c, with the fused multiply-adds of
// glibc 2.36's x86-64 FMA build of expm1.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
// ---------------------------------------------------------------------------

namespace {

constexpr double kLn2Hi = 6.93147180369123816490e-01;   // 0x3fe62e42fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;   // 0x3dea39ef35793c76
constexpr double kInvLn2 = 1.44269504088896338700e+00;  // 0x3ff71547652b82fe
constexpr double kQ1 = -3.33333333333331316428e-02;
constexpr double kQ2 = 1.58730158725481460165e-03;
constexpr double kQ3 = -7.93650757867487942473e-05;
constexpr double kQ4 = 4.00821782732936239552e-06;
constexpr double kQ5 = -2.01099218183624371326e-07;
/// fdlibm's `one - tiny`, the saturated |tanh| for |x| >= 22 (it rounds to
/// 1.0; the subtraction only raised inexact).
constexpr double kTanhSaturated = 1.0 - 1.0e-300;

inline std::uint32_t high_word(double x) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

/// y * 2^k by adding k to the exponent field (fdlibm's SET_HIGH_WORD step).
inline double scale_k(double y, int k) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) +
                               (static_cast<std::uint64_t>(k) << 52));
}

/// 2^-k for 0 <= k <= 1022.
inline double pow2_neg(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 - k) << 52);
}

/// fdlibm's expm1(u), restricted to the arguments tanh passes it:
/// u in [2, 44) (from |x| in [1, 22)) or u in (-2, -2^-54] (from |x| in
/// [2^-55, 1)).  That range never reaches fdlibm's non-finite, overflow,
/// |u| < 2^-54 or k = 1, 2 branches, so they are left out.
double expm1_tanh_arg(double u) {
  const std::uint32_t hu = high_word(u) & 0x7fffffffU;
  int k = 0;
  double x = u;
  double c = 0.0;
  if (hu > 0x3fd62e42U) {  // |u| > 0.5 ln2
    double hi;
    double lo;
    if (hu < 0x3ff0a2b2U) {  // and |u| < 1.5 ln2, so u < 0 here
      k = -1;
      hi = u + kLn2Hi;
      lo = -kLn2Lo;
    } else {
      k = static_cast<int>(kInvLn2 * u + (u > 0.0 ? 0.5 : -0.5));
      const double kd = k;
      hi = std::fma(-kd, kLn2Hi, u);  // kd * kLn2Hi is exact
      lo = kd * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double h2 = hxs * hxs;
  const double h4 = h2 * h2;
  const double r1 =
      std::fma(h4, std::fma(hxs, kQ5, kQ4),
               std::fma(h2, std::fma(hxs, kQ3, kQ2), std::fma(hxs, kQ1, 1.0)));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = ((r1 - t) / std::fma(-x, t, 6.0)) * hxs;
  if (k == 0) return x - std::fma(e, x, -hxs);
  e = std::fma(e - c, x, -c) - hxs;
  if (k == -1) return std::fma(x - e, 0.5, -0.5);
  if (k <= -2 || k > 56) return scale_k(1.0 - (e - x), k) - 1.0;
  if (k < 20) return scale_k((1.0 - pow2_neg(k)) - (e - x), k);
  return scale_k((x - (e + pow2_neg(k))) + 1.0, k);
}

#if defined(COCKTAIL_LA_VECTOR)

/// Four lanes per AVX2 vector.  A mask is a vector whose lanes are all ones
/// or all zeros; blend(a, b, m) takes b where m is set.
struct Lanes4 {
  using D = __m256d;
  using I = __m256i;
  using M = __m256d;
  static constexpr std::size_t kWidth = 4;
  /// Two cotangent rows keep matvec_t_rows' 8 lane accumulators within
  /// the 16 ymm registers.
  static constexpr std::size_t kRowTile = 2;
  [[gnu::always_inline]] static D zero() { return _mm256_setzero_pd(); }
  [[gnu::always_inline]] static D load(const double* p) {
    return _mm256_loadu_pd(p);
  }
  [[gnu::always_inline]] static void store(double* p, D v) {
    _mm256_storeu_pd(p, v);
  }
  /// All ones in the first n lanes.
  [[gnu::always_inline]] static __m256i first(std::size_t n) {
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n)),
        _mm256_setr_epi64x(0, 1, 2, 3));
  }
  [[gnu::always_inline]] static D load_n(const double* p, std::size_t n) {
    return _mm256_maskload_pd(p, first(n));
  }
  [[gnu::always_inline]] static void store_n(double* p, D v, std::size_t n) {
    _mm256_maskstore_pd(p, first(n), v);
  }
  [[gnu::always_inline]] static D sqrt(D a) { return _mm256_sqrt_pd(a); }
  [[gnu::always_inline]] static D set1(double v) { return _mm256_set1_pd(v); }
  [[gnu::always_inline]] static D add(D a, D b) { return _mm256_add_pd(a, b); }
  [[gnu::always_inline]] static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  [[gnu::always_inline]] static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  [[gnu::always_inline]] static D div(D a, D b) { return _mm256_div_pd(a, b); }
  [[gnu::always_inline]] static D fmadd(D a, D b, D c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  [[gnu::always_inline]] static D fnmadd(D a, D b, D c) {
    return _mm256_fnmadd_pd(a, b, c);
  }
  [[gnu::always_inline]] static D fmsub(D a, D b, D c) {
    return _mm256_fmsub_pd(a, b, c);
  }
  [[gnu::always_inline]] static D trunc(D a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  [[gnu::always_inline]] static D bit_and(D a, D b) {
    return _mm256_and_pd(a, b);
  }
  [[gnu::always_inline]] static D bit_andnot(D a, D b) {
    return _mm256_andnot_pd(a, b);
  }
  [[gnu::always_inline]] static D bit_or(D a, D b) { return _mm256_or_pd(a, b); }
  [[gnu::always_inline]] static D bit_xor(D a, D b) {
    return _mm256_xor_pd(a, b);
  }
  [[gnu::always_inline]] static M lt(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  [[gnu::always_inline]] static M le(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
  }
  [[gnu::always_inline]] static M gt(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  [[gnu::always_inline]] static M ge(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  [[gnu::always_inline]] static M eq(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  [[gnu::always_inline]] static M unord(D a, D b) {
    return _mm256_cmp_pd(a, b, _CMP_UNORD_Q);
  }
  [[gnu::always_inline]] static M either(M a, M b) { return _mm256_or_pd(a, b); }
  [[gnu::always_inline]] static D blend(D a, D b, M m) {
    return _mm256_blendv_pd(a, b, m);
  }
  /// The integral lanes of `a` (|a| < 2^31) as 64-bit integers.
  [[gnu::always_inline]] static I to_int64(D a) {
    return _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(a));
  }
  [[gnu::always_inline]] static I shl52(I a) {
    return _mm256_slli_epi64(a, 52);
  }
  [[gnu::always_inline]] static I sub64(I a, I b) {
    return _mm256_sub_epi64(a, b);
  }
  [[gnu::always_inline]] static I set1_64(std::int64_t v) {
    return _mm256_set1_epi64x(v);
  }
  [[gnu::always_inline]] static D as_double(I a) {
    return _mm256_castsi256_pd(a);
  }
  /// The bits of `a` plus `b`, as an integer add per lane.
  [[gnu::always_inline]] static D add_bits(D a, I b) {
    return _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(a), b));
  }
};

// lanes4::tanh_lanes<Lanes4> and the training kernels of
// la/lane_kernels.inc at the file's own ISA.
namespace lanes4 {
#define COCKTAIL_LANES_TARGET
#include "la/tanh_lanes.inc"
#include "la/lane_kernels.inc"
#undef COCKTAIL_LANES_TARGET
}  // namespace lanes4

#endif  // COCKTAIL_LA_VECTOR

/// gemm_nt at four lanes: the short path for k < kDotLanes, else
/// kGemmTileCols columns per pass through dot_rows.
void gemm_nt_avx2(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, const double* bias, double* c,
                  std::size_t ldc) {
#if defined(COCKTAIL_LA_VECTOR)
  if (k >= 1 && k < W && n >= WT)
    return lanes4::gemm_nt_short_lanes<Lanes4>(m, n, k, a, lda, b, ldb, bias,
                                               c, ldc);
  // Visit output columns in kGemmBlockCols-wide panels so the active rows
  // of B stay L2-resident across the whole sweep over A.  Pure iteration
  // order: each c(i,j) is still produced by exactly one dot_rows call.
  for (std::size_t j0 = 0; j0 < n; j0 += kGemmBlockCols) {
    const std::size_t jend = std::min(n, j0 + kGemmBlockCols);
    for (std::size_t i = 0; i < m; ++i) {
      const double* ai = a + i * lda;
      double* ci = c + i * ldc;
      std::size_t j = j0;
      for (; j + NR <= jend; j += NR) {
        const double* bp[NR];
        for (std::size_t q = 0; q < NR; ++q) bp[q] = b + (j + q) * ldb;
        dot_rows<NR>(ai, bp, k, bias != nullptr ? bias + j : nullptr, ci + j);
      }
      for (; j < jend; ++j) {
        const double* bp[1] = {b + j * ldb};
        dot_rows<1>(ai, bp, k, bias != nullptr ? bias + j : nullptr, ci + j);
      }
    }
  }
#else
  gemm_nt_ref(m, n, k, a, lda, b, ldb, c, ldc);
  if (bias != nullptr)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        c[i * ldc + j] = c[i * ldc + j] + bias[j];
#endif
}

#if defined(COCKTAIL_LA_AVX512)

/// Eight lanes per AVX-512F vector, with __mmask8 lane masks; each
/// function is the AVX2 one's instruction at twice the width.  The integer,
/// bitwise, square-root and shuffle steps use AVX-512F's all-lanes `maskz`
/// forms: the unmasked intrinsics of GCC 12 pass an `_mm512_undefined_*`
/// source that -Wmaybe-uninitialized reports (GCC PR 105593), and a full
/// mask computes the same lanes.
#define COCKTAIL_AVX512 gnu::always_inline, gnu::target("avx512f")
struct Lanes8 {
  using D = __m512d;
  using I = __m512i;
  using M = __mmask8;
  static constexpr M kAll = 0xff;
  static constexpr std::size_t kWidth = 8;
  /// Four cotangent rows: 16 of the 32 zmm registers hold lanes.
  static constexpr std::size_t kRowTile = 4;
  [[COCKTAIL_AVX512]] static D zero() { return _mm512_setzero_pd(); }
  [[COCKTAIL_AVX512]] static D load(const double* p) {
    return _mm512_loadu_pd(p);
  }
  [[COCKTAIL_AVX512]] static void store(double* p, D v) {
    _mm512_storeu_pd(p, v);
  }
  /// The first n lanes.
  [[COCKTAIL_AVX512]] static M first(std::size_t n) {
    return static_cast<M>((1U << n) - 1U);
  }
  [[COCKTAIL_AVX512]] static D load_n(const double* p, std::size_t n) {
    return _mm512_maskz_loadu_pd(first(n), p);
  }
  [[COCKTAIL_AVX512]] static void store_n(double* p, D v, std::size_t n) {
    _mm512_mask_storeu_pd(p, first(n), v);
  }
  [[COCKTAIL_AVX512]] static D sqrt(D a) {
    return _mm512_maskz_sqrt_pd(kAll, a);
  }
  [[COCKTAIL_AVX512]] static D set1(double v) { return _mm512_set1_pd(v); }
  [[COCKTAIL_AVX512]] static D add(D a, D b) { return _mm512_add_pd(a, b); }
  [[COCKTAIL_AVX512]] static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  [[COCKTAIL_AVX512]] static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  [[COCKTAIL_AVX512]] static D div(D a, D b) { return _mm512_div_pd(a, b); }
  [[COCKTAIL_AVX512]] static D fmadd(D a, D b, D c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  [[COCKTAIL_AVX512]] static D fnmadd(D a, D b, D c) {
    return _mm512_fnmadd_pd(a, b, c);
  }
  [[COCKTAIL_AVX512]] static D fmsub(D a, D b, D c) {
    return _mm512_fmsub_pd(a, b, c);
  }
  [[COCKTAIL_AVX512]] static D trunc(D a) {
    return _mm512_maskz_roundscale_pd(kAll, a,
                                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  [[COCKTAIL_AVX512]] static D bit_and(D a, D b) {
    return _mm512_castsi512_pd(
        _mm512_and_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  [[COCKTAIL_AVX512]] static D bit_andnot(D a, D b) {
    return _mm512_castsi512_pd(_mm512_maskz_andnot_epi64(
        kAll, _mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  [[COCKTAIL_AVX512]] static D bit_or(D a, D b) {
    return _mm512_castsi512_pd(
        _mm512_or_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  [[COCKTAIL_AVX512]] static D bit_xor(D a, D b) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  [[COCKTAIL_AVX512]] static M lt(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  [[COCKTAIL_AVX512]] static M le(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  [[COCKTAIL_AVX512]] static M gt(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  [[COCKTAIL_AVX512]] static M ge(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  [[COCKTAIL_AVX512]] static M eq(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  [[COCKTAIL_AVX512]] static M unord(D a, D b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_UNORD_Q);
  }
  [[COCKTAIL_AVX512]] static M either(M a, M b) {
    return static_cast<M>(a | b);
  }
  [[COCKTAIL_AVX512]] static D blend(D a, D b, M m) {
    return _mm512_mask_blend_pd(m, a, b);
  }
  [[COCKTAIL_AVX512]] static I to_int64(D a) {
    return _mm512_maskz_cvtepi32_epi64(kAll,
                                       _mm512_maskz_cvttpd_epi32(kAll, a));
  }
  [[COCKTAIL_AVX512]] static I shl52(I a) {
    return _mm512_maskz_slli_epi64(kAll, a, 52);
  }
  [[COCKTAIL_AVX512]] static I sub64(I a, I b) {
    return _mm512_sub_epi64(a, b);
  }
  [[COCKTAIL_AVX512]] static I set1_64(std::int64_t v) {
    return _mm512_set1_epi64(v);
  }
  [[COCKTAIL_AVX512]] static D as_double(I a) {
    return _mm512_castsi512_pd(a);
  }
  [[COCKTAIL_AVX512]] static D add_bits(D a, I b) {
    return _mm512_castsi512_pd(_mm512_add_epi64(_mm512_castpd_si512(a), b));
  }
};

/// The dot schedule's lane trees of eight columns at once, in one zmm:
/// acc[q] holds column q's lanes 0-7 and lane q of the result is column q's
/// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)).  An 8x8 transpose in
/// three shuffle levels, each followed by the tree level whose operands it
/// lines up, first operand on the left as in the scalar tree.
[[COCKTAIL_AVX512]] inline __m512d lane_trees8(const __m512d* acc) {
  constexpr __mmask8 kAll = Lanes8::kAll;
  // Columns 2p and 2p+1: unpacklo holds their even lanes, unpackhi their
  // odd ones, so s[p]'s 128-bit lanes hold l0+l1, l2+l3, l4+l5 and l6+l7,
  // each for both columns.
  __m512d s[4];
  for (std::size_t p = 0; p < 4; ++p)
    s[p] = _mm512_add_pd(
        _mm512_maskz_unpacklo_pd(kAll, acc[2 * p], acc[2 * p + 1]),
        _mm512_maskz_unpackhi_pd(kAll, acc[2 * p], acc[2 * p + 1]));
  // 0x88 takes 128-bit lanes 0 and 2 of each source, 0xdd lanes 1 and 3:
  // u0 holds l0-3 and l4-7 of columns 0-1, then of columns 2-3; u1 the
  // same for columns 4-7.
  const __m512d u0 =
      _mm512_add_pd(_mm512_maskz_shuffle_f64x2(kAll, s[0], s[1], 0x88),
                    _mm512_maskz_shuffle_f64x2(kAll, s[0], s[1], 0xdd));
  const __m512d u1 =
      _mm512_add_pd(_mm512_maskz_shuffle_f64x2(kAll, s[2], s[3], 0x88),
                    _mm512_maskz_shuffle_f64x2(kAll, s[2], s[3], 0xdd));
  // l0-3 of columns 0-7 plus l4-7 of columns 0-7.
  return _mm512_add_pd(_mm512_maskz_shuffle_f64x2(kAll, u0, u1, 0x88),
                       _mm512_maskz_shuffle_f64x2(kAll, u0, u1, 0xdd));
}

/// out[r] = dot(a[r], b[q]) for MR rows of A and eight B rows, lane q of
/// out[r]: each column's eight schedule lanes in one zmm per A row, every
/// load of a B row shared by the MR rows.  The partial lane group at the
/// end of k is a masked fma that leaves the unfilled lanes as they are
/// (+0.0, or a signed zero they already hold), as the scalar schedule does.
template <std::size_t MR>
[[COCKTAIL_AVX512]] inline void dot_cols8(const double* const* a,
                                         const double* const* b,
                                         std::size_t k, __m512d* out) {
  __m512d run[MR];
  for (std::size_t r = 0; r < MR; ++r) run[r] = _mm512_setzero_pd();
  for (std::size_t t0 = 0; t0 < k; t0 += KB) {
    const std::size_t end = std::min(k, t0 + KB);
    __m512d acc[MR][8];
    for (std::size_t r = 0; r < MR; ++r)
      for (std::size_t q = 0; q < 8; ++q) acc[r][q] = _mm512_setzero_pd();
    std::size_t t = t0;
    for (; t + W <= end; t += W) {
      __m512d av[MR];
      for (std::size_t r = 0; r < MR; ++r) av[r] = _mm512_loadu_pd(a[r] + t);
      for (std::size_t q = 0; q < 8; ++q) {
        const __m512d bv = _mm512_loadu_pd(b[q] + t);
        for (std::size_t r = 0; r < MR; ++r)
          acc[r][q] = _mm512_fmadd_pd(av[r], bv, acc[r][q]);
      }
    }
    if (t < end) {
      const __mmask8 lanes = Lanes8::first(end - t);
      __m512d av[MR];
      for (std::size_t r = 0; r < MR; ++r)
        av[r] = _mm512_maskz_loadu_pd(lanes, a[r] + t);
      for (std::size_t q = 0; q < 8; ++q) {
        const __m512d bv = _mm512_maskz_loadu_pd(lanes, b[q] + t);
        for (std::size_t r = 0; r < MR; ++r)
          acc[r][q] = _mm512_mask3_fmadd_pd(av[r], bv, acc[r][q], lanes);
      }
    }
    for (std::size_t r = 0; r < MR; ++r)
      run[r] = _mm512_add_pd(run[r], lane_trees8(acc[r]));
  }
  for (std::size_t r = 0; r < MR; ++r) out[r] = run[r];
}

/// C(i..i+MR-1, j..j+cols-1) for one eight-column pass: a pass of fewer
/// columns repeats its last B row in the spare lanes and stores only its
/// own.
template <std::size_t MR>
[[COCKTAIL_AVX512]] inline void gemm_nt_pass8(
    std::size_t i, std::size_t j, std::size_t cols, std::size_t k,
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    const double* bias, double* c, std::size_t ldc) {
  const double* ap[MR];
  for (std::size_t r = 0; r < MR; ++r) ap[r] = a + (i + r) * lda;
  const double* bp[8];
  for (std::size_t q = 0; q < 8; ++q)
    bp[q] = b + (j + std::min(q, cols - 1)) * ldb;
  __m512d out[MR];
  dot_cols8<MR>(ap, bp, k, out);
  const __mmask8 lanes = Lanes8::first(cols);
  if (bias != nullptr) {
    const __m512d bv = _mm512_maskz_loadu_pd(lanes, bias + j);
    for (std::size_t r = 0; r < MR; ++r) out[r] = _mm512_add_pd(out[r], bv);
  }
  for (std::size_t r = 0; r < MR; ++r)
    _mm512_mask_storeu_pd(c + (i + r) * ldc + j, lanes, out[r]);
}

/// gemm_nt's one-output path (n = 1): rows i..i+7 of C per pass, row i + q
/// in lane q.  The weight row takes dot_cols8's A role and the eight rows
/// of A its B role, which is exact because fma(a, b, c) = fma(b, a, c).  A
/// pass of fewer rows repeats its last row in the spare lanes and stores
/// only its own.
[[COCKTAIL_AVX512]] inline void gemm_nt_col8(std::size_t m, std::size_t k,
                                            const double* a, std::size_t lda,
                                            const double* b,
                                            const double* bias, double* c,
                                            std::size_t ldc) {
  const double* const wp[1] = {b};
  for (std::size_t i = 0; i < m; i += 8) {
    const std::size_t rows = std::min<std::size_t>(8, m - i);
    const double* ap[8];
    for (std::size_t q = 0; q < 8; ++q)
      ap[q] = a + (i + std::min(q, rows - 1)) * lda;
    __m512d out;
    dot_cols8<1>(wp, ap, k, &out);
    if (bias != nullptr) out = _mm512_add_pd(out, _mm512_set1_pd(*bias));
    if (ldc == 1) {
      _mm512_mask_storeu_pd(c + i, Lanes8::first(rows), out);
    } else {
      double lanes[8];
      _mm512_storeu_pd(lanes, out);
      for (std::size_t q = 0; q < rows; ++q) c[(i + q) * ldc] = lanes[q];
    }
  }
}

#undef COCKTAIL_AVX512

static_assert(kGemmBlockCols % 8 == 0,
              "cache blocks must hold whole eight-column passes");

// lanes8::tanh_lanes<Lanes8> and the training kernels: the same texts,
// compiled for AVX-512F.
namespace lanes8 {
#define COCKTAIL_LANES_TARGET [[gnu::target("avx512f")]]
#include "la/tanh_lanes.inc"
#include "la/lane_kernels.inc"
#undef COCKTAIL_LANES_TARGET
}  // namespace lanes8

/// gemm_nt at eight lanes: one output column over at least eight rows takes
/// the one-output path (fewer rows, such as one act() call, keep the
/// one-column dot of gemm_nt_avx2); with n >= 8, k < 8 takes the short
/// path and k >= 8 passes of two A rows by eight output columns; any other
/// shape runs gemm_nt_avx2.
[[gnu::target("avx512f")]] void gemm_nt_avx512(
    std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, const double* bias,
    double* c, std::size_t ldc) {
  if (n == 1 && m >= 8) return gemm_nt_col8(m, k, a, lda, b, bias, c, ldc);
  if (k == 0 || n < 8)
    return gemm_nt_avx2(m, n, k, a, lda, b, ldb, bias, c, ldc);
  if (k < W)
    return lanes8::gemm_nt_short_lanes<Lanes8>(m, n, k, a, lda, b, ldb, bias,
                                               c, ldc);
  for (std::size_t j0 = 0; j0 < n; j0 += kGemmBlockCols) {
    const std::size_t jend = std::min(n, j0 + kGemmBlockCols);
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2)
      for (std::size_t j = j0; j < jend; j += 8)
        gemm_nt_pass8<2>(i, j, std::min<std::size_t>(8, jend - j), k, a, lda,
                         b, ldb, bias, c, ldc);
    if (i < m)
      for (std::size_t j = j0; j < jend; j += 8)
        gemm_nt_pass8<1>(i, j, std::min<std::size_t>(8, jend - j), k, a, lda,
                         b, ldb, bias, c, ldc);
  }
}

#endif  // COCKTAIL_LA_AVX512

}  // namespace

double tanh(double x) noexcept {
  const std::uint32_t jx = high_word(x);
  const std::uint32_t ix = jx & 0x7fffffffU;
  const bool negative = (jx >> 31) != 0;
  if (ix >= 0x7ff00000U)  // Inf or NaN
    return negative ? 1.0 / x - 1.0 : 1.0 / x + 1.0;
  if (ix < 0x3c800000U) return x * (1.0 + x);  // |x| < 2^-55, zeros too
  double z;
  if (ix >= 0x40360000U) {  // |x| >= 22
    z = kTanhSaturated;
  } else if (ix >= 0x3ff00000U) {  // |x| >= 1
    const double t = expm1_tanh_arg(std::fabs(x) + std::fabs(x));
    z = 1.0 - 2.0 / (t + 2.0);
  } else {
    const double t = expm1_tanh_arg(std::fabs(x) * -2.0);
    z = -t / (t + 2.0);
  }
  return negative ? -z : z;
}

namespace {

void tanh_rows_avx2(const double* z, double* out, std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(COCKTAIL_LA_VECTOR)
  for (; i + WT <= n; i += WT)
    _mm256_storeu_pd(out + i,
                     lanes4::tanh_lanes<Lanes4>(_mm256_loadu_pd(z + i)));
#endif
  for (; i < n; ++i) out[i] = tanh(z[i]);
}

#if defined(COCKTAIL_LA_VECTOR)
constexpr LaneKernels kAvx2Kernels{
    "avx2",
    gemm_nt_avx2,
    lanes4::matvec_t_rows_lanes<Lanes4>,
    lanes4::add_outer_rows_lanes<Lanes4>,
    lanes4::adam_update_lanes<Lanes4>,
    lanes4::sum_parts_lanes<Lanes4>,
    tanh_rows_avx2};
#else
constexpr LaneKernels kAvx2Kernels{
    "scalar",        gemm_nt_avx2,  matvec_t_rows_ref, add_outer_rows_ref,
    adam_update_ref, sum_parts_ref, tanh_rows_avx2};
#endif

#if defined(COCKTAIL_LA_AVX512)
[[gnu::target("avx512f")]] void tanh_rows_avx512(const double* z,
                                                 double* out,
                                                 std::size_t n) noexcept {
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    _mm512_storeu_pd(out + i,
                     lanes8::tanh_lanes<Lanes8>(_mm512_loadu_pd(z + i)));
  if (i < n) {
    // The n mod 8 tail: masked-off lanes load +0.0 and are never stored.
    const __mmask8 tail = Lanes8::first(n - i);
    _mm512_mask_storeu_pd(out + i, tail,
                          lanes8::tanh_lanes<Lanes8>(
                              _mm512_maskz_loadu_pd(tail, z + i)));
  }
}

constexpr LaneKernels kAvx512Kernels{
    "avx512",
    gemm_nt_avx512,
    lanes8::matvec_t_rows_lanes<Lanes8>,
    lanes8::add_outer_rows_lanes<Lanes8>,
    lanes8::adam_update_lanes<Lanes8>,
    lanes8::sum_parts_lanes<Lanes8>,
    tanh_rows_avx512};
#endif

}  // namespace

const LaneKernels& avx2_kernels() noexcept { return kAvx2Kernels; }

const LaneKernels& avx512_kernels() noexcept {
#if defined(COCKTAIL_LA_AVX512)
  return kAvx512Kernels;
#else
  return kAvx2Kernels;
#endif
}

bool avx512_supported() noexcept {
#if defined(COCKTAIL_LA_AVX512)
  // libgcc and compiler-rt report AVX-512F only when the OS also saves the
  // opmask and upper-ZMM state (XCR0), so this is the CPU's and the OS's
  // answer.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

const LaneKernels& dispatched_kernels() noexcept {
  static const LaneKernels& kernels =
      avx512_supported() ? avx512_kernels() : avx2_kernels();
  return kernels;
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb,
             const double* bias, double* c, std::size_t ldc) {
  dispatched_kernels().gemm_nt(m, n, k, a, lda, b, ldb, bias, c, ldc);
}

void matvec(std::size_t m, std::size_t k, const double* a, std::size_t lda,
            const double* x, double* y) {
  gemm_nt(1, m, k, x, k, a, lda, nullptr, y, m);
}

void matvec_t(std::size_t m, std::size_t k, const double* a, std::size_t lda,
              const double* x, double* y) {
  matvec_t_rows(1, m, k, a, lda, x, m, y, k);
}

void matvec_t_rows(std::size_t rows, std::size_t m, std::size_t k,
                   const double* a, std::size_t lda, const double* x,
                   std::size_t ldx, double* y, std::size_t ldy) {
  dispatched_kernels().matvec_t_rows(rows, m, k, a, lda, x, ldx, y, ldy);
}

void add_outer_rows(std::size_t rows, std::size_t m, std::size_t n,
                    const double* x, std::size_t ldx, const double* y,
                    std::size_t ldy, const std::size_t* y_rows, double* c,
                    std::size_t ldc) {
  dispatched_kernels().add_outer_rows(rows, m, n, x, ldx, y, ldy, y_rows, c,
                                      ldc);
}

void adam_update(const AdamStep& s, std::size_t n, double* p, double* m,
                 double* v, const double* g) {
  dispatched_kernels().adam_update(s, n, p, m, v, g);
}

void sum_parts(std::size_t count, const double* const* parts, std::size_t n,
               double* out) {
  dispatched_kernels().sum_parts(count, parts, n, out);
}

void tanh_rows(const double* z, double* out, std::size_t n) noexcept {
  dispatched_kernels().tanh_rows(z, out, n);
}

}  // namespace cocktail::la::kernels
