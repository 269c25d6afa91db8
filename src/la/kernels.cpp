// Implementations of the deterministic blocked/SIMD LA kernels.
//
// THIS FILE IS COMPILED WITH -ffp-contract=off (set per-source by the root
// CMakeLists).  Every lane update of the schedule is an EXPLICIT
// correctly-rounded fused multiply-add (std::fma in scalar code,
// _mm256_fmadd_pd in the AVX2 path — the same IEEE-754 fusedMultiplyAdd
// operation, one rounding); -ffp-contract=off forbids the compiler from
// fusing or splitting anything *else*, so the fixed accumulation schedule
// of la/kernel_config.h produces the same bits at every optimization
// level, with or without COCKTAIL_SIMD, on every conforming compiler.
// add_outer_rows is the one kernel without an fma: its contract is the
// rounded multiply, then rounded add, of Matrix::add_outer, and
// -ffp-contract=off is what keeps the two unfused.
//
// The vectorized kernels pack four schedule lanes into one 256-bit
// register: every vfmadd/vaddpd is the element-wise image of the scalar
// schedule's per-lane operations, in the same order.  Vectorization
// therefore never reorders an accumulation; it only packs independent
// lanes into one instruction.  Without AVX2+FMA at compile time the
// optimized entry points fall back to the scalar reference — same
// schedule, same bits (std::fma is correctly rounded even via libm's
// software path).
#include "la/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "la/kernel_config.h"

#if defined(__AVX2__) && defined(__FMA__)
#define COCKTAIL_LA_VECTOR 1
#include <immintrin.h>
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

/// out[j] = dot(a, b[j]) for TR parallel B-rows under the fixed dot
/// schedule.  TR is the register-tile width: it only reuses the loads of
/// `a` across the TR accumulations, each of which is the schedule verbatim.
/// Schedule lanes 0-3 live in lo[j], lanes 4-7 in hi[j] — 2*TR+2 ymm
/// registers total, so the accumulators stay register-resident for the
/// kGemmTileCols tile.
template <std::size_t TR>
inline void dot_rows(const double* a, const double* const* b, std::size_t k,
                     double* out) {
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
  for (std::size_t j = 0; j < TR; ++j) out[j] = acc[j];
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
  dot_rows<1>(a, bp, k, &out);
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

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
#if defined(COCKTAIL_LA_VECTOR)
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
        dot_rows<NR>(ai, bp, k, ci + j);
      }
      for (; j < jend; ++j) {
        const double* bp[1] = {b + j * ldb};
        dot_rows<1>(ai, bp, k, ci + j);
      }
    }
  }
#else
  gemm_nt_ref(m, n, k, a, lda, b, ldb, c, ldc);
#endif
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
  gemm_nt(m, n, k, a, lda, bt.data(), k, c, ldc);
}

void matvec(std::size_t m, std::size_t k, const double* a, std::size_t lda,
            const double* x, double* y) {
  for (std::size_t i = 0; i < m; ++i) y[i] = dot(a + i * lda, x, k);
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

void matvec_t(std::size_t m, std::size_t k, const double* a, std::size_t lda,
              const double* x, double* y) {
#if defined(COCKTAIL_LA_VECTOR)
  std::fill(y, y + k, 0.0);
  for (std::size_t r0 = 0; r0 < m; r0 += RB) {
    const std::size_t rend = std::min(m, r0 + RB);
    std::size_t c = 0;
    for (; c + WT <= k; c += WT) {
      // One vector register per schedule lane, each holding that lane's
      // partial sums for the four output columns c..c+3.  The row loop is
      // unrolled by the lane count so every lane register gets a constant
      // index and stays register-resident.
      __m256d l0 = _mm256_setzero_pd(), l1 = _mm256_setzero_pd();
      __m256d l2 = _mm256_setzero_pd(), l3 = _mm256_setzero_pd();
      std::size_t r = r0;
      for (; r + WT <= rend; r += WT) {
        const double* ar = a + r * lda + c;
        l0 = _mm256_fmadd_pd(_mm256_loadu_pd(ar), _mm256_set1_pd(x[r]), l0);
        l1 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + lda),
                             _mm256_set1_pd(x[r + 1]), l1);
        l2 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + 2 * lda),
                             _mm256_set1_pd(x[r + 2]), l2);
        l3 = _mm256_fmadd_pd(_mm256_loadu_pd(ar + 3 * lda),
                             _mm256_set1_pd(x[r + 3]), l3);
      }
      // <= 3 tail rows; after the unrolled groups they map to lanes 0..2
      // of the schedule in order.
      for (std::size_t idx = 0; r < rend; ++r, ++idx) {
        const __m256d av = _mm256_loadu_pd(a + r * lda + c);
        const __m256d xv = _mm256_set1_pd(x[r]);
        if (idx == 0)
          l0 = _mm256_fmadd_pd(av, xv, l0);
        else if (idx == 1)
          l1 = _mm256_fmadd_pd(av, xv, l1);
        else
          l2 = _mm256_fmadd_pd(av, xv, l2);
      }
      const __m256d sum = _mm256_add_pd(_mm256_add_pd(l0, l1),
                                        _mm256_add_pd(l2, l3));
      _mm256_storeu_pd(y + c, _mm256_add_pd(_mm256_loadu_pd(y + c), sum));
    }
    for (; c < k; ++c) {
      double lanes[WT] = {};
      for (std::size_t r = r0; r < rend; ++r) {
        double& lane = lanes[(r - r0) % WT];
        lane = std::fma(a[r * lda + c], x[r], lane);
      }
      y[c] += reduce4(lanes);
    }
  }
#else
  matvec_t_ref(m, k, a, lda, x, y);
#endif
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

void add_outer_rows(std::size_t rows, std::size_t m, std::size_t n,
                    const double* x, std::size_t ldx, const double* y,
                    std::size_t ldy, const std::size_t* y_rows, double* c,
                    std::size_t ldc) {
#if defined(COCKTAIL_LA_VECTOR)
  // Row pointers of Y, resolved once per call instead of once per C row.
  constexpr std::size_t kMaxRows = 64;
  if (rows > kMaxRows) {
    // Consecutive row blocks keep every element's update sequence in order.
    const bool mapped = y_rows != nullptr;
    for (std::size_t r0 = 0; r0 < rows; r0 += kMaxRows)
      add_outer_rows(std::min(kMaxRows, rows - r0), m, n, x + r0 * ldx, ldx,
                     mapped ? y : y + r0 * ldy, ldy,
                     mapped ? y_rows + r0 : nullptr, c, ldc);
    return;
  }
  const double* yr[kMaxRows];
  for (std::size_t r = 0; r < rows; ++r)
    yr[r] = y + (y_rows != nullptr ? y_rows[r] : r) * ldy;
  // Each C element stays in a register across all rows; the rows are
  // applied in order with _mm256_mul_pd then _mm256_add_pd, the element-wise
  // image of the reference's multiply-then-add.
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 * WT <= n; j += 4 * WT) {
      __m256d c0 = _mm256_loadu_pd(ci + j);
      __m256d c1 = _mm256_loadu_pd(ci + j + WT);
      __m256d c2 = _mm256_loadu_pd(ci + j + 2 * WT);
      __m256d c3 = _mm256_loadu_pd(ci + j + 3 * WT);
      for (std::size_t r = 0; r < rows; ++r) {
        const __m256d xv = _mm256_set1_pd(x[r * ldx + i]);
        const double* yj = yr[r] + j;
        c0 = _mm256_add_pd(c0, _mm256_mul_pd(xv, _mm256_loadu_pd(yj)));
        c1 = _mm256_add_pd(c1, _mm256_mul_pd(xv, _mm256_loadu_pd(yj + WT)));
        c2 = _mm256_add_pd(c2,
                           _mm256_mul_pd(xv, _mm256_loadu_pd(yj + 2 * WT)));
        c3 = _mm256_add_pd(c3,
                           _mm256_mul_pd(xv, _mm256_loadu_pd(yj + 3 * WT)));
      }
      _mm256_storeu_pd(ci + j, c0);
      _mm256_storeu_pd(ci + j + WT, c1);
      _mm256_storeu_pd(ci + j + 2 * WT, c2);
      _mm256_storeu_pd(ci + j + 3 * WT, c3);
    }
    for (; j + WT <= n; j += WT) {
      __m256d c0 = _mm256_loadu_pd(ci + j);
      for (std::size_t r = 0; r < rows; ++r)
        c0 = _mm256_add_pd(c0, _mm256_mul_pd(_mm256_set1_pd(x[r * ldx + i]),
                                             _mm256_loadu_pd(yr[r] + j)));
      _mm256_storeu_pd(ci + j, c0);
    }
    for (; j < n; ++j) {
      double cij = ci[j];
      for (std::size_t r = 0; r < rows; ++r)
        cij = cij + x[r * ldx + i] * yr[r][j];
      ci[j] = cij;
    }
  }
#else
  add_outer_rows_ref(rows, m, n, x, ldx, y, ldy, y_rows, c, ldc);
#endif
}

}  // namespace cocktail::la::kernels
