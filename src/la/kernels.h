// Deterministic blocked/SIMD linear-algebra kernels.
//
// Raw-pointer GEMM/matvec kernels implementing the fixed accumulation
// schedule of la/kernel_config.h.  Each optimized kernel has a scalar
// reference that executes the SAME schedule in plain loops — a `*_ref`
// twin, or for matvec_t_rows and sum_parts, matvec_t_ref per row and the
// zero-then-add sequence; the pair is bitwise identical by construction
// (pinned by test_la), so the reference doubles as both a correctness
// oracle and the portable fallback.
//
// All implementations live in kernels.cpp, which the build compiles with
// -ffp-contract=off: no compiler may fuse a mul+add into an FMA there, so
// the schedule's operation sequence — and therefore every bit — is
// identical across optimization levels, vector ISAs (the COCKTAIL_SIMD
// toggle), and conforming compilers.  The same holds for the training
// kernels without a schedule of their own (add_outer_rows, adam_update,
// sum_parts): each is a fixed sequence of rounded operations that every
// path performs per element.  Where the CPU and OS run AVX-512F the entry
// points take eight-lane instantiations, elsewhere four-lane AVX2 ones
// (LaneKernels); the path never changes a bit.
#pragma once

#include <cstddef>

namespace cocktail::la::kernels {

/// One dot product of length `k` under the fixed dot schedule.
[[nodiscard]] double dot(const double* a, const double* b, std::size_t k);
/// Scalar reference of the same schedule (bitwise identical to dot()).
[[nodiscard]] double dot_ref(const double* a, const double* b, std::size_t k);

/// C = A * B^T + bias.  A is m x k (row stride lda), B is n x k (row stride
/// ldb), C is m x n (row stride ldc), and `bias` holds n doubles or is null
/// (no bias).  C(i, j) = dot(row i of A, row j of B) under the fixed dot
/// schedule, then `+ bias[j]` as one rounded add — the bits of gemm_nt_ref
/// followed by a separate bias pass, which is what a dense layer computes.
/// Rows and columns are fully independent, so any row of C is bitwise
/// identical to the corresponding matvec.
///
/// The narrow shapes of small networks take their own paths, every element
/// still on the whole schedule:
///   * a reduction shorter than one lane group (k < kDotLanes) packs B^T
///     and runs one output column per lane, a vector of columns per pass
///     (four at AVX2 width for n >= 4, eight at AVX-512F width for
///     n >= 8).  Lanes k..7 of the schedule are +0.0, so the lane tree
///     skips the adds of sub-trees that hold only those lanes and of the
///     +0.0 operands they would contribute; the block accumulator's
///     `+0.0 + tree` stays, and it alone turns a −0.0 sum into +0.0 the
///     way the skipped adds would have: (x + (y + 0)) + 0 = (x + y) + 0
///     for every x and y, NaN and signed zeros included;
///   * on the AVX-512F path, one output column (n = 1) over at least
///     eight rows runs eight rows per pass, row q of the pass in lane q,
///     with the weight row as the shared operand — exact because
///     fma(a, b, c) = fma(b, a, c).  Fewer rows, such as one act() call,
///     keep the one-column dot;
///   * on the AVX-512F path a reduction of at least one lane group (k >= 8,
///     n >= 8) runs eight output columns per pass, the schedule's eight
///     lanes of each column in one zmm (see avx512_kernels()).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb,
             const double* bias, double* c, std::size_t ldc);
/// Scalar reference of the same schedule without a bias (bitwise identical
/// to gemm_nt() with a null bias).
void gemm_nt_ref(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc);

/// C = A * B.  A is m x k (row stride lda), B is k x n (row stride ldb),
/// C is m x n (row stride ldc).  Internally packs B^T once and runs the
/// gemm_nt schedule, so C(i, j) accumulates exactly like
/// dot(row i of A, column j of B).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc);
/// Scalar reference of the same schedule, written directly against the
/// strided column (no packing) — an independent implementation that must
/// still match gemm_nn() bitwise.
void gemm_nn_ref(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc);

/// y = A x.  A is m x k (row stride lda); y[i] = dot(row i of A, x) under
/// the fixed dot schedule: the one-row, bias-free gemm_nt(x, A), so it
/// takes that kernel's paths.
void matvec(std::size_t m, std::size_t k, const double* a, std::size_t lda,
            const double* x, double* y);

/// y = A^T x.  A is m x k (row stride lda), x has m entries, y has k.
/// Follows the transpose schedule of kernel_config.h: the one-row
/// matvec_t_rows.
void matvec_t(std::size_t m, std::size_t k, const double* a, std::size_t lda,
              const double* x, double* y);
/// Scalar reference of the transpose schedule (bitwise identical).
void matvec_t_ref(std::size_t m, std::size_t k, const double* a,
                  std::size_t lda, const double* x, double* y);

/// Y = X A: for each r < rows, row r of Y (k doubles at y + r * ldy)
/// = A^T (row r of X, m doubles at x + r * ldx) — the input gradients of a
/// tile of cotangent rows in one pass over A.  Every element follows the
/// transpose schedule, so row r is bitwise matvec_t_ref(A, row r of X).
/// Lanes run across the columns of A, a few cotangent rows share each load
/// of A, and the k mod (lane width) tail columns run in one masked vector.
void matvec_t_rows(std::size_t rows, std::size_t m, std::size_t k,
                   const double* a, std::size_t lda, const double* x,
                   std::size_t ldx, double* y, std::size_t ldy);

/// C += sum_r x_r y_r^T, one rank-1 update per row pair in row order: the
/// batched weight-gradient step of backpropagation.  X is rows x m (row
/// stride ldx), C is m x n (row stride ldc); row r of Y is the n doubles at
/// y + ldy * (y_rows ? y_rows[r] : r), so several X rows may share one Y
/// row.  Each C(i, j) receives C(i, j) = C(i, j) + X(r, i) * Y(r, j) for
/// r = 0, 1, ... — a rounded multiply, then a rounded add, never an fma —
/// the exact sequence `rows` successive Matrix::add_outer(1.0, x_r, y_r)
/// calls perform, so the two are bitwise identical.  Lanes run across the
/// columns of C.
void add_outer_rows(std::size_t rows, std::size_t m, std::size_t n,
                    const double* x, std::size_t ldx, const double* y,
                    std::size_t ldy, const std::size_t* y_rows, double* c,
                    std::size_t ldc);
/// Scalar reference of the same sequence (bitwise identical).
void add_outer_rows_ref(std::size_t rows, std::size_t m, std::size_t n,
                        const double* x, std::size_t ldx, const double* y,
                        std::size_t ldy, const std::size_t* y_rows, double* c,
                        std::size_t ldc);

/// The scalars of one Adam step: learning rate, moment decay rates, the
/// denominator's epsilon and the bias corrections 1 - beta^t.
struct AdamStep {
  double lr, beta1, beta2, eps, bc1, bc2;
};

/// Adam's update of n parameters p with moments m, v and gradient g, each
/// element in this order of rounded operations (no fma):
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + ((1 - beta2) * g) * g
///   p = p - (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
void adam_update(const AdamStep& s, std::size_t n, double* p, double* m,
                 double* v, const double* g);
/// Scalar reference of the same sequence (bitwise identical).
void adam_update_ref(const AdamStep& s, std::size_t n, double* p, double* m,
                     double* v, const double* g);

/// out[i] = ((+0.0 + parts[0][i]) + parts[1][i]) + ... + parts[count-1][i]
/// for i < n (+0.0 when count is 0): a chunked reduction's merge in one
/// pass, bitwise equal to zeroing `out` and then adding each part in order.
/// `out` must not overlap a part.
void sum_parts(std::size_t count, const double* const* parts, std::size_t n,
               double* out);

/// The repo-owned tanh: fdlibm's tanh/expm1 operation sequence, with fused
/// multiply-adds exactly where glibc 2.36's x86-64 FMA build of expm1 fuses
/// them — the bits std::tanh returns on an FMA-capable x86-64 host with
/// that libm, on every host and in every build.  Odd.  Non-decreasing
/// across every branch threshold (test_verify_ibp sweeps +-20,000 ulps
/// around each); elsewhere it may dip by an ulp like any rounded tanh, and
/// IBP's outward() inflation absorbs that.
[[nodiscard]] double tanh(double x) noexcept;

/// out[i] = tanh(z[i]) for i < n, bit for bit, whichever path runs.  `out`
/// may equal `z`.  Both vector instantiations run the one op sequence of
/// la/tanh_lanes.inc, in which each lane performs the scalar kernel's
/// operations, so the path never changes a bit.
void tanh_rows(const double* z, double* out, std::size_t n) noexcept;

/// One instantiation of the lane kernels, so tests and benchmarks can run a
/// path the dispatching entry points above do not take on this host.  Each
/// member computes the bits of the entry point of the same name.
struct LaneKernels {
  /// "avx512", "avx2", or "scalar" (the AVX2 table of a build without
  /// AVX2).
  const char* name;
  void (*gemm_nt)(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, const double* bias, double* c,
                  std::size_t ldc);
  void (*matvec_t_rows)(std::size_t rows, std::size_t m, std::size_t k,
                        const double* a, std::size_t lda, const double* x,
                        std::size_t ldx, double* y, std::size_t ldy);
  void (*add_outer_rows)(std::size_t rows, std::size_t m, std::size_t n,
                         const double* x, std::size_t ldx, const double* y,
                         std::size_t ldy, const std::size_t* y_rows,
                         double* c, std::size_t ldc);
  void (*adam_update)(const AdamStep& s, std::size_t n, double* p, double* m,
                      double* v, const double* g);
  void (*sum_parts)(std::size_t count, const double* const* parts,
                    std::size_t n, double* out);
  void (*tanh_rows)(const double* z, double* out, std::size_t n) noexcept;
};

/// Four lanes per AVX2 vector, with masked or scalar tails; gemm_nt runs
/// four output columns per pass (two ymm per column for k >= 8, one column
/// per lane for k < 8).  A build without AVX2 (COCKTAIL_SIMD=OFF) runs the
/// scalar kernels here.  Runs on every host the build runs on.
[[nodiscard]] const LaneKernels& avx2_kernels() noexcept;
/// Eight lanes per AVX-512F vector, tails in one masked vector; gemm_nt
/// runs eight output columns per pass for n >= 8 (for k >= 8 each column's
/// lanes in one zmm, the eight lane trees added at once through an
/// in-register 8x8 transpose; for k < 8 one column per lane) and eight rows
/// per pass for n = 1, m >= 8.  Call it only where avx512_supported(); a
/// build without it (COCKTAIL_SIMD=OFF) returns avx2_kernels() here.
[[nodiscard]] const LaneKernels& avx512_kernels() noexcept;
/// True when this build carries the eight-lane instantiation and the CPU
/// and OS run AVX-512F.  Checked once per process.
[[nodiscard]] bool avx512_supported() noexcept;
/// The instantiation the entry points run here: avx512_kernels() where
/// avx512_supported(), avx2_kernels() elsewhere.  Its name is the path.
[[nodiscard]] const LaneKernels& dispatched_kernels() noexcept;

}  // namespace cocktail::la::kernels
