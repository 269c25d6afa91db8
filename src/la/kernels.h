// Deterministic blocked/SIMD linear-algebra kernels.
//
// Raw-pointer GEMM/matvec kernels implementing the fixed accumulation
// schedule of la/kernel_config.h.  Each optimized kernel has a scalar
// reference twin (`*_ref`) that executes the SAME schedule in plain loops;
// the pair is bitwise identical by construction (pinned by test_la), so the
// reference doubles as both a correctness oracle and the portable fallback.
//
// All implementations live in kernels.cpp, which the build compiles with
// -ffp-contract=off: no compiler may fuse a mul+add into an FMA there, so
// the schedule's operation sequence — and therefore every bit — is
// identical across optimization levels, vector ISAs (the COCKTAIL_SIMD
// toggle), and conforming compilers.
#pragma once

#include <cstddef>

namespace cocktail::la::kernels {

/// One dot product of length `k` under the fixed dot schedule.
[[nodiscard]] double dot(const double* a, const double* b, std::size_t k);
/// Scalar reference of the same schedule (bitwise identical to dot()).
[[nodiscard]] double dot_ref(const double* a, const double* b, std::size_t k);

/// C = A * B^T.  A is m x k (row stride lda), B is n x k (row stride ldb),
/// C is m x n (row stride ldc).  C(i, j) = dot(row i of A, row j of B)
/// under the fixed dot schedule; rows/columns are fully independent, so any
/// row of C is bitwise identical to the corresponding matvec.  A reduction
/// shorter than one lane group (k < kDotLanes, n >= 4) packs B^T and runs
/// four output columns per vector, each still through the whole schedule.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc);
/// Scalar reference of the same schedule (bitwise identical to gemm_nt()).
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
/// the fixed dot schedule — bitwise identical to row i of gemm_nt(A, {x}).
void matvec(std::size_t m, std::size_t k, const double* a, std::size_t lda,
            const double* x, double* y);

/// y = A^T x.  A is m x k (row stride lda), x has m entries, y has k.
/// Follows the transpose schedule of kernel_config.h.
void matvec_t(std::size_t m, std::size_t k, const double* a, std::size_t lda,
              const double* x, double* y);
/// Scalar reference of the transpose schedule (bitwise identical).
void matvec_t_ref(std::size_t m, std::size_t k, const double* a,
                  std::size_t lda, const double* x, double* y);

/// C += sum_r x_r y_r^T, one rank-1 update per row pair in row order: the
/// batched weight-gradient step of backpropagation.  X is rows x m (row
/// stride ldx), C is m x n (row stride ldc); row r of Y is the n doubles at
/// y + ldy * (y_rows ? y_rows[r] : r), so several X rows may share one Y
/// row.  Each C(i, j) receives C(i, j) = C(i, j) + X(r, i) * Y(r, j) for
/// r = 0, 1, ... — a rounded multiply, then a rounded add, never an fma —
/// the exact sequence `rows` successive Matrix::add_outer(1.0, x_r, y_r)
/// calls perform, so the two are bitwise identical.
void add_outer_rows(std::size_t rows, std::size_t m, std::size_t n,
                    const double* x, std::size_t ldx, const double* y,
                    std::size_t ldy, const std::size_t* y_rows, double* c,
                    std::size_t ldc);
/// Scalar reference of the same sequence (bitwise identical).
void add_outer_rows_ref(std::size_t rows, std::size_t m, std::size_t n,
                        const double* x, std::size_t ldx, const double* y,
                        std::size_t ldy, const std::size_t* y_rows, double* c,
                        std::size_t ldc);

/// The repo-owned tanh: fdlibm's tanh/expm1 operation sequence, with fused
/// multiply-adds exactly where glibc 2.36's x86-64 FMA build of expm1 fuses
/// them — the bits std::tanh returns on an FMA-capable x86-64 host with
/// that libm, on every host and in every build.  Odd.  Non-decreasing
/// across every branch threshold (test_verify_ibp sweeps +-20,000 ulps
/// around each); elsewhere it may dip by an ulp like any rounded tanh, and
/// IBP's outward() inflation absorbs that.
[[nodiscard]] double tanh(double x) noexcept;

/// out[i] = tanh(z[i]) for i < n, bit for bit, whichever path runs.  `out`
/// may equal `z`.  Takes tanh_rows_avx512 where
/// tanh_rows_avx512_supported(), tanh_rows_avx2 elsewhere.  Both run the one
/// vector op sequence of la/tanh_lanes.inc, in which each lane performs the
/// scalar kernel's operations, so the choice never changes a bit.
void tanh_rows(const double* z, double* out, std::size_t n) noexcept;
/// The four-lane instantiation: four lanes per AVX2 vector and the scalar
/// kernel for the n mod 4 tail; the scalar kernel throughout in a build
/// without AVX2 (COCKTAIL_SIMD=OFF).
void tanh_rows_avx2(const double* z, double* out, std::size_t n) noexcept;
/// The eight-lane instantiation: eight lanes per AVX-512F vector, the
/// n mod 8 tail in one masked vector.  Call it only where
/// tanh_rows_avx512_supported(); a build without it (COCKTAIL_SIMD=OFF)
/// runs tanh_rows_avx2 here.
void tanh_rows_avx512(const double* z, double* out, std::size_t n) noexcept;
/// True when this build carries the eight-lane instantiation and the CPU
/// and OS run AVX-512F.  Checked once per process.
[[nodiscard]] bool tanh_rows_avx512_supported() noexcept;
/// The path tanh_rows takes here: "avx512", "avx2" or "scalar".
[[nodiscard]] const char* tanh_rows_path() noexcept;

}  // namespace cocktail::la::kernels
