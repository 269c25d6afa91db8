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
/// row of C is bitwise identical to the corresponding matvec.
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

}  // namespace cocktail::la::kernels
