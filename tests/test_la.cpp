// Unit + property tests for src/la: vector ops, Matrix, the deterministic
// blocked/SIMD kernel schedule, solvers, DARE.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "la/kernel_config.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/solve.h"
#include "la/vec.h"
#include "util/rng.h"

namespace cocktail {
namespace {

using la::Matrix;
using la::Vec;

TEST(Vec, AddSubScale) {
  const Vec a = {1.0, 2.0};
  const Vec b = {3.0, -1.0};
  EXPECT_EQ(la::add(a, b), (Vec{4.0, 1.0}));
  EXPECT_EQ(la::sub(a, b), (Vec{-2.0, 3.0}));
  EXPECT_EQ(la::scale(a, 2.0), (Vec{2.0, 4.0}));
}

TEST(Vec, DimensionMismatchThrows) {
  EXPECT_THROW(la::add({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)la::dot({1.0}, {}), std::invalid_argument);
}

TEST(Vec, Norms) {
  const Vec v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(la::norm_l1(v), 7.0);
  EXPECT_DOUBLE_EQ(la::norm_l2(v), 5.0);
  EXPECT_DOUBLE_EQ(la::norm_linf(v), 4.0);
}

TEST(Vec, ClipScalarAndVector) {
  const Vec v = {-5.0, 0.5, 5.0};
  EXPECT_EQ(la::clip(v, -1.0, 1.0), (Vec{-1.0, 0.5, 1.0}));
  const Vec lo = {-2.0, 0.0, 0.0};
  const Vec hi = {0.0, 0.25, 10.0};
  EXPECT_EQ(la::clip(v, lo, hi), (Vec{-2.0, 0.25, 5.0}));
}

TEST(Vec, SignAndHadamard) {
  EXPECT_EQ(la::sign({-2.0, 0.0, 3.0}), (Vec{-1.0, 0.0, 1.0}));
  EXPECT_EQ(la::hadamard({2.0, 3.0}, {4.0, -1.0}), (Vec{8.0, -3.0}));
}

TEST(Vec, ConstantAndZeros) {
  EXPECT_EQ(la::constant(3, 2.0), (Vec{2.0, 2.0, 2.0}));
  EXPECT_EQ(la::zeros(2), (Vec{0.0, 0.0}));
}

TEST(Vec, AllFinite) {
  EXPECT_TRUE(la::all_finite({1.0, -2.0}));
  EXPECT_FALSE(la::all_finite({1.0, std::nan("")}));
  EXPECT_FALSE(la::all_finite({INFINITY}));
}

TEST(Vec, Axpy) {
  Vec a = {1.0, 1.0};
  la::axpy(a, 2.0, {1.0, -1.0});
  EXPECT_EQ(a, (Vec{3.0, -1.0}));
}

TEST(MatrixTest, MatvecKnown) {
  Matrix m(2, 3, Vec{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.matvec({1.0, 0.0, -1.0}), (Vec{-2.0, -2.0}));
}

TEST(MatrixTest, MatvecTransposeMatchesTranspose) {
  util::Rng rng(3);
  Matrix m(4, 3, rng.normal_vec(12));
  const Vec x = rng.normal_vec(4);
  const Vec direct = m.matvec_transpose(x);
  const Vec viaT = m.transpose().matvec(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(direct[i], viaT[i], 1e-12);
}

TEST(MatrixTest, MatmulIdentity) {
  util::Rng rng(5);
  Matrix m(3, 3, rng.normal_vec(9));
  const Matrix mi = m.matmul(Matrix::identity(3));
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_DOUBLE_EQ(mi.data()[i], m.data()[i]);
}

TEST(MatrixTest, MatmulAssociativityOnVector) {
  util::Rng rng(7);
  Matrix a(3, 4, rng.normal_vec(12));
  Matrix b(4, 2, rng.normal_vec(8));
  const Vec x = rng.normal_vec(2);
  const Vec lhs = a.matmul(b).matvec(x);
  const Vec rhs = a.matvec(b.matvec(x));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-12);
}

TEST(MatrixTest, AddOuterMatchesManual) {
  Matrix m(2, 2);
  m.add_outer(2.0, {1.0, 3.0}, {4.0, 5.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 24.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 30.0);
}

TEST(MatrixTest, SpectralNormDiagonal) {
  const Matrix m = Matrix::diagonal({1.0, -3.0, 2.0});
  EXPECT_NEAR(m.spectral_norm(), 3.0, 1e-9);
}

TEST(MatrixTest, SpectralNormRotationIsOne) {
  const double c = std::cos(0.7), s = std::sin(0.7);
  Matrix rot(2, 2, Vec{c, -s, s, c});
  EXPECT_NEAR(rot.spectral_norm(), 1.0, 1e-9);
}

TEST(MatrixTest, SpectralNormDominatesOperatorAction) {
  // Property: ||Mx|| <= sigma * ||x|| for any x.
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m(3, 5, rng.normal_vec(15));
    const double sigma = m.spectral_norm();
    for (int k = 0; k < 10; ++k) {
      const Vec x = rng.normal_vec(5);
      EXPECT_LE(la::norm_l2(m.matvec(x)), sigma * la::norm_l2(x) + 1e-9);
    }
  }
}

TEST(MatrixTest, InfNorm) {
  Matrix m(2, 2, Vec{1.0, -2.0, 0.5, 0.25});
  EXPECT_DOUBLE_EQ(m.inf_norm(), 3.0);
}

TEST(MatrixTest, SumSquaresAndFrobenius) {
  Matrix m(1, 2, Vec{3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.sum_squares(), 25.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(MatrixTest, FromRowsStacksAndRejectsRagged) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_EQ(m.row(1), (Vec{3.0, 4.0}));
  EXPECT_THROW((void)Matrix::from_rows({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)m.row(3), std::out_of_range);
}

TEST(MatrixTest, FromRowsEmptyListThrows) {
  // An empty stack has no first row to take the column count from; a silent
  // 0 x 0 answer would disagree with whatever shape the caller expected.
  // Batch assemblers guard the empty case themselves (NnController::
  // act_batch returns {} before calling from_rows).
  EXPECT_THROW((void)Matrix::from_rows({}), std::invalid_argument);
}

TEST(MatrixTest, MatmulNtRowsAreBitwiseMatvecs) {
  // The serving-runtime contract: row r of A * B^T must equal B.matvec(row
  // r of A) exactly — same scalar accumulation order, same bits.
  util::Rng rng(19);
  Matrix a(5, 7);
  Matrix b(4, 7);
  for (auto& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix c = a.matmul_nt(b);
  ASSERT_EQ(c.rows(), 5u);
  ASSERT_EQ(c.cols(), 4u);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const Vec expected = b.matvec(a.row(r));
    for (std::size_t j = 0; j < expected.size(); ++j)
      ASSERT_EQ(c(r, j), expected[j]) << "row " << r << " col " << j;
  }
  EXPECT_THROW((void)a.matmul_nt(Matrix(4, 6)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fixed-accumulation-schedule kernels (la/kernels.h).
//
// The vectorized kernels and the plain-loop references implement the SAME
// schedule (la/kernel_config.h), so their results must agree bit for bit —
// on every shape, including ones that are not multiples of any panel size.
// ---------------------------------------------------------------------------

/// Shapes deliberately chosen to miss every panel boundary: 1x1, primes,
/// tall/skinny, and inner dims straddling kDotBlockK.
std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
kernel_test_shapes() {
  const std::size_t bk = la::kernels::kDotBlockK;
  return {
      {1, 1, 1},        {2, 3, 5},         {7, 7, 7},
      {13, 17, 19},     {5, 4, 31},        {1, 3, bk + 1},
      {3, 1, bk - 1},   {2, 2, 2 * bk + 3}, {64, 64, 64},
      {33, 65, 127},
  };
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_bitwise_rows(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c)
      ASSERT_EQ(got(r, c), want(r, c)) << "(" << r << ", " << c << ")";
}

TEST(KernelSchedule, DotMatchesReferenceAcrossLengths) {
  const std::size_t bk = la::kernels::kDotBlockK;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{13}, std::size_t{31}, bk - 1, bk, bk + 1,
                        2 * bk + 3}) {
    const Matrix a = random_matrix(1, k, 100 + k);
    const Matrix b = random_matrix(1, k, 200 + k);
    const double fast = la::kernels::dot(a.data().data(), b.data().data(), k);
    const double ref =
        la::kernels::dot_ref(a.data().data(), b.data().data(), k);
    ASSERT_EQ(fast, ref) << "k = " << k;
  }
}

TEST(KernelSchedule, GemmNtBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    const Matrix a = random_matrix(m, k, 31 * m + n);
    const Matrix b = random_matrix(n, k, 57 * n + k);
    const Matrix fast = a.matmul_nt(b);
    Matrix ref(m, n);
    la::kernels::gemm_nt_ref(m, n, k, a.data().data(), k, b.data().data(), k,
                             ref.data().data(), n);
    SCOPED_TRACE(::testing::Message()
                 << "shape " << m << " x " << n << " x " << k);
    expect_bitwise_rows(fast, ref);
  }
}

TEST(KernelSchedule, GemmNnBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    const Matrix a = random_matrix(m, k, 71 * m + k);
    const Matrix b = random_matrix(k, n, 93 * n + m);
    const Matrix fast = a.matmul(b);
    Matrix ref(m, n);
    la::kernels::gemm_nn_ref(m, n, k, a.data().data(), k, b.data().data(), n,
                             ref.data().data(), n);
    SCOPED_TRACE(::testing::Message()
                 << "shape " << m << " x " << n << " x " << k);
    expect_bitwise_rows(fast, ref);
  }
}

TEST(KernelSchedule, MatvecBitwiseMatchesDotReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    (void)n;
    const Matrix a = random_matrix(m, k, 11 * m + k);
    const Matrix x = random_matrix(1, k, 13 * k + m);
    Vec xv(x.data().begin(), x.data().end());
    const Vec y = a.matvec(xv);
    ASSERT_EQ(y.size(), m);
    for (std::size_t r = 0; r < m; ++r) {
      const double ref = la::kernels::dot_ref(a.data().data() + r * k,
                                              x.data().data(), k);
      ASSERT_EQ(y[r], ref) << "row " << r << ", shape " << m << " x " << k;
    }
  }
}

TEST(KernelSchedule, MatvecTransposeBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    (void)n;
    const Matrix a = random_matrix(m, k, 17 * m + k);
    const Matrix x = random_matrix(1, m, 23 * m + k);
    Vec xv(x.data().begin(), x.data().end());
    const Vec y = a.matvec_transpose(xv);
    Vec ref(k, 0.0);
    la::kernels::matvec_t_ref(m, k, a.data().data(), k, xv.data(),
                              ref.data());
    ASSERT_EQ(y.size(), k);
    for (std::size_t c = 0; c < k; ++c)
      ASSERT_EQ(y[c], ref[c]) << "col " << c << ", shape " << m << " x " << k;
  }
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation: the old kernels skipped zero operands as a fast path,
// which silently swallowed 0 * NaN and 0 * Inf (both NaN under IEEE 754).
// ---------------------------------------------------------------------------

TEST(KernelSchedule, AddOuterRowsMatchesSuccessiveAddOuter) {
  // The batched weight-gradient update equals `rows` successive rank-1
  // add_outer(1.0, x_r, y_r) calls bitwise — also through a row map and
  // past the kernel's internal row block — and the vector kernel equals
  // its scalar reference.
  util::Rng rng(41);
  for (const std::size_t m : {1u, 3u, 17u, 64u}) {
    for (const std::size_t n : {1u, 3u, 4u, 17u, 64u}) {
      for (const std::size_t rows : {1u, 7u, 16u, 70u}) {
        la::Matrix x(rows, m), y(rows, n), c0(m, n);
        for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
        for (auto& v : y.data()) v = rng.uniform(-1.0, 1.0);
        for (auto& v : c0.data()) v = rng.uniform(-1.0, 1.0);
        std::vector<std::size_t> map(rows);
        for (std::size_t r = 0; r < rows; ++r) map[r] = (r * 5) % rows;
        for (const bool mapped : {false, true}) {
          la::Matrix oracle = c0, fast = c0, ref = c0;
          for (std::size_t r = 0; r < rows; ++r)
            oracle.add_outer(1.0, x.row(r), y.row(mapped ? map[r] : r));
          const std::size_t* rows_of_y = mapped ? map.data() : nullptr;
          la::kernels::add_outer_rows(rows, m, n, x.data().data(), m,
                                      y.data().data(), n, rows_of_y,
                                      fast.data().data(), n);
          la::kernels::add_outer_rows_ref(rows, m, n, x.data().data(), m,
                                          y.data().data(), n, rows_of_y,
                                          ref.data().data(), n);
          ASSERT_EQ(fast.data(), oracle.data())
              << m << "x" << n << " rows " << rows << " mapped " << mapped;
          ASSERT_EQ(ref.data(), oracle.data())
              << m << "x" << n << " rows " << rows << " mapped " << mapped;
        }
      }
    }
  }
}

TEST(MatrixTest, MatmulPropagatesNanThroughZeroRows) {
  // A is all zeros; the old `if (aik == 0.0) continue;` skip never touched
  // B, so a NaN in B vanished.  0 * NaN = NaN must reach the output.
  Matrix a(1, 2);  // zero-initialised
  Matrix b(2, 1);
  b(0, 0) = std::nan("");
  b(1, 0) = 1.0;
  EXPECT_TRUE(std::isnan(a.matmul(b)(0, 0)));
}

TEST(MatrixTest, MatmulPropagatesNanThroughZeroOperand) {
  // Mirror image: the NaN sits in A, the zero in B.
  Matrix a(1, 2);
  a(0, 0) = std::nan("");
  a(0, 1) = 1.0;
  Matrix b(2, 1);  // zero-initialised
  EXPECT_TRUE(std::isnan(a.matmul(b)(0, 0)));
  EXPECT_TRUE(std::isnan(a.matmul_nt(Matrix(1, 2))(0, 0)));
  EXPECT_TRUE(std::isnan(a.matvec(Vec{0.0, 0.0})[0]));
}

TEST(MatrixTest, MatmulPropagatesInfTimesZeroAsNan) {
  Matrix a(1, 1);  // zero
  Matrix b(1, 1);
  b(0, 0) = INFINITY;
  EXPECT_TRUE(std::isnan(a.matmul(b)(0, 0)));
}

TEST(MatrixTest, AddOuterPropagatesNan) {
  // The old kernel skipped columns where k * col[r] == 0.0, so a NaN (or
  // Inf) in `row` never contaminated those entries.
  Matrix m(1, 1);
  m.add_outer(1.0, Vec{0.0}, Vec{std::nan("")});
  EXPECT_TRUE(std::isnan(m(0, 0)));
  Matrix m2(1, 1);
  m2.add_outer(0.0, Vec{1.0}, Vec{INFINITY});
  EXPECT_TRUE(std::isnan(m2(0, 0)));
}

TEST(MatrixTest, SpectralNormRejectsNonPositiveIters) {
  // iters <= 0 used to fall through to `return 0.0` — an unsound Lipschitz
  // "bound" that flowed into SafetyMonitor::action_deviation_bound and
  // certified everything.
  const Matrix m = Matrix::diagonal({2.0, 5.0});
  EXPECT_THROW((void)m.spectral_norm(0), std::invalid_argument);
  EXPECT_THROW((void)m.spectral_norm(-3), std::invalid_argument);
  // The validation precedes the empty-matrix early-out.
  EXPECT_THROW((void)Matrix().spectral_norm(0), std::invalid_argument);
  EXPECT_NEAR(m.spectral_norm(50), 5.0, 1e-9);
}

TEST(MatrixTest, RowBroadcastOps) {
  Matrix m(2, 3, Vec{1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  m.scale_columns({2.0, 0.5, -1.0});
  EXPECT_EQ(m.row(0), (Vec{2.0, 1.0, -3.0}));
  EXPECT_EQ(m.row(1), (Vec{8.0, 2.5, -6.0}));
  EXPECT_THROW(m.scale_columns({1.0}), std::invalid_argument);
}

TEST(Solve, KnownSystem) {
  Matrix a(2, 2, Vec{2.0, 1.0, 1.0, 3.0});
  const Vec x = la::solve(a, Vec{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, SingularThrows) {
  Matrix a(2, 2, Vec{1.0, 2.0, 2.0, 4.0});
  EXPECT_THROW(la::solve(a, Vec{1.0, 1.0}), std::runtime_error);
}

class SolveRandom : public ::testing::TestWithParam<int> {};

TEST_P(SolveRandom, ResidualIsTiny) {
  util::Rng rng(100 + GetParam());
  const std::size_t n = 2 + GetParam() % 5;
  Matrix a(n, n, rng.normal_vec(n * n));
  // Diagonal dominance keeps the random systems well-conditioned.
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  const Vec b = rng.normal_vec(n);
  const Vec x = la::solve(a, b);
  const Vec r = la::sub(a.matvec(x), b);
  EXPECT_LT(la::norm_l2(r), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveRandom, ::testing::Range(0, 12));

// Property: A * solve(A, b) ≈ b on random well-conditioned systems, with
// the matrices and right-hand sides drawn from util::Rng streams.
class SolveRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  /// Random diagonally-dominant n x n matrix (condition number stays small,
  /// so the round-trip tolerances below are dimension-robust).
  static Matrix well_conditioned(std::size_t n, util::Rng& rng) {
    Matrix a(n, n, rng.normal_vec(n * n));
    for (std::size_t i = 0; i < n; ++i)
      a(i, i) += static_cast<double>(n) + 3.0;
    return a;
  }
};

TEST_P(SolveRoundTrip, VectorRhs) {
  util::Rng rng(9000 + GetParam());
  const std::size_t n = 1 + GetParam() % 7;
  const Matrix a = well_conditioned(n, rng);
  const Vec b = rng.uniform_vec(n, -5.0, 5.0);
  const Vec reconstructed = a.matvec(la::solve(a, b));
  EXPECT_LT(la::norm_linf(la::sub(reconstructed, b)), 1e-9);
}

TEST_P(SolveRoundTrip, RecoversAKnownSolution) {
  // Forward direction: from a known x, b = A x; solve must recover x.
  util::Rng rng(7000 + GetParam());
  const std::size_t n = 2 + GetParam() % 6;
  const Matrix a = well_conditioned(n, rng);
  const Vec x_true = rng.normal_vec(n);
  const Vec x = la::solve(a, a.matvec(x_true));
  EXPECT_LT(la::norm_linf(la::sub(x, x_true)), 1e-9);
}

TEST_P(SolveRoundTrip, MatrixRhs) {
  // Column-by-column round trip: A * solve(A, B) ≈ B.
  util::Rng rng(5000 + GetParam());
  const std::size_t n = 2 + GetParam() % 5;
  const std::size_t cols = 1 + GetParam() % 4;
  const Matrix a = well_conditioned(n, rng);
  const Matrix b(n, cols, rng.normal_vec(n * cols));
  const Matrix reconstructed = a.matmul(la::solve(a, b));
  EXPECT_LT((reconstructed - b).frobenius_norm(), 1e-9);
}

TEST_P(SolveRoundTrip, InverseTimesMatrixIsIdentityBothSides) {
  util::Rng rng(3000 + GetParam());
  const std::size_t n = 2 + GetParam() % 5;
  const Matrix a = well_conditioned(n, rng);
  const Matrix inv = la::inverse(a);
  const Matrix eye = Matrix::identity(n);
  EXPECT_LT((a.matmul(inv) - eye).frobenius_norm(), 1e-9);
  EXPECT_LT((inv.matmul(a) - eye).frobenius_norm(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveRoundTrip, ::testing::Range(0, 16));

TEST(Solve, InverseRoundTrip) {
  util::Rng rng(17);
  Matrix a(3, 3, rng.normal_vec(9));
  for (std::size_t i = 0; i < 3; ++i) a(i, i) += 4.0;
  const Matrix prod = a.matmul(la::inverse(a));
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
}

TEST(Dare, DoubleIntegratorStabilizes) {
  // s = (pos, vel); A: integrator, B acts on velocity.
  const double tau = 0.1;
  Matrix a = Matrix::identity(2);
  a(0, 1) = tau;
  Matrix b(2, 1);
  b(1, 0) = tau;
  const auto result =
      la::solve_dare(a, b, Matrix::identity(2), Matrix::identity(1) * 0.1);
  // Closed-loop A - BK must contract: simulate and require decay.
  const Matrix a_cl = a - b.matmul(result.k);
  Vec s = {1.0, 1.0};
  for (int t = 0; t < 200; ++t) s = a_cl.matvec(s);
  EXPECT_LT(la::norm_l2(s), 1e-3);
}

TEST(Dare, RiccatiFixedPointHolds) {
  const double tau = 0.1;
  Matrix a = Matrix::identity(2);
  a(0, 1) = tau;
  Matrix b(2, 1);
  b(1, 0) = tau;
  const Matrix q = Matrix::identity(2);
  const Matrix r = Matrix::identity(1) * 0.5;
  const auto res = la::solve_dare(a, b, q, r);
  // Check P = A'P(A - BK) + Q at the fixed point.
  const Matrix rhs = a.transpose().matmul(
                         res.p.matmul(a - b.matmul(res.k))) + q;
  EXPECT_LT((rhs - res.p).frobenius_norm(), 1e-8);
}

}  // namespace
}  // namespace cocktail
