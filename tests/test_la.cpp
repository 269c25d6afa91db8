// Unit + property tests for src/la: vector ops, Matrix, the deterministic
// blocked/SIMD kernel schedule, solvers, DARE.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
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

TEST(MatrixTest, RowCopiesAndRejectsOutOfRange) {
  const Matrix m(3, 2, Vec{1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  EXPECT_EQ(m.row(1), (Vec{3.0, 4.0}));
  EXPECT_THROW((void)m.row(3), std::out_of_range);
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
/// tall/skinny, and inner dims straddling kDotBlockK — plus every
/// reduction shorter than one lane group that gemm_nt's short path takes
/// (k < kDotLanes, n >= 4), with n mod 4 leftovers and row counts around
/// Mlp::kForwardTileRows.
std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
kernel_test_shapes() {
  const std::size_t bk = la::kernels::kDotBlockK;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {
      {1, 1, 1},        {2, 3, 5},         {7, 7, 7},
      {13, 17, 19},     {5, 4, 31},        {1, 3, bk + 1},
      {3, 1, bk - 1},   {2, 2, 2 * bk + 3}, {64, 64, 64},
      {33, 65, 127},
  };
  for (const std::size_t k : {1u, 2u, 3u, 7u})
    for (const std::size_t n : {4u, 5u, 24u, 40u, 41u})
      for (const std::size_t m : {1u, 8u, 64u, 65u})
        shapes.emplace_back(m, n, k);
  return shapes;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Operands for the schedule tests: each row is uniform, all -tiny, all
/// +tiny (a -tiny row times a +tiny row underflows every product to -0.0),
/// all signed zeros, or a per-element mix that adds +-Inf and NaN — so the
/// outputs include signed zeros, underflowed sums, infinities and NaNs.
Matrix special_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  constexpr double kTiny = 1e-200;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t kind = rng.uniform_int(0, 4);
    for (std::size_t c = 0; c < cols; ++c) {
      double& v = m(r, c);
      const double u = rng.uniform(-1.0, 1.0);
      switch (kind) {
        case 0:
          v = u;
          break;
        case 1:
          v = -kTiny * (1.5 + u);
          break;
        case 2:
          v = kTiny * (1.5 + u);
          break;
        case 3:
          v = u < 0.0 ? -0.0 : 0.0;
          break;
        default: {
          const std::int64_t pick = rng.uniform_int(0, 19);
          v = pick < 12 ? u
              : pick < 14 ? 0.0
              : pick < 16 ? -0.0
              : pick < 18 ? kTiny * u
              : pick < 19 ? (u < 0.0 ? -inf : inf)
                          : nan;
        }
      }
    }
  }
  return m;
}

/// The schedule tests run every shape twice: on uniform operands, whose
/// finite outputs check the rounding of every operation, and on
/// special_matrix operands, which check signed zeros, underflow, Inf and
/// NaN.
Matrix operand_matrix(bool special, std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  return special ? special_matrix(rows, cols, seed)
                 : random_matrix(rows, cols, seed);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality: +0.0 and -0.0 differ.  Any two NaNs match — IEEE 754
/// leaves which operand's payload a NaN result carries to the hardware, so
/// NaN payloads are outside the schedule's contract (NaN-ness is not).
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || bits(a) == bits(b);
}

void expect_bitwise_rows(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c)
      ASSERT_TRUE(same_bits(got(r, c), want(r, c)))
          << "(" << r << ", " << c << "): " << got(r, c) << " vs "
          << want(r, c);
}

TEST(KernelSchedule, DotMatchesReferenceAcrossLengths) {
  const std::size_t bk = la::kernels::kDotBlockK;
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{13}, std::size_t{31}, bk - 1, bk, bk + 1,
                        2 * bk + 3}) {
    for (const bool special : {false, true}) {
      const Matrix a = operand_matrix(special, 1, k, 100 + k);
      const Matrix b = operand_matrix(special, 1, k, 200 + k);
      const double fast =
          la::kernels::dot(a.data().data(), b.data().data(), k);
      const double ref =
          la::kernels::dot_ref(a.data().data(), b.data().data(), k);
      ASSERT_TRUE(same_bits(fast, ref)) << "k = " << k << ": " << fast
                                        << " vs " << ref;
    }
  }
}

TEST(KernelSchedule, GemmNtBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    for (const bool special : {false, true}) {
      const Matrix a = operand_matrix(special, m, k, 31 * m + n);
      const Matrix b = operand_matrix(special, n, k, 57 * n + k);
      const Matrix fast = a.matmul_nt(b);
      Matrix ref(m, n);
      la::kernels::gemm_nt_ref(m, n, k, a.data().data(), k, b.data().data(),
                               k, ref.data().data(), n);
      SCOPED_TRACE(::testing::Message() << "shape " << m << " x " << n
                                        << " x " << k << ", special "
                                        << special);
      expect_bitwise_rows(fast, ref);
    }
  }
}

TEST(KernelSchedule, GemmNnBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    for (const bool special : {false, true}) {
      const Matrix a = operand_matrix(special, m, k, 71 * m + k);
      const Matrix b = operand_matrix(special, k, n, 93 * n + m);
      const Matrix fast = a.matmul(b);
      Matrix ref(m, n);
      la::kernels::gemm_nn_ref(m, n, k, a.data().data(), k, b.data().data(),
                               n, ref.data().data(), n);
      SCOPED_TRACE(::testing::Message() << "shape " << m << " x " << n
                                        << " x " << k << ", special "
                                        << special);
      expect_bitwise_rows(fast, ref);
    }
  }
}

TEST(KernelSchedule, MatvecBitwiseMatchesDotReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    (void)n;
    for (const bool special : {false, true}) {
      const Matrix a = operand_matrix(special, m, k, 11 * m + k);
      const Matrix x = operand_matrix(special, 1, k, 13 * k + m);
      Vec xv(x.data().begin(), x.data().end());
      const Vec y = a.matvec(xv);
      ASSERT_EQ(y.size(), m);
      for (std::size_t r = 0; r < m; ++r) {
        const double ref = la::kernels::dot_ref(a.data().data() + r * k,
                                                x.data().data(), k);
        ASSERT_TRUE(same_bits(y[r], ref))
            << "row " << r << ", shape " << m << " x " << k << ", special "
            << special << ": " << y[r] << " vs " << ref;
      }
    }
  }
}

TEST(KernelSchedule, MatvecTransposeBitwiseMatchesReference) {
  for (const auto& [m, n, k] : kernel_test_shapes()) {
    (void)n;
    for (const bool special : {false, true}) {
      const Matrix a = operand_matrix(special, m, k, 17 * m + k);
      const Matrix x = operand_matrix(special, 1, m, 23 * m + k);
      Vec xv(x.data().begin(), x.data().end());
      const Vec y = a.matvec_transpose(xv);
      Vec ref(k, 0.0);
      la::kernels::matvec_t_ref(m, k, a.data().data(), k, xv.data(),
                                ref.data());
      ASSERT_EQ(y.size(), k);
      for (std::size_t c = 0; c < k; ++c)
        ASSERT_TRUE(same_bits(y[c], ref[c]))
            << "col " << c << ", shape " << m << " x " << k << ", special "
            << special << ": " << y[c] << " vs " << ref[c];
    }
  }
}

// ---------------------------------------------------------------------------
// The tanh kernel (la::kernels::tanh / tanh_rows).
// ---------------------------------------------------------------------------

/// (input bits, tanh bits) pairs, generated once with std::tanh from
/// glibc 2.36 on an AVX2/FMA x86-64 machine — whose expm1 is the FMA build
/// the kernel reproduces.  They cover the zeros, subnormals, every branch
/// threshold of tanh and of expm1's reduction (the high words of 2|x|),
/// one input per reachable k (-3..0 and 3..63) and the k boundaries where
/// expm1's result formula changes, saturation, +-Inf and NaNs.  For each
/// fma whose rounding can reach the result, one "unfused ... differs"
/// input returns other bits when that fma is split into a multiply and an
/// add.  (The others cannot be told apart: expm1's hi = u - k*ln2_hi and
/// 0.5*(x-e) - 0.5 multiply exactly, and the four fmas of the polynomial's
/// upper terms changed no output over 40M sampled inputs.)
constexpr std::uint64_t kTanhGolden[][2] = {
    {0x0000000000000000ULL, 0x0000000000000000ULL},  // +0
    {0x8000000000000000ULL, 0x8000000000000000ULL},  // -0
    {0x0000000000000001ULL, 0x0000000000000001ULL},  // min subnormal
    {0x8000000000000001ULL, 0x8000000000000001ULL},  // -min subnormal
    {0x000fffffffffffffULL, 0x000fffffffffffffULL},  // max subnormal
    {0x8008000000000123ULL, 0x8008000000000123ULL},  // subnormal
    {0x0010000000000000ULL, 0x0010000000000000ULL},  // min normal
    {0x3c7fffffffffffffULL, 0x3c7fffffffffffffULL},  // below 2^-55: x*(1+x)
    {0x3c80000000000000ULL, 0x3c80000000000000ULL},  // 2^-55: expm1 path, k = 0
    {0xbc80000000000000ULL, 0xbc80000000000000ULL},  // -2^-55
    {0x3c90000000000000ULL, 0x3c90000000000000ULL},  // 2^-54
    {0x3fefffffffffffffULL, 0x3fe85efab514f394ULL},  // below 1: k = -3
    {0x3ff0000000000000ULL, 0x3fe85efab514f394ULL},  // 1: k = 3
    {0xbff0000000000000ULL, 0xbfe85efab514f394ULL},  // -1
    {0x4035ffffffffffffULL, 0x3ff0000000000000ULL},  // below 22: k = 63
    {0x4036000000000000ULL, 0x3ff0000000000000ULL},  // 22: saturated
    {0xc036000000000000ULL, 0xbff0000000000000ULL},  // -22
    {0x3fc62e41ffffffffULL, 0x3fc5f618a093875dULL},  // 2|x| just below 3fd62e42
    {0x3fc62e4200000000ULL, 0x3fc5f618a093875dULL},  // 2|x| high word 3fd62e42
    {0x3fc62e42ffffffffULL, 0x3fc5f619990a5491ULL},  // 2|x| just below 3fd62e43
    {0x3fc62e4300000000ULL, 0x3fc5f619990a5491ULL},  // 2|x| high word 3fd62e43
    {0x3fe0a2b0ffffffffULL, 0x3fde90dd28e2a645ULL},  // 2|x| just below 3ff0a2b1
    {0x3fe0a2b100000000ULL, 0x3fde90dd28e2a645ULL},  // 2|x| high word 3ff0a2b1
    {0x3fe0a2b1ffffffffULL, 0x3fde90deb419e67bULL},  // 2|x| just below 3ff0a2b2
    {0x3fe0a2b200000000ULL, 0x3fde90deb419e67cULL},  // 2|x| high word 3ff0a2b2
    {0x40336879ffffffffULL, 0x3ff0000000000000ULL},  // 2|x| just below 4043687a
    {0x4033687a00000000ULL, 0x3ff0000000000000ULL},  // 2|x| high word 4043687a
    {0x3fb999999999999aULL, 0x3fb983d7795f413aULL},  // k = 0
    {0xbfd6666666666666ULL, 0xbfd5872d4a8651d6ULL},  // k = -1
    {0x3fe6666666666666ULL, 0x3fe356fb17af2e92ULL},  // k = -2
    {0xbfedc28f5c28f5c3ULL, 0xbfe76106734c7527ULL},  // k = -3
    {0xbff0a2b23f3bab73ULL, 0xbfe8e38e38e38e38ULL},  // k = 3
    {0x3ff62e42fefa39efULL, 0x3fec3c3c3c3c3c3cULL},  // k = 4
    {0xbffbb9d3beb8c86bULL, 0xbfee0f83e0f83e10ULL},  // k = 5
    {0x4000a2b23f3bab73ULL, 0x3fef03f03f03f03fULL},  // k = 6
    {0xc003687a9f1af2b1ULL, 0xbfef80fe03f80fe0ULL},  // k = 7
    {0x40062e42fefa39efULL, 0x3fefc03fc03fc040ULL},  // k = 8
    {0xc008f40b5ed9812dULL, 0xbfefe00ff803fe01ULL},  // k = 9
    {0x400bb9d3beb8c86bULL, 0x3feff003ff003ff0ULL},  // k = 10
    {0xc00e7f9c1e980fa9ULL, 0xbfeff800ffe00400ULL},  // k = 11
    {0x4010a2b23f3bab73ULL, 0x3feffc003ffc0040ULL},  // k = 12
    {0xc01205966f2b4f12ULL, 0xbfeffe000fff8004ULL},  // k = 13
    {0x4013687a9f1af2b1ULL, 0x3fefff0003fff000ULL},  // k = 14
    {0xc014cb5ecf0a9650ULL, 0xbfefff8000fffe00ULL},  // k = 15
    {0x40162e42fefa39efULL, 0x3fefffc0003fffc0ULL},  // k = 16
    {0xc01791272ee9dd8eULL, 0xbfefffe0000ffff8ULL},  // k = 17
    {0x4018f40b5ed9812dULL, 0x3feffff00003ffffULL},  // k = 18
    {0xc01a56ef8ec924ccULL, 0xbfeffff800010000ULL},  // k = 19
    {0x401bb9d3beb8c86bULL, 0x3feffffc00004000ULL},  // k = 20
    {0xc01d1cb7eea86c0aULL, 0xbfeffffe00001000ULL},  // k = 21
    {0x401e7f9c1e980fa9ULL, 0x3fefffff00000400ULL},  // k = 22
    {0xc01fe2804e87b348ULL, 0xbfefffff80000100ULL},  // k = 23
    {0x4020a2b23f3bab73ULL, 0x3fefffffc0000040ULL},  // k = 24
    {0xc021542457337d43ULL, 0xbfefffffe0000010ULL},  // k = 25
    {0x402205966f2b4f12ULL, 0x3feffffff0000004ULL},  // k = 26
    {0xc022b708872320e2ULL, 0xbfeffffff8000001ULL},  // k = 27
    {0x4023687a9f1af2b1ULL, 0x3feffffffc000000ULL},  // k = 28
    {0xc02419ecb712c481ULL, 0xbfeffffffe000000ULL},  // k = 29
    {0x4024cb5ecf0a9650ULL, 0x3fefffffff000000ULL},  // k = 30
    {0xc0257cd0e7026820ULL, 0xbfefffffff800000ULL},  // k = 31
    {0x40262e42fefa39efULL, 0x3fefffffffc00000ULL},  // k = 32
    {0xc026dfb516f20bbeULL, 0xbfefffffffe00000ULL},  // k = 33
    {0x402791272ee9dd8eULL, 0x3feffffffff00000ULL},  // k = 34
    {0xc028429946e1af5dULL, 0xbfeffffffff80000ULL},  // k = 35
    {0x4028f40b5ed9812dULL, 0x3feffffffffc0000ULL},  // k = 36
    {0xc029a57d76d152fcULL, 0xbfeffffffffe0000ULL},  // k = 37
    {0x402a56ef8ec924ccULL, 0x3fefffffffff0000ULL},  // k = 38
    {0xc02b0861a6c0f69bULL, 0xbfefffffffff8000ULL},  // k = 39
    {0x402bb9d3beb8c86bULL, 0x3fefffffffffc000ULL},  // k = 40
    {0xc02c6b45d6b09a3aULL, 0xbfefffffffffe000ULL},  // k = 41
    {0x402d1cb7eea86c0aULL, 0x3feffffffffff000ULL},  // k = 42
    {0xc02dce2a06a03dd9ULL, 0xbfeffffffffff800ULL},  // k = 43
    {0x402e7f9c1e980fa9ULL, 0x3feffffffffffc00ULL},  // k = 44
    {0xc02f310e368fe178ULL, 0xbfeffffffffffe00ULL},  // k = 45
    {0x402fe2804e87b348ULL, 0x3fefffffffffff00ULL},  // k = 46
    {0xc03049f9333fc28cULL, 0xbfefffffffffff80ULL},  // k = 47
    {0x4030a2b23f3bab73ULL, 0x3fefffffffffffc0ULL},  // k = 48
    {0xc030fb6b4b37945bULL, 0xbfefffffffffffe0ULL},  // k = 49
    {0x4031542457337d43ULL, 0x3feffffffffffff0ULL},  // k = 50
    {0xc031acdd632f662aULL, 0xbfeffffffffffff8ULL},  // k = 51
    {0x403205966f2b4f12ULL, 0x3feffffffffffffcULL},  // k = 52
    {0xc0325e4f7b2737faULL, 0xbfeffffffffffffeULL},  // k = 53
    {0x4032b708872320e2ULL, 0x3fefffffffffffffULL},  // k = 54
    {0xc0330fc1931f09c9ULL, 0xbfefffffffffffffULL},  // k = 55
    {0x4033687a9f1af2b1ULL, 0x3ff0000000000000ULL},  // k = 56
    {0xc033c133ab16db99ULL, 0xbff0000000000000ULL},  // k = 57
    {0x403419ecb712c481ULL, 0x3ff0000000000000ULL},  // k = 58
    {0xc03472a5c30ead68ULL, 0xbff0000000000000ULL},  // k = 59
    {0x4034cb5ecf0a9650ULL, 0x3ff0000000000000ULL},  // k = 60
    {0xc0352417db067f38ULL, 0xbff0000000000000ULL},  // k = 61
    {0x40357cd0e7026820ULL, 0x3ff0000000000000ULL},  // k = 62
    {0xc035d589f2fe5107ULL, 0xbff0000000000000ULL},  // k = 63
    {0x3ff3687a9f1af2b1ULL, 0x3feacd734cfa2558ULL},  // last k = 3
    {0x3ff3687a9f1af2b2ULL, 0x3feacd734cfa2558ULL},  // first k = 4
    {0x401b0861a6c0f69aULL, 0x3feffffa57d8e660ULL},  // last k = 19
    {0x401b0861a6c0f69bULL, 0x3feffffa57d8e660ULL},  // first k = 20
    {0x403394d72518e724ULL, 0x3ff0000000000000ULL},  // last k = 56
    {0x403394d72518e725ULL, 0x3ff0000000000000ULL},  // first k = 57
    {0x4039000000000000ULL, 0x3ff0000000000000ULL},  // 25
    {0x7e37e43c8800759cULL, 0x3ff0000000000000ULL},  // 1e300
    {0xffefffffffffffffULL, 0xbff0000000000000ULL},  // -max
    {0x7ff0000000000000ULL, 0x3ff0000000000000ULL},  // +Inf
    {0xfff0000000000000ULL, 0xbff0000000000000ULL},  // -Inf
    {0x7ff8000000000000ULL, 0x7ff8000000000000ULL},  // qNaN
    {0xfff8000000000000ULL, 0xfff8000000000000ULL},  // -qNaN
    {0x7ff4000000000000ULL, 0x7ffc000000000000ULL},  // sNaN payload
    {0x3fc7b8c148be4790ULL, 0x3fc7742c3f02fa92ULL},  // unfused hxs*Q1+1 differs
    {0xbfca8f6c62acc2e8ULL, 0xbfca2f7cd473529cULL},  // unfused 3-r1*hfx differs
    {0x3fc831c0325484f4ULL, 0x3fc7e906d2ac2a7eULL},  // unfused 6-x*t differs
    {0x3fafe7cc863a01b4ULL, 0x3fafdd3e2f4a1b38ULL},  // unfused e*x-hxs differs
    {0xbfdd462d75cd959fULL, 0xbfdb63da67035fb9ULL},  // unfused (e-c)x-c differs
    {0x3fe0000000000000ULL, 0x3fdd9353d7568af3ULL},  // 0.5
    {0xc000000000000000ULL, 0xbfeed9505e1bc3d4ULL},  // -2
    {0x4008000000000000ULL, 0x3fefd77d111a0b00ULL},  // 3
    {0xbfd0000000000000ULL, 0xbfcf597ea69a1c86ULL},  // -0.25
    {0x3ddb7cdfd9d7bdbbULL, 0x3ddb7cdfd9d7bdbbULL},  // 1e-10
    {0xbee4f8b588e368f1ULL, 0xbee4f8b588e06854ULL},  // -1e-5
    {0x3f847ae147ae147bULL, 0x3f847ab48ae4595eULL},  // 0.01
    {0xc01e000000000000ULL, 0xbfeffffeb78a3c73ULL},  // -7.5
    {0x4028800000000000ULL, 0x3feffffffff9b4beULL},  // 12.25
    {0xbfe62e42fefa39efULL, 0xbfe3333333333333ULL},  // -ln2
};

std::vector<double> tanh_golden_inputs() {
  std::vector<double> x;
  for (const auto& entry : kTanhGolden)
    x.push_back(std::bit_cast<double>(entry[0]));
  return x;
}

/// One way to run a row of tanh values: the dispatching entry point or one
/// of the two vector instantiations by name.
struct TanhRowsPath {
  const char* name;
  void (*rows)(const double*, double*, std::size_t) noexcept;
};

std::vector<TanhRowsPath> tanh_rows_paths() {
  return {{"tanh_rows", la::kernels::tanh_rows},
          {"avx2", la::kernels::avx2_kernels().tanh_rows},
          {"avx512", la::kernels::avx512_kernels().tanh_rows}};
}

/// The paths this host can run: the eight-lane one only where it is
/// supported.
std::vector<TanhRowsPath> runnable_tanh_rows_paths() {
  std::vector<TanhRowsPath> paths;
  for (const TanhRowsPath& path : tanh_rows_paths())
    if (std::string_view(path.name) != "avx512" ||
        la::kernels::avx512_supported())
      paths.push_back(path);
  return paths;
}

TEST(TanhKernel, MatchesGoldenTable) {
  // Exact bits, NaNs included: each output has a single NaN source.  Each
  // input also goes through every runnable row path in every lane of a
  // 4-wide and an 8-wide row, so each vector instantiation must reproduce
  // it in each of its lanes.
  ASSERT_GE(std::size(kTanhGolden), 96u);
  const std::vector<TanhRowsPath> paths = runnable_tanh_rows_paths();
  for (const auto& [in, want] : kTanhGolden) {
    const double x = std::bit_cast<double>(in);
    EXPECT_EQ(bits(la::kernels::tanh(x)), want)
        << "scalar, x = " << std::hexfloat << x;
    for (const TanhRowsPath& path : paths) {
      for (const std::size_t width : {4u, 8u}) {
        for (std::size_t lane = 0; lane < width; ++lane) {
          double row[8] = {0.5, -1.5, 3.0, -0.25, 30.0, -7.5, 1e-3, -0.0};
          row[lane] = x;
          path.rows(row, row, width);
          EXPECT_EQ(bits(row[lane]), want)
              << path.name << ", width " << width << ", lane " << lane
              << ", x = " << std::hexfloat << x;
        }
      }
    }
  }
}

class TanhKernelRows : public ::testing::TestWithParam<TanhRowsPath> {};

TEST_P(TanhKernelRows, RowsMatchScalarKernelAtEveryRowLength) {
  // Every window of the golden corpus, so each input meets every vector
  // lane and the tail (scalar after four lanes, masked after eight), next
  // to finite and non-finite neighbours; also in place (out == z).
  // Lengths 15, 16 and 17 put a masked tail of 7, none and 1 lanes after
  // whole eight-lane vectors.
  const TanhRowsPath& path = GetParam();
  if (std::string_view(path.name) == "avx512" &&
      !la::kernels::avx512_supported())
    GTEST_SKIP() << "the eight-lane instantiation needs AVX-512F";
  const std::vector<double> corpus = tanh_golden_inputs();
  for (const std::size_t len : {1u, 3u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 65u}) {
    for (std::size_t start = 0; start + len <= corpus.size(); ++start) {
      const double* z = corpus.data() + start;
      std::vector<double> out(len);
      std::vector<double> in_place(z, z + len);
      path.rows(z, out.data(), len);
      path.rows(in_place.data(), in_place.data(), len);
      for (std::size_t q = 0; q < len; ++q) {
        const std::uint64_t want = bits(la::kernels::tanh(z[q]));
        ASSERT_EQ(bits(out[q]), want)
            << "len " << len << " start " << start << " lane " << q;
        ASSERT_EQ(bits(in_place[q]), want)
            << "in place, len " << len << " start " << start << " lane " << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, TanhKernelRows, ::testing::ValuesIn(tanh_rows_paths()),
    [](const ::testing::TestParamInfo<TanhRowsPath>& info) {
      return std::string(info.param.name);
    });

TEST(TanhKernel, RowsPathNamesTheDispatchedInstantiation) {
  const la::kernels::LaneKernels& dispatched =
      la::kernels::dispatched_kernels();
  EXPECT_EQ(&dispatched, la::kernels::avx512_supported()
                             ? &la::kernels::avx512_kernels()
                             : &la::kernels::avx2_kernels());
  const std::string_view path = dispatched.name;
  EXPECT_EQ(path == "avx512", la::kernels::avx512_supported());
  EXPECT_TRUE(path == "avx512" || path == "avx2" || path == "scalar") << path;
}

// ---------------------------------------------------------------------------
// The lane kernels by instantiation.  Each table (la::kernels::LaneKernels)
// must reproduce its scalar reference bit for bit: the four-lane one on every
// host, the eight-lane one where the host runs AVX-512F (elsewhere its tests
// skip).
// ---------------------------------------------------------------------------

struct KernelPath {
  const char* name;
  const la::kernels::LaneKernels& (*table)() noexcept;
};

constexpr KernelPath kKernelPaths[] = {{"avx2", la::kernels::avx2_kernels},
                                       {"avx512", la::kernels::avx512_kernels}};

void PrintTo(const KernelPath& path, std::ostream* os) { *os << path.name; }

class LaneKernelPaths : public ::testing::TestWithParam<KernelPath> {
 protected:
  void SetUp() override {
    if (std::string_view(GetParam().name) == "avx512" &&
        !la::kernels::avx512_supported())
      GTEST_SKIP() << "the eight-lane instantiation needs AVX-512F";
  }
  [[nodiscard]] const la::kernels::LaneKernels& kernels() const {
    return GetParam().table();
  }
};

/// A rows x cols operand stored with `pad` NaN columns after each row, so a
/// kernel that reads past a row, or strides wrongly, reads NaN.
Vec padded_operand(bool special, std::size_t rows, std::size_t cols,
                   std::size_t pad, std::uint64_t seed) {
  const Matrix m = operand_matrix(special, rows, cols, seed);
  Vec out(rows * (cols + pad), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) out[r * (cols + pad) + c] = m(r, c);
  return out;
}

TEST_P(LaneKernelPaths, GemmNtMatchesReferenceAtEveryColumnTail) {
  // k from one lane group to past two blocks (partial lane groups at 9, 15,
  // 17 and 257), n mod 8 = 0..7 after one and after eight eight-column
  // passes, and n < 8, where the eight-lane table takes the four-lane
  // kernel.  Strided rows; C's padding must stay untouched.
  const std::size_t bk = la::kernels::kDotBlockK;
  for (const std::size_t k : {std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17}, bk - 1, bk,
                              bk + 1, 2 * bk + 1}) {
    for (const std::size_t n : {1u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 15u,
                                64u, 65u, 66u, 67u, 68u, 69u, 70u, 71u}) {
      for (const std::size_t m : {1u, 3u}) {
        for (const bool special : {false, true}) {
          const Vec a = padded_operand(special, m, k, 2, 7 * k + m);
          const Vec b = padded_operand(special, n, k, 3, 11 * k + n);
          Vec fast(m * (n + 1), 7.0), ref(m * (n + 1), 7.0);
          kernels().gemm_nt(m, n, k, a.data(), k + 2, b.data(), k + 3, nullptr,
                            fast.data(), n + 1);
          la::kernels::gemm_nt_ref(m, n, k, a.data(), k + 2, b.data(), k + 3,
                                   ref.data(), n + 1);
          for (std::size_t q = 0; q < fast.size(); ++q)
            ASSERT_TRUE(same_bits(fast[q], ref[q]))
                << "m " << m << " n " << n << " k " << k << " special "
                << special << " at " << q << ": " << fast[q] << " vs "
                << ref[q];
        }
      }
    }
  }
}

TEST_P(LaneKernelPaths, GemmNtNarrowLayersMatchReferencePlusBias) {
  // The shapes of small networks' layers: reductions of one partial lane
  // group (k < 8, the short path) and one full one, one output column (from
  // 8 rows on at AVX-512F width, the one-output path) and n mod 8 = 1, 2, 7
  // column tails, at every row count up to two passes past 8 and one full
  // tile.  Each must equal gemm_nt_ref followed by a separate bias add;
  // special operands give -0.0 products and sums, Inf and NaN, and the
  // special bias holds -0.0 (+0.0 + -0.0 is +0.0, -0.0 + -0.0 is -0.0),
  // +-Inf and NaN.  C is written at its own stride and one wider.
  std::vector<std::size_t> rows;
  for (std::size_t m = 1; m <= 17; ++m) rows.push_back(m);
  rows.push_back(64);
  for (std::size_t k = 1; k <= 8; ++k) {
    for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 17u, 24u, 40u}) {
      for (const std::size_t m : rows) {
        for (const bool special : {false, true}) {
          const Vec a = padded_operand(special, m, k, 2, 5 * k + m);
          const Vec b = padded_operand(special, n, k, 3, 9 * k + n);
          Vec bias = operand_matrix(special, 1, n, 3 * n + k).data();
          if (special) {
            const double inf = std::numeric_limits<double>::infinity();
            const double picks[] = {-0.0, inf, -inf,
                                    std::numeric_limits<double>::quiet_NaN()};
            for (std::size_t j = 0; j < n; ++j)
              if (j % 3 == 0) bias[j] = picks[(j / 3) % 4];
          }
          for (const std::size_t ldc : {n, n + 1}) {
            for (const bool biased : {false, true}) {
              Vec fast(m * ldc, 7.0), ref(m * ldc, 7.0);
              kernels().gemm_nt(m, n, k, a.data(), k + 2, b.data(), k + 3,
                                biased ? bias.data() : nullptr, fast.data(),
                                ldc);
              la::kernels::gemm_nt_ref(m, n, k, a.data(), k + 2, b.data(),
                                       k + 3, ref.data(), ldc);
              if (biased)
                for (std::size_t i = 0; i < m; ++i)
                  for (std::size_t j = 0; j < n; ++j)
                    ref[i * ldc + j] = ref[i * ldc + j] + bias[j];
              for (std::size_t q = 0; q < fast.size(); ++q)
                ASSERT_TRUE(same_bits(fast[q], ref[q]))
                    << "m " << m << " n " << n << " k " << k << " ldc "
                    << ldc << " special " << special << " bias " << biased
                    << " at " << q << ": " << fast[q] << " vs " << ref[q];
            }
          }
        }
      }
    }
  }
}

TEST_P(LaneKernelPaths, MatvecTRowsMatchesPerRowReference) {
  // 1-9 cotangent rows (whole row tiles and every leftover tile at either
  // width), m across the 256-row block edge with 0-3 rows after the last
  // group of four, and k mod 8 = 0..7 column tails.  Strided X and Y rows;
  // Y's padding must stay untouched.
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    for (const std::size_t m : {1u, 3u, 4u, 6u, 255u, 256u, 257u, 515u}) {
      for (const std::size_t k :
           {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 14u, 16u, 17u, 64u}) {
        for (const bool special : {false, true}) {
          const Vec a = padded_operand(special, m, k, 1, 13 * m + k);
          const Vec x = padded_operand(special, rows, m, 2, 17 * rows + m);
          Vec fast(rows * (k + 3), 7.0), ref(rows * (k + 3), 7.0);
          kernels().matvec_t_rows(rows, m, k, a.data(), k + 1, x.data(),
                                  m + 2, fast.data(), k + 3);
          for (std::size_t r = 0; r < rows; ++r)
            la::kernels::matvec_t_ref(m, k, a.data(), k + 1,
                                      x.data() + r * (m + 2),
                                      ref.data() + r * (k + 3));
          for (std::size_t q = 0; q < fast.size(); ++q)
            ASSERT_TRUE(same_bits(fast[q], ref[q]))
                << "rows " << rows << " m " << m << " k " << k
                << " special " << special << " at " << q << ": " << fast[q]
                << " vs " << ref[q];
        }
      }
    }
  }
}

TEST_P(LaneKernelPaths, AdamUpdateMatchesScalarReference) {
  // Every tail length at either width, early and late bias corrections.
  // Uniform operands keep v >= 0 so every output is finite and checks the
  // rounding of each operation; special operands also give sqrt a
  // negative, a signed zero and NaN.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 15u, 16u,
                              17u, 64u, 101u}) {
    for (const bool special : {false, true}) {
      for (const double t : {1.0, 2.0, 1000.0}) {
        const la::kernels::AdamStep step{
            3e-4, 0.9, 0.999, 1e-8, 1.0 - std::pow(0.9, t),
            1.0 - std::pow(0.999, t)};
        const std::uint64_t seed = 19 * n + static_cast<std::uint64_t>(t);
        Vec p = operand_matrix(special, 1, n, seed).data();
        Vec m = operand_matrix(special, 1, n, seed + 1).data();
        Vec v = operand_matrix(special, 1, n, seed + 2).data();
        const Vec g = operand_matrix(special, 1, n, seed + 3).data();
        if (!special)
          for (double& e : v) e = std::fabs(e);
        Vec p_ref = p, m_ref = m, v_ref = v;
        kernels().adam_update(step, n, p.data(), m.data(), v.data(),
                              g.data());
        la::kernels::adam_update_ref(step, n, p_ref.data(), m_ref.data(),
                                     v_ref.data(), g.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(same_bits(m[i], m_ref[i])) << "m, n " << n << " at " << i;
          ASSERT_TRUE(same_bits(v[i], v_ref[i])) << "v, n " << n << " at " << i;
          ASSERT_TRUE(same_bits(p[i], p_ref[i]))
              << "p, n " << n << " special " << special << " t " << t
              << " at " << i << ": " << p[i] << " vs " << p_ref[i];
        }
      }
    }
  }
}

TEST_P(LaneKernelPaths, SumPartsMatchesZeroThenAxpy) {
  // The one-pass merge of a chunked reduction against what it replaced:
  // zero the total, then total.axpy(1.0, part) per part in order.  With
  // special parts, -0.0 + -0.0 stays -0.0 but +0.0 + -0.0 is +0.0, so the
  // +0.0 start is visible.
  for (const std::size_t count : {0u, 1u, 2u, 3u, 8u}) {
    for (const std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                                31u, 32u, 33u, 64u, 100u}) {
      for (const bool special : {false, true}) {
        const Matrix parts = operand_matrix(special, count, n, 23 * n + count);
        std::vector<const double*> ptrs;
        for (std::size_t c = 0; c < count; ++c)
          ptrs.push_back(parts.data().data() + c * n);
        Matrix oracle(1, n);
        oracle.fill(0.0);
        for (std::size_t c = 0; c < count; ++c)
          oracle.axpy(1.0, Matrix::row_vector(parts.row(c)));
        Vec out(n + 1, 7.0);
        kernels().sum_parts(count, ptrs.data(), n, out.data());
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_TRUE(same_bits(out[i], oracle(0, i)))
              << "count " << count << " n " << n << " special " << special
              << " at " << i << ": " << out[i] << " vs " << oracle(0, i);
        ASSERT_EQ(out[n], 7.0) << "wrote past n";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, LaneKernelPaths, ::testing::ValuesIn(kKernelPaths),
    [](const ::testing::TestParamInfo<KernelPath>& info) {
      return std::string(info.param.name);
    });

TEST(KernelSchedule, AddOuterRowsMatchesSuccessiveAddOuter) {
  // The batched weight-gradient update equals `rows` successive rank-1
  // add_outer(1.0, x_r, y_r) calls bitwise — also through a row map, past
  // the kernel's internal row block and at every n mod 8 tail — on uniform
  // and special operands (the ReLU backward feeds it signed zeros), through
  // the dispatching entry point, the scalar reference and every lane
  // instantiation this host runs.
  std::vector<std::pair<const char*, decltype(&la::kernels::add_outer_rows)>>
      paths = {{"add_outer_rows", la::kernels::add_outer_rows},
               {"ref", la::kernels::add_outer_rows_ref},
               {"avx2", la::kernels::avx2_kernels().add_outer_rows}};
  if (la::kernels::avx512_supported())
    paths.emplace_back("avx512", la::kernels::avx512_kernels().add_outer_rows);
  std::uint64_t seed = 41;
  for (const std::size_t m : {1u, 3u, 17u, 64u}) {
    for (const std::size_t n : {1u, 3u, 4u, 8u, 17u, 31u, 64u}) {
      for (const std::size_t rows : {1u, 7u, 16u, 70u}) {
        for (const bool special : {false, true}) {
          const Matrix x = operand_matrix(special, rows, m, ++seed);
          const Matrix y = operand_matrix(special, rows, n, ++seed);
          const Matrix c0 = operand_matrix(special, m, n, ++seed);
          std::vector<std::size_t> map(rows);
          for (std::size_t r = 0; r < rows; ++r) map[r] = (r * 5) % rows;
          for (const bool mapped : {false, true}) {
            Matrix oracle = c0;
            for (std::size_t r = 0; r < rows; ++r)
              oracle.add_outer(1.0, x.row(r), y.row(mapped ? map[r] : r));
            const std::size_t* rows_of_y = mapped ? map.data() : nullptr;
            for (const auto& [name, kernel] : paths) {
              Matrix got = c0;
              kernel(rows, m, n, x.data().data(), m, y.data().data(), n,
                     rows_of_y, got.data().data(), n);
              SCOPED_TRACE(::testing::Message()
                           << name << " " << m << "x" << n << " rows " << rows
                           << " mapped " << mapped << " special " << special);
              expect_bitwise_rows(got, oracle);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation: the old kernels skipped zero operands as a fast path,
// which silently swallowed 0 * NaN and 0 * Inf (both NaN under IEEE 754).
// ---------------------------------------------------------------------------

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
