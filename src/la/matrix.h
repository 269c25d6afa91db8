// Dense row-major matrix.
//
// Sized for the library's workloads: NN layers up to ~128x128 and the
// tiny Riccati recursions behind the LQR expert.
// matvec/matvec_transpose/matmul/matmul_nt run on the deterministic
// blocked/SIMD kernels of la/kernels.h: every reduction follows the single
// fixed accumulation schedule of la/kernel_config.h, so results are
// bitwise identical across the scalar and batched paths, worker counts,
// vector ISAs, and optimization levels.  No BLAS dependency.
#pragma once

#include <cstddef>

#include "la/vec.h"

namespace cocktail::la {

class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);
  /// rows x cols with every entry = fill.
  Matrix(std::size_t rows, std::size_t cols, double fill);
  /// From row-major data; data.size() must equal rows*cols.
  Matrix(std::size_t rows, std::size_t cols, Vec data);

  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Matrix whose single row is `v`.
  [[nodiscard]] static Matrix row_vector(const Vec& v);
  /// Matrix whose single column is `v`.
  [[nodiscard]] static Matrix col_vector(const Vec& v);
  /// Diagonal matrix from a vector.
  [[nodiscard]] static Matrix diagonal(const Vec& diag);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  [[nodiscard]] const Vec& data() const noexcept { return data_; }
  [[nodiscard]] Vec& data() noexcept { return data_; }

  /// y = M x, under the fixed dot schedule (la/kernel_config.h).
  [[nodiscard]] Vec matvec(const Vec& x) const;
  /// y = M^T x  (used heavily by backprop), under the fixed transpose
  /// schedule.
  [[nodiscard]] Vec matvec_transpose(const Vec& x) const;
  /// C = this * other, on the blocked GEMM kernel (same dot schedule).
  [[nodiscard]] Matrix matmul(const Matrix& other) const;
  /// C = this * other^T without materializing the transpose.  Row r of the
  /// result accumulates exactly like `other.matvec(row r of this)` — the
  /// same fixed dot schedule — so it is bitwise that matvec.
  [[nodiscard]] Matrix matmul_nt(const Matrix& other) const;
  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] Matrix operator+(const Matrix& other) const;
  [[nodiscard]] Matrix operator-(const Matrix& other) const;
  [[nodiscard]] Matrix operator*(double k) const;
  Matrix& operator+=(const Matrix& other);
  /// this += k * other.
  void axpy(double k, const Matrix& other);
  void fill(double value);
  void scale_in_place(double k);

  /// Rank-1 update: this += k * col * row^T  (outer product accumulate).
  void add_outer(double k, const Vec& col, const Vec& row);

  /// Copy of row r as a vector.
  [[nodiscard]] Vec row(std::size_t r) const;

  [[nodiscard]] double frobenius_norm() const;
  /// Sum of squared entries (the L2 regularizer term ||W||_2^2).
  [[nodiscard]] double sum_squares() const;
  /// max_i sum_j |m_ij| — induced infinity norm.
  [[nodiscard]] double inf_norm() const;
  /// Largest singular value via power iteration on M^T M.  `iters`
  /// iterations from a deterministic start; accurate to ~1e-9 for the
  /// well-separated spectra NN layers have in practice.  Throws
  /// std::invalid_argument when iters < 1: a zero-iteration "estimate"
  /// would return 0.0, which downstream certified Lipschitz bounds
  /// (Mlp::lipschitz_upper_bound -> SafetyMonitor::action_deviation_bound)
  /// would treat as a sound bound of zero.
  [[nodiscard]] double spectral_norm(int iters = 100) const;

  [[nodiscard]] bool all_finite() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vec data_;
};

}  // namespace cocktail::la
