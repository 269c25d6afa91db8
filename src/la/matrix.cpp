#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/kernels.h"

namespace cocktail::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, Vec data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_)
    throw std::invalid_argument("Matrix: data size != rows*cols");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::row_vector(const Vec& v) { return Matrix(1, v.size(), v); }

Matrix Matrix::col_vector(const Vec& v) { return Matrix(v.size(), 1, v); }

Matrix Matrix::diagonal(const Vec& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  return data_[r * cols_ + c];
}

Vec Matrix::matvec(const Vec& x) const {
  if (x.size() != cols_)
    throw std::invalid_argument("Matrix::matvec: dimension mismatch");
  Vec y(rows_, 0.0);
  kernels::matvec(rows_, cols_, data_.data(), cols_, x.data(), y.data());
  return y;
}

Vec Matrix::matvec_transpose(const Vec& x) const {
  if (x.size() != rows_)
    throw std::invalid_argument("Matrix::matvec_transpose: dimension mismatch");
  Vec y(cols_, 0.0);
  kernels::matvec_t(rows_, cols_, data_.data(), cols_, x.data(), y.data());
  return y;
}

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::matmul: dimension mismatch");
  Matrix out(rows_, other.cols_);
  // No sparsity short-cuts here: the old `if (a_ik == 0.0) continue;` skip
  // silently dropped NaN/Inf from the other operand (IEEE: 0 * NaN = NaN),
  // letting non-finite values pass through products undetected.  The
  // blocked kernel touches every product.
  kernels::gemm_nn(rows_, other.cols_, cols_, data_.data(), cols_,
                   other.data_.data(), other.cols_, out.data_.data(),
                   other.cols_);
  return out;
}

Matrix Matrix::matmul_nt(const Matrix& other) const {
  if (cols_ != other.cols_)
    throw std::invalid_argument("Matrix::matmul_nt: dimension mismatch");
  Matrix out(rows_, other.rows_);
  // Row r accumulates under the same fixed schedule as Matrix::matvec — the
  // bitwise-identity contract batched inference relies on (kernels::gemm_nt
  // computes each entry exactly like kernels::matvec does).
  kernels::gemm_nt(rows_, other.rows_, cols_, data_.data(), cols_,
                   other.data_.data(), other.cols_, out.data_.data(),
                   other.rows_);
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out.axpy(-1.0, other);
  return out;
}

Matrix Matrix::operator*(double k) const {
  Matrix out = *this;
  out.scale_in_place(k);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  axpy(1.0, other);
  return *this;
}

void Matrix::axpy(double k, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::axpy: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += k * other.data_[i];
}

void Matrix::fill(double value) {
  for (auto& v : data_) v = value;
}

void Matrix::scale_in_place(double k) {
  for (auto& v : data_) v *= k;
}

void Matrix::add_outer(double k, const Vec& col, const Vec& row) {
  if (col.size() != rows_ || row.size() != cols_)
    throw std::invalid_argument("Matrix::add_outer: shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    // No `kc == 0.0` skip: 0 * NaN = NaN must reach the accumulator, or
    // non-finite gradients/activations pass through rank-1 updates
    // undetected.
    const double kc = k * col[r];
    double* out = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) out[c] += kc * row[c];
  }
}

Vec Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row: index out of range");
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

double Matrix::frobenius_norm() const { return std::sqrt(sum_squares()); }

double Matrix::sum_squares() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::inf_norm() const {
  double best = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) row_sum += std::abs((*this)(r, c));
    best = std::max(best, row_sum);
  }
  return best;
}

double Matrix::spectral_norm(int iters) const {
  // iters <= 0 used to skip the loop and "converge" to sigma = 0.0 — an
  // unsound certified bound once it flowed into lipschitz_upper_bound and
  // SafetyMonitor::action_deviation_bound.  Reject it loudly instead.
  if (iters < 1)
    throw std::invalid_argument("Matrix::spectral_norm: iters must be >= 1");
  if (empty()) return 0.0;
  // Power iteration on M^T M from a deterministic, strictly positive start
  // vector; that start has a nonzero component along the top singular
  // direction for any nonzero matrix in practice.
  Vec v(cols_, 1.0);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 1e-3 * static_cast<double>(i % 7);
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    Vec u = matvec(v);
    Vec w = matvec_transpose(u);
    const double norm = norm_l2(w);
    if (norm < 1e-300) return 0.0;
    for (auto& x : w) x /= norm;
    v = std::move(w);
    sigma = norm_l2(matvec(v));
  }
  return sigma;
}

bool Matrix::all_finite() const { return la::all_finite(data_); }

}  // namespace cocktail::la
