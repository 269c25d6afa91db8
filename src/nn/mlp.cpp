#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "la/kernels.h"
#include "la/vec.h"
#include "util/csv.h"

namespace cocktail::nn {

void Gradients::scale(double k) {
  for (auto& m : w) m.scale_in_place(k);
  for (auto& v : b)
    for (auto& x : v) x *= k;
}

double Gradients::sum_squares() const {
  double s = 0.0;
  for (const auto& m : w) s += m.sum_squares();
  for (const auto& v : b) s += la::dot(v, v);
  return s;
}

double Gradients::l2_norm() const { return std::sqrt(sum_squares()); }

void Gradients::clip_norm(double max_norm) {
  const double norm = l2_norm();
  if (norm > max_norm && norm > 0.0) scale(max_norm / norm);
}

Mlp::Mlp(const std::vector<std::size_t>& widths,
         const std::vector<Activation>& acts, util::Rng& rng) {
  if (widths.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output widths");
  if (acts.size() != widths.size() - 1)
    throw std::invalid_argument("Mlp: acts must have widths.size()-1 entries");
  layers_.reserve(acts.size());
  for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
    DenseLayer layer;
    const std::size_t fan_in = widths[l];
    const std::size_t fan_out = widths[l + 1];
    layer.w = la::Matrix(fan_out, fan_in);
    layer.b = la::zeros(fan_out);
    layer.act = acts[l];
    // He initialization for ReLU, Xavier/Glorot otherwise.
    const double stddev =
        acts[l] == Activation::kRelu
            ? std::sqrt(2.0 / static_cast<double>(fan_in))
            : std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
    for (auto& v : layer.w.data()) v = rng.normal(0.0, stddev);
    layers_.push_back(std::move(layer));
  }
}

Mlp Mlp::make(std::size_t in_dim, const std::vector<std::size_t>& hidden,
              std::size_t out_dim, Activation hidden_act,
              Activation output_act, std::uint64_t seed) {
  std::vector<std::size_t> widths;
  widths.push_back(in_dim);
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(out_dim);
  std::vector<Activation> acts(hidden.size(), hidden_act);
  acts.push_back(output_act);
  util::Rng rng(seed);
  return Mlp(widths, acts, rng);
}

std::size_t Mlp::input_dim() const {
  if (layers_.empty()) throw std::logic_error("Mlp::input_dim: empty network");
  return layers_.front().w.cols();
}

std::size_t Mlp::output_dim() const {
  if (layers_.empty())
    throw std::logic_error("Mlp::output_dim: empty network");
  return layers_.back().w.rows();
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.w.size() + layer.b.size();
  return n;
}

la::Vec Mlp::forward(const la::Vec& x) const {
  if (x.size() != input_dim())
    throw std::invalid_argument("Mlp::forward: input dimension mismatch");
  la::Vec y(output_dim());
  forward_rows(x.data(), 1, y.data());
  return y;
}

void Mlp::forward_rows(const double* x, std::size_t rows, double* y) const {
  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  // Hidden activations of a tile ping-pong between two buffers (one with a
  // single hidden layer); the last layer writes straight into `y`.
  std::size_t widest = 0;
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l)
    widest = std::max(widest, layers_[l].w.rows());
  const std::size_t half = std::min(rows, kForwardTileRows) * widest;
  const std::size_t buffers = std::min<std::size_t>(layers_.size() - 1, 2);
  thread_local std::vector<double> scratch;
  if (scratch.size() < buffers * half) scratch.resize(buffers * half);
  for (std::size_t r0 = 0; r0 < rows; r0 += kForwardTileRows) {
    const std::size_t m = std::min(kForwardTileRows, rows - r0);
    const double* a = x + r0 * in_dim;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      double* z = l + 1 == layers_.size() ? y + r0 * out_dim
                                          : scratch.data() + (l % 2) * half;
      layer_rows(layers_[l], a, m, nullptr, z);
      a = z;
    }
  }
}

void Mlp::layer_rows(const DenseLayer& layer, const double* a, std::size_t m,
                     double* pre, double* out) {
  const std::size_t n = layer.w.rows();
  const std::size_t width = layer.w.cols();
  double* z = pre != nullptr ? pre : out;
  // z(r, i) = sum_c a(r, c) * w(i, c) + b[i]: every entry is one dot
  // product on the fixed accumulation schedule (la/kernel_config.h) with
  // the bias added as one rounded add, then the element-wise activation.
  la::kernels::gemm_nt(m, n, width, a, width, layer.w.data().data(), width,
                       layer.b.data(), z, n);
  activate_rows(layer.act, z, out, m * n);
}

const double* Mlp::forward_tile(const double* x, std::size_t rows,
                                Tape& tape) const {
  const std::size_t in_dim = input_dim();
  std::size_t total = rows * in_dim;
  for (const auto& layer : layers_) total += 2 * rows * layer.w.rows();
  double* a = la::grow_to(tape.values_, total);
  tape.net_ = this;
  tape.rows_ = rows;
  std::copy(x, x + rows * in_dim, a);
  for (const auto& layer : layers_) {
    double* pre = a + rows * layer.w.cols();
    double* out = pre + rows * layer.w.rows();
    layer_rows(layer, a, rows, pre, out);
    a = out;
  }
  return a;
}

void Mlp::backward_tile(Tape& tape, const double* dl_dy, std::size_t count,
                        const std::size_t* row_map, Gradients* grads,
                        double* dl_dx) const {
  const std::size_t rows = tape.rows_;
  std::size_t widest = 0;
  std::size_t total = rows * input_dim();
  for (const auto& layer : layers_) {
    widest = std::max(widest, layer.w.rows());
    total += 2 * rows * layer.w.rows();
  }
  if (tape.net_ != this || tape.values_.size() < total)
    throw std::invalid_argument(
        "Mlp::backward_tile: tape recorded by another network");
  if (grads != nullptr && !fits(*grads))
    throw std::invalid_argument("Mlp::backward_tile: gradient shape mismatch");
  for (std::size_t k = 0; k < count; ++k)
    if ((row_map != nullptr ? row_map[k] : k) >= rows)
      throw std::invalid_argument(
          "Mlp::backward_tile: cotangent row past the recorded rows");
  double* dz = la::grow_to(tape.dz_, count * widest);
  double* delta_rows = la::grow_to(tape.delta_, count * widest);
  // The recorded blocks are walked from the end: each layer's output rows,
  // its pre-activation rows, and before those its input rows.
  const double* block_end = tape.values_.data() + total;
  const double* delta = dl_dy;  // dL/da for the current layer's output rows.
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const auto& layer = layers_[l];
    const std::size_t n = layer.w.rows();
    const std::size_t width = layer.w.cols();
    const double* out = block_end - rows * n;
    const double* pre = out - rows * n;
    const double* in = pre - rows * width;
    block_end = pre;
    // dL/dz = dL/da ∘ σ'(z), each cotangent row against its recorded row
    // (without a row map, rows 0..count-1 as one block).
    if (row_map == nullptr) {
      backprop_rows(layer.act, pre, out, delta, dz, count * n);
    } else {
      for (std::size_t k = 0; k < count; ++k)
        backprop_rows(layer.act, pre + row_map[k] * n, out + row_map[k] * n,
                      delta + k * n, dz + k * n, n);
    }
    if (grads != nullptr) {
      // dL/dW += dz_k ⊗ a_k;  dL/db += dz_k — row by row, in row order.
      la::kernels::add_outer_rows(count, n, width, dz, n, in, width, row_map,
                                  grads->w[l].data().data(), width);
      la::Vec& db = grads->b[l];
      for (std::size_t k = 0; k < count; ++k)
        for (std::size_t i = 0; i < n; ++i) db[i] += dz[k * n + i];
    }
    if (l == 0 && dl_dx == nullptr) break;
    // dL/da_{l-1} = W^T dz for every row in one pass over W, each element
    // on the fixed transpose schedule.
    double* below = l > 0 ? delta_rows : dl_dx;
    la::kernels::matvec_t_rows(count, n, width, layer.w.data().data(), width,
                               dz, n, below, width);
    delta = below;
  }
}

la::Matrix Mlp::input_jacobian(const la::Vec& x) const {
  if (x.size() != input_dim())
    throw std::invalid_argument(
        "Mlp::input_jacobian: input dimension mismatch");
  const std::size_t out = output_dim();
  // Row r of the Jacobian backpropagates the cotangent e_r; all of them
  // belong to the one recorded row.
  thread_local Tape tape;
  thread_local std::vector<double> eye;
  thread_local std::vector<std::size_t> row0;
  eye.assign(out * out, 0.0);
  for (std::size_t r = 0; r < out; ++r) eye[r * out + r] = 1.0;
  row0.assign(out, 0);
  forward_tile(x.data(), 1, tape);
  la::Matrix jac(out, input_dim());
  backward_tile(tape, eye.data(), out, row0.data(), nullptr,
                jac.data().data());
  return jac;
}

Gradients Mlp::zero_gradients() const {
  Gradients g;
  g.w.reserve(layers_.size());
  g.b.reserve(layers_.size());
  for (const auto& layer : layers_) {
    g.w.emplace_back(layer.w.rows(), layer.w.cols());
    g.b.push_back(la::zeros(layer.b.size()));
  }
  return g;
}

bool Mlp::fits(const Gradients& grads) const noexcept {
  if (grads.w.size() != layers_.size() || grads.b.size() != layers_.size())
    return false;
  for (std::size_t l = 0; l < layers_.size(); ++l)
    if (grads.w[l].rows() != layers_[l].w.rows() ||
        grads.w[l].cols() != layers_[l].w.cols() ||
        grads.b[l].size() != layers_[l].b.size())
      return false;
  return true;
}

void Mlp::accumulate_l2_gradient(double lambda, Gradients& grads) const {
  // The loop indexes grads.w[l] / grads.b[l] for every layer of the net.
  if (!fits(grads))
    throw std::invalid_argument(
        "Mlp::accumulate_l2_gradient: gradient shape mismatch");
  // d/dq of lambda * ||q||^2 is 2*lambda*q.
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    grads.w[l].axpy(2.0 * lambda, layers_[l].w);
    la::axpy(grads.b[l], 2.0 * lambda, layers_[l].b);
  }
}

double Mlp::sum_squares() const {
  double s = 0.0;
  for (const auto& layer : layers_)
    s += layer.w.sum_squares() + la::dot(layer.b, layer.b);
  return s;
}

double Mlp::lipschitz_upper_bound() const {
  double lip = 1.0;
  for (const auto& layer : layers_)
    lip *= layer.w.spectral_norm();
  return lip;
}

bool Mlp::all_finite() const {
  for (const auto& layer : layers_)
    if (!layer.w.all_finite() || !la::all_finite(layer.b)) return false;
  return true;
}

void Mlp::save(std::ostream& out) const {
  out << "cocktail-mlp v1\n";
  out << layers_.size() << '\n';
  out.precision(17);
  for (const auto& layer : layers_) {
    out << layer.w.rows() << ' ' << layer.w.cols() << ' '
        << to_string(layer.act) << '\n';
    for (std::size_t r = 0; r < layer.w.rows(); ++r) {
      for (std::size_t c = 0; c < layer.w.cols(); ++c) {
        if (c) out << ' ';
        out << layer.w(r, c);
      }
      out << '\n';
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      if (i) out << ' ';
      out << layer.b[i];
    }
    out << '\n';
  }
}

void Mlp::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Mlp::save_file: cannot open " + path);
  save(out);
  out.close();
  if (!out) throw std::runtime_error("Mlp::save_file: write failed: " + path);
}

Mlp Mlp::load(std::istream& in) {
  std::string header, version;
  in >> header >> version;
  if (header != "cocktail-mlp" || version != "v1")
    throw std::runtime_error("Mlp::load: bad header");
  std::size_t num_layers = 0;
  in >> num_layers;
  if (!in || num_layers == 0)
    throw std::runtime_error("Mlp::load: truncated stream");
  if (num_layers > kMaxLoadLayers)
    throw std::runtime_error("Mlp::load: layer count above kMaxLoadLayers");
  Mlp net;
  net.layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    std::size_t rows = 0, cols = 0;
    std::string act_name;
    in >> rows >> cols >> act_name;
    if (!in || rows == 0 || cols == 0)
      throw std::runtime_error("Mlp::load: truncated stream");
    if (rows > kMaxLoadWidth || cols > kMaxLoadWidth)
      throw std::runtime_error("Mlp::load: layer width above kMaxLoadWidth");
    DenseLayer layer;
    try {
      layer.act = activation_from_string(act_name);
    } catch (const std::invalid_argument&) {
      // Normalize to the load-failure type: a half-read token from a
      // truncated stream lands here too.
      throw std::runtime_error("Mlp::load: unknown activation '" + act_name +
                               "'");
    }
    layer.w = la::Matrix(rows, cols);
    for (auto& v : layer.w.data()) in >> v;
    layer.b = la::zeros(rows);
    for (auto& v : layer.b) in >> v;
    if (!in) throw std::runtime_error("Mlp::load: truncated stream");
    // A layer must consume exactly what the previous one produced; a file
    // whose shapes do not chain would crash (or worse, silently mis-index)
    // at inference time.
    if (l > 0 && cols != net.layers_.back().w.rows())
      throw std::runtime_error("Mlp::load: layer dimension mismatch");
    if (!layer.w.all_finite() || !la::all_finite(layer.b))
      throw std::runtime_error("Mlp::load: non-finite parameter");
    net.layers_.push_back(std::move(layer));
  }
  return net;
}

Mlp Mlp::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Mlp::load_file: cannot open " + path);
  return load(in);
}

}  // namespace cocktail::nn
