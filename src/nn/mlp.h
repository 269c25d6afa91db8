// Fully-connected feed-forward network with manual backpropagation.
//
// This is the only network architecture the paper uses (controllers, DDPG
// actor/critics, the PPO mixing policy, and the distilled student are all
// small MLPs).  Beyond standard parameter gradients, the implementation
// exposes:
//   * gradients with respect to the *input* — required by FGSM adversarial
//     example generation (Algorithm 1, line 13) and by closed-loop attacks;
//   * a certified Lipschitz upper bound (product of layer spectral norms;
//     every activation is 1-Lipschitz) — the quantity the paper's
//     verifiability argument rests on (footnote 1);
//   * text serialization so benches can cache trained controllers;
//   * a row-tile training pass (forward_tile / backward_tile): one GEMM per
//     layer forward and one rank-k weight update per layer backward for a
//     chunk of samples, bitwise equal to the per-sample forward/backward.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/vec.h"
#include "nn/activation.h"
#include "util/rng.h"

namespace cocktail::nn {

/// One dense layer: y = act(W x + b).
struct DenseLayer {
  la::Matrix w;    ///< out x in.
  la::Vec b;       ///< out.
  Activation act = Activation::kIdentity;
};

/// Parameter-shaped gradient accumulator (mirrors Mlp layer shapes).
struct Gradients {
  std::vector<la::Matrix> w;
  std::vector<la::Vec> b;

  /// Calls f(data, size) once per parameter buffer: layer l's weights,
  /// then its biases, for l = 0, 1, ...
  template <class F>
  void for_each_buffer(F&& f) {
    for (std::size_t l = 0; l < w.size(); ++l) {
      f(w[l].data().data(), w[l].size());
      f(b[l].data(), b[l].size());
    }
  }
  /// this += k * other.
  void axpy(double k, const Gradients& other);
  void scale(double k);
  [[nodiscard]] double sum_squares() const;
  [[nodiscard]] double l2_norm() const;
  /// Scales so the global L2 norm is at most `max_norm` (gradient clipping).
  void clip_norm(double max_norm);
};

class Mlp {
 public:
  Mlp() = default;

  /// Builds from explicit layer widths and activations.
  /// `widths` = [in, h1, ..., out]; `acts.size()` must be widths.size()-1.
  /// ReLU layers use He initialization, others Xavier.
  Mlp(const std::vector<std::size_t>& widths,
      const std::vector<Activation>& acts, util::Rng& rng);

  /// Convenience factory: hidden layers share `hidden_act`; the output
  /// layer uses `output_act`.
  static Mlp make(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                  std::size_t out_dim, Activation hidden_act,
                  Activation output_act, std::uint64_t seed);

  [[nodiscard]] bool empty() const noexcept { return layers_.empty(); }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;
  [[nodiscard]] std::size_t num_parameters() const;
  [[nodiscard]] const std::vector<DenseLayer>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] std::vector<DenseLayer>& layers() noexcept { return layers_; }

  /// Plain inference.
  [[nodiscard]] la::Vec forward(const la::Vec& x) const;

  /// Batched inference: `x` is N x input_dim (one sample per row); returns
  /// N x output_dim.  A thin wrapper over forward_rows(), so row r is
  /// **bitwise identical** to forward(x.row(r)) — the contract the serving
  /// runtime's micro-batching rests on (pinned by test_nn's ForwardBatch
  /// suites).
  [[nodiscard]] la::Matrix forward_batch(const la::Matrix& x) const;

  /// Rows per tile of forward_rows().  A tile's hidden activations live in
  /// a thread-local scratch of at most 2 x kForwardTileRows x (widest
  /// hidden layer) doubles, which bounds memory per thread for any row
  /// count.  Rows are independent, so the tile size never changes a bit.
  static constexpr std::size_t kForwardTileRows = 64;

  /// The one batched forward pass, on raw row-major buffers: `x` holds
  /// `rows` x input_dim() doubles and `y` receives rows x output_dim().
  /// Each layer of a tile is one blocked GEMM (la::kernels::gemm_nt) plus
  /// the bias add and element-wise activation; the GEMM and the scalar
  /// path's matvec follow the same fixed accumulation schedule
  /// (la/kernel_config.h), so row r of `y` is bitwise identical to
  /// forward(row r of x).  Allocates only when a thread's scratch must
  /// grow.  `x` and `y` must not overlap.
  void forward_rows(const double* x, std::size_t rows, double* y) const;

  /// Per-sample forward pass cache for backpropagation.
  struct Workspace {
    std::vector<la::Vec> pre;  ///< pre-activations z_l = W_l a_{l-1} + b_l.
    std::vector<la::Vec> act;  ///< act[0] = input; act[l+1] = σ(pre[l]).
  };

  /// Forward pass that fills `ws`; returns the output (== ws.act.back()).
  la::Vec forward(const la::Vec& x, Workspace& ws) const;

  /// Backpropagates `dl_dy` (dLoss/dOutput for the sample cached in `ws`),
  /// accumulating parameter gradients into `grads` (must be zero_gradients()
  /// -shaped).  Returns dLoss/dInput.
  la::Vec backward(const Workspace& ws, const la::Vec& dl_dy,
                   Gradients& grads) const;

  /// dLoss/dInput only — the FGSM path; skips parameter-gradient work.
  [[nodiscard]] la::Vec input_gradient(const la::Vec& x,
                                       const la::Vec& dl_dy) const;

  /// A recorded forward pass over a tile of rows — the tile analogue of
  /// Workspace — plus the backward pass's scratch.  The caller owns it,
  /// typically as one thread_local per network in a training chunk body.
  /// Its buffers grow to the largest tile seen and are then reused, so
  /// the tile passes allocate nothing once they have grown.
  class Tape {
    friend class Mlp;
    const Mlp* net_ = nullptr;  ///< the network that recorded the pass.
    std::size_t rows_ = 0;
    /// The input rows, then per layer its pre-activation and activation
    /// rows (each a rows x width block).
    std::vector<double> values_;
    std::vector<double> dz_, delta_;  ///< backward scratch.
  };

  /// Training forward pass over `rows` row-major input rows of x, recorded
  /// into `tape`.  Each layer is forward_rows()' batched layer step, so
  /// every value equals the per-sample forward(x, ws) bitwise.  Returns
  /// the output rows (rows x output_dim()), valid until the tape records
  /// again.
  const double* forward_tile(const double* x, std::size_t rows,
                             Tape& tape) const;

  /// Backpropagates `count` cotangent rows dl_dy (count x output_dim())
  /// through the pass recorded in `tape`.  Cotangent row k belongs to
  /// recorded row row_map[k] (row_map == nullptr: row k), so two cotangent
  /// rows may share one forward.  When `grads` is non-null the parameter
  /// gradients accumulate into it row by row (la::kernels::add_outer_rows
  /// for the weights); when `dl_dx` is non-null it receives the count x
  /// input_dim() input gradients.  Each layer's gradient below it is one
  /// la::kernels::matvec_t_rows over the tile.  Every element performs the
  /// operations of `count` successive backward() calls in row order, so the
  /// results are bitwise identical to them (and dl_dx to
  /// input_gradient()).  Throws
  /// std::invalid_argument for a tape recorded by another network, a
  /// mis-shaped `grads`, or a row_map entry past the recorded rows.
  void backward_tile(Tape& tape, const double* dl_dy, std::size_t count,
                     const std::size_t* row_map, Gradients* grads,
                     double* dl_dx) const;

  /// Jacobian dy/dx (output_dim x input_dim) by row-wise backprop.
  [[nodiscard]] la::Matrix input_jacobian(const la::Vec& x) const;

  /// Zero gradient accumulator matching this network's shapes.
  [[nodiscard]] Gradients zero_gradients() const;

  /// True when `grads` has this network's layer count and every layer's
  /// weight and bias shapes.
  [[nodiscard]] bool fits(const Gradients& grads) const noexcept;

  /// Adds the gradient of lambda*||q||_2^2 (all weights and biases) into
  /// `grads` — the L2 term of the robust-distillation loss.
  void accumulate_l2_gradient(double lambda, Gradients& grads) const;

  /// Sum of squared parameters ||q||_2^2.
  [[nodiscard]] double sum_squares() const;

  /// Certified global Lipschitz upper bound: prod_l lip(act_l)*||W_l||_2.
  [[nodiscard]] double lipschitz_upper_bound() const;

  /// In-place SGD-style parameter update p += k * g.
  void apply_update(double k, const Gradients& grads);

  [[nodiscard]] bool all_finite() const;

  /// Caps on a serialized network's header, checked before anything is
  /// allocated, so an oversized or corrupted header fails as
  /// std::runtime_error instead of std::bad_alloc / std::length_error.
  /// Far above every network this library builds (≤ 4 layers, ≤ 64 wide).
  static constexpr std::size_t kMaxLoadLayers = 64;
  static constexpr std::size_t kMaxLoadWidth = 4096;

  void save(std::ostream& out) const;
  /// Throws std::runtime_error when the file cannot be opened or a write
  /// or the final flush fails (a full disk, say); the file is then
  /// incomplete.
  void save_file(const std::string& path) const;
  /// Throws std::runtime_error on a bad header, a layer count or width
  /// above the caps, a truncated stream, inter-layer dimension mismatches,
  /// or non-finite parameters — a cached artifact that fails any of these
  /// must never reach inference.
  static Mlp load(std::istream& in);
  static Mlp load_file(const std::string& path);

 private:
  /// The one batched layer step: out = act(a W^T + b) over m rows of `a`.
  /// A non-null `pre` also receives the pre-activations a W^T + b.
  static void layer_rows(const DenseLayer& layer, const double* a,
                         std::size_t m, double* pre, double* out);

  std::vector<DenseLayer> layers_;
};

}  // namespace cocktail::nn
