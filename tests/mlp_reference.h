// Test-only scalar reference of nn::Mlp: the per-sample forward pass,
// backpropagation and input gradient, and the PPO policies' per-sample
// gradient wrappers, as free functions over a const network.
//
// The library runs a network two ways, both on the dispatched lane kernels
// of la/kernels.h: forward_rows() for inference (gemm_nt, tanh_rows) and
// the row-tile pair forward_tile() / backward_tile() for training and
// input_jacobian() (plus matvec_t_rows, add_outer_rows).  Each is bitwise,
// row by row, the per-sample computation written here.  This reference
// computes every layer on the scalar references instead — a one-row
// la::kernels::gemm_nt_ref, scalar nn::activate / nn::activate_grad,
// la::Matrix::add_outer and la::kernels::matvec_t_ref — so it shares no
// lane kernel with the paths it checks, and a lane kernel that goes wrong
// shows up as a mismatch at the Mlp level.
#pragma once

#include <cstddef>
#include <vector>

#include "la/kernels.h"
#include "la/vec.h"
#include "nn/activation.h"
#include "nn/mlp.h"
#include "rl/categorical_policy.h"
#include "rl/gaussian_policy.h"

namespace cocktail::ref {

/// Per-sample forward pass cache for backpropagation.
struct Workspace {
  std::vector<la::Vec> pre;  ///< pre-activations z_l = W_l a_{l-1} + b_l.
  std::vector<la::Vec> act;  ///< act[0] = input; act[l+1] = σ(pre[l]).
};

/// Element-wise activation of a vector, one scalar nn::activate per entry.
inline la::Vec activate(nn::Activation act, const la::Vec& z) {
  la::Vec a(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) a[i] = nn::activate(act, z[i]);
  return a;
}

/// Forward pass that fills `ws`; returns the output (== ws.act.back()).
inline la::Vec forward(const nn::Mlp& net, const la::Vec& x, Workspace& ws) {
  const auto& layers = net.layers();
  ws.pre.resize(layers.size());
  ws.act.resize(layers.size() + 1);
  ws.act[0] = x;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const nn::DenseLayer& layer = layers[l];
    const std::size_t n = layer.w.rows();
    const std::size_t width = layer.w.cols();
    la::Vec& z = ws.pre[l];
    z.assign(n, 0.0);
    la::kernels::gemm_nt_ref(1, n, width, ws.act[l].data(), width,
                             layer.w.data().data(), width, z.data(), n);
    for (std::size_t i = 0; i < n; ++i) z[i] += layer.b[i];
    ws.act[l + 1] = activate(layer.act, z);
  }
  return ws.act.back();
}

/// Forward pass without a cache.
inline la::Vec forward(const nn::Mlp& net, const la::Vec& x) {
  Workspace ws;
  return forward(net, x, ws);
}

namespace detail {

/// dL/dz = dL/da ∘ σ'(z) for layer l of the sample cached in `ws`.
inline la::Vec layer_dz(const nn::DenseLayer& layer, const Workspace& ws,
                        std::size_t l, const la::Vec& delta) {
  la::Vec dz(delta.size());
  for (std::size_t i = 0; i < delta.size(); ++i)
    dz[i] = delta[i] *
            nn::activate_grad(layer.act, ws.pre[l][i], ws.act[l + 1][i]);
  return dz;
}

/// dL/da_{l-1} = W^T dz.
inline la::Vec below(const nn::DenseLayer& layer, const la::Vec& dz) {
  la::Vec out(layer.w.cols());
  la::kernels::matvec_t_ref(layer.w.rows(), layer.w.cols(),
                            layer.w.data().data(), layer.w.cols(), dz.data(),
                            out.data());
  return out;
}

}  // namespace detail

/// Backpropagates `dl_dy` (dLoss/dOutput for the sample cached in `ws`),
/// accumulating parameter gradients into `grads` (zero_gradients()-shaped).
/// Returns dLoss/dInput.
inline la::Vec backward(const nn::Mlp& net, const Workspace& ws,
                        const la::Vec& dl_dy, nn::Gradients& grads) {
  const auto& layers = net.layers();
  la::Vec delta = dl_dy;
  for (std::size_t l = layers.size(); l-- > 0;) {
    const la::Vec dz = detail::layer_dz(layers[l], ws, l, delta);
    // dL/dW += dz ⊗ a_{l-1};  dL/db += dz.
    grads.w[l].add_outer(1.0, dz, ws.act[l]);
    for (std::size_t i = 0; i < dz.size(); ++i) grads.b[l][i] += dz[i];
    delta = detail::below(layers[l], dz);
  }
  return delta;
}

/// dLoss/dInput only: a forward pass, then backpropagation without the
/// parameter gradients.
inline la::Vec input_gradient(const nn::Mlp& net, const la::Vec& x,
                              const la::Vec& dl_dy) {
  Workspace ws;
  forward(net, x, ws);
  const auto& layers = net.layers();
  la::Vec delta = dl_dy;
  for (std::size_t l = layers.size(); l-- > 0;) {
    const la::Vec dz = detail::layer_dz(layers[l], ws, l, delta);
    delta = detail::below(layers[l], dz);
  }
  return delta;
}

/// GaussianPolicy::log_prob_cotangent plus one mean-net forward/backward of
/// `s`: accumulates d(-coef * log π(a|s))/dθ and the log_std gradient.
inline void accumulate_log_prob_gradient(const rl::GaussianPolicy& policy,
                                         const la::Vec& s, const la::Vec& a,
                                         double coef,
                                         nn::Gradients& mean_grads,
                                         la::Vec& log_std_grads) {
  Workspace ws;
  const la::Vec mu = forward(policy.mean_net(), s, ws);
  la::Vec dl_dmu(mu.size());
  policy.log_prob_cotangent(mu.data(), a, coef, dl_dmu.data(),
                            log_std_grads);
  (void)backward(policy.mean_net(), ws, dl_dmu, mean_grads);
}

/// GaussianPolicy::kl_cotangent plus one mean-net forward/backward of `s`:
/// accumulates d(coef * KL(old || new))/dθ and the log_std gradient.
inline void accumulate_kl_gradient(const rl::GaussianPolicy& policy,
                                   const la::Vec& mu_old,
                                   const la::Vec& std_old, const la::Vec& s,
                                   double coef, nn::Gradients& mean_grads,
                                   la::Vec& log_std_grads) {
  Workspace ws;
  const la::Vec mu = forward(policy.mean_net(), s, ws);
  la::Vec dl_dmu(mu.size());
  policy.kl_cotangent(mu.data(), mu_old, std_old, coef, dl_dmu.data(),
                      log_std_grads);
  (void)backward(policy.mean_net(), ws, dl_dmu, mean_grads);
}

/// CategoricalPolicy::log_prob_cotangent plus one logits-net
/// forward/backward of `s`: accumulates d(-coef * log π(a|s))/dθ.
inline void accumulate_log_prob_gradient(const rl::CategoricalPolicy& policy,
                                         const la::Vec& s, std::size_t action,
                                         double coef, nn::Gradients& grads) {
  Workspace ws;
  const la::Vec p = rl::softmax(forward(policy.logits_net(), s, ws));
  la::Vec dl(p.size());
  rl::CategoricalPolicy::log_prob_cotangent(p, action, coef, dl.data());
  (void)backward(policy.logits_net(), ws, dl, grads);
}

/// CategoricalPolicy::kl_cotangent plus one logits-net forward/backward of
/// `s`: accumulates d(coef * KL(p_old || p_new))/dθ.
inline void accumulate_kl_gradient(const rl::CategoricalPolicy& policy,
                                   const la::Vec& probs_old, const la::Vec& s,
                                   double coef, nn::Gradients& grads) {
  Workspace ws;
  const la::Vec p = rl::softmax(forward(policy.logits_net(), s, ws));
  la::Vec dl(p.size());
  rl::CategoricalPolicy::kl_cotangent(p, probs_old, coef, dl.data());
  (void)backward(policy.logits_net(), ws, dl, grads);
}

}  // namespace cocktail::ref
