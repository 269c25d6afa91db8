#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>

#include "la/kernels.h"

namespace cocktail::nn {

Sgd::Sgd(double learning_rate, double momentum)
    : lr_(learning_rate), momentum_(momentum) {}

void Sgd::step(Mlp& net, const Gradients& grads) {
  if (momentum_ == 0.0) {
    net.apply_update(-lr_, grads);
    return;
  }
  if (!initialized_) {
    velocity_ = net.zero_gradients();
    initialized_ = true;
  }
  velocity_.scale(momentum_);
  velocity_.axpy(1.0, grads);
  net.apply_update(-lr_, velocity_);
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), eps_(epsilon) {}

void Adam::reset() {
  initialized_ = false;
  t_ = 0;
}

void Adam::step(Mlp& net, const Gradients& grads) {
  if (!initialized_) {
    m_ = net.zero_gradients();
    v_ = net.zero_gradients();
    initialized_ = true;
  }
  // The update walks every buffer at the net's shapes: moments sized for
  // another net, or mis-shaped gradients, would be read and written past
  // their ends.
  if (!net.fits(grads) || !net.fits(m_) || !net.fits(v_))
    throw std::invalid_argument("Adam::step: shape mismatch");
  ++t_;
  const la::kernels::AdamStep s{
      lr_,
      beta1_,
      beta2_,
      eps_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_))};
  auto& layers = net.layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    la::kernels::adam_update(s, layers[l].w.size(), layers[l].w.data().data(),
                             m_.w[l].data().data(), v_.w[l].data().data(),
                             grads.w[l].data().data());
    la::kernels::adam_update(s, layers[l].b.size(), layers[l].b.data(),
                             m_.b[l].data(), v_.b[l].data(),
                             grads.b[l].data());
  }
}

AdamVec::AdamVec(double learning_rate, double beta1, double beta2,
                 double epsilon)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), eps_(epsilon) {}

void AdamVec::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

void AdamVec::step(la::Vec& params, const la::Vec& grads) {
  if (params.size() != grads.size())
    throw std::invalid_argument("AdamVec::step: size mismatch");
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
  }
  ++t_;
  const la::kernels::AdamStep s{
      lr_,
      beta1_,
      beta2_,
      eps_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_))};
  la::kernels::adam_update(s, params.size(), params.data(), m_.data(),
                           v_.data(), grads.data());
}

}  // namespace cocktail::nn
