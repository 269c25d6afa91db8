#include "verify/ibp.h"

#include <stdexcept>

namespace cocktail::verify {

Interval activate_interval(nn::Activation act, const Interval& z) {
  // All three activations are monotone non-decreasing: the image is the
  // interval between the endpoint images.  nn::activate is the function
  // the network executes, so the endpoints are the values it computes.
  // Its rounded tanh (la::kernels::tanh) need not be monotone to the last
  // ulp: the kernel is non-decreasing across every branch threshold (swept
  // by test_verify_ibp); elsewhere the outward() inflation (at least 1e-12)
  // absorbs any ulp-level dip.
  return outward(nn::activate(act, z.lo()), nn::activate(act, z.hi()));
}

IBox ibp_enclose(const nn::Mlp& net, const IBox& box) {
  if (net.empty()) throw std::invalid_argument("ibp_enclose: empty network");
  if (box.size() != net.input_dim())
    throw std::invalid_argument("ibp_enclose: input dimension mismatch");
  IBox activation = box;
  for (const auto& layer : net.layers()) {
    IBox pre(layer.w.rows());
    for (std::size_t r = 0; r < layer.w.rows(); ++r) {
      Interval acc(layer.b[r]);
      for (std::size_t c = 0; c < layer.w.cols(); ++c)
        acc = acc + activation[c] * layer.w(r, c);
      pre[r] = acc;
    }
    activation.resize(pre.size());
    for (std::size_t r = 0; r < pre.size(); ++r)
      activation[r] = activate_interval(layer.act, pre[r]);
  }
  return activation;
}

}  // namespace cocktail::verify
