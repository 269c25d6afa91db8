// Neural-network controller: u = out_scale ∘ net(s).
//
// DDPG actors use a tanh output layer with out_scale = control bound, so the
// raw network output already respects U.  Distilled students regress the
// teacher's (already clipped) control directly with identity output and
// out_scale = 1.
#pragma once

#include <string>
#include <vector>

#include "control/controller.h"
#include "nn/mlp.h"

namespace cocktail::ctrl {

class NnController final : public Controller {
 public:
  /// `out_scale` is broadcast if it has one entry; otherwise it must match
  /// the network's output dimension.
  NnController(nn::Mlp net, la::Vec out_scale, std::string label = "nn");

  /// Throws std::invalid_argument unless `s` has state_dim() entries.
  [[nodiscard]] la::Vec act(const la::Vec& s) const override;
  /// Batched inference over N states: one nn::Mlp::forward_rows over the
  /// states packed into a thread-local row buffer.  Entry k is bitwise
  /// identical to act(states[k]) for any batch composition — the serving
  /// runtime's micro-batcher relies on this to keep batched answers equal
  /// to the synchronous per-request path.  Throws std::invalid_argument
  /// unless every state has state_dim() entries.
  [[nodiscard]] std::vector<la::Vec> act_batch(
      const std::vector<la::Vec>& states) const;
  [[nodiscard]] std::size_t state_dim() const override;
  [[nodiscard]] std::size_t control_dim() const override;
  [[nodiscard]] std::string describe() const override { return label_; }
  [[nodiscard]] bool differentiable() const override { return true; }
  [[nodiscard]] la::Matrix input_jacobian(const la::Vec& s) const override;
  /// max_i |out_scale_i| × certified network bound.
  [[nodiscard]] double lipschitz_bound() const override;

  [[nodiscard]] const nn::Mlp& net() const noexcept { return net_; }
  [[nodiscard]] nn::Mlp& net() noexcept { return net_; }
  [[nodiscard]] const la::Vec& out_scale() const noexcept { return scale_; }

  /// Throws std::runtime_error when the file cannot be opened or a write
  /// or the final flush fails (a full disk, say); the file is then
  /// incomplete.
  void save_file(const std::string& path) const;
  /// Loads a controller saved by save_file().  Throws std::runtime_error
  /// when the file is missing, its header or scale is malformed, truncated
  /// or does not fit the network, or its network fails nn::Mlp::load.
  static NnController load_file(const std::string& path, std::string label);

 private:
  nn::Mlp net_;
  la::Vec scale_;
  std::string label_;
};

}  // namespace cocktail::ctrl
