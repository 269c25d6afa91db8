#include "control/nn_controller.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace cocktail::ctrl {

NnController::NnController(nn::Mlp net, la::Vec out_scale, std::string label)
    : net_(std::move(net)), scale_(std::move(out_scale)),
      label_(std::move(label)) {
  if (net_.empty()) throw std::invalid_argument("NnController: empty network");
  if (scale_.size() == 1 && net_.output_dim() > 1)
    scale_ = la::constant(net_.output_dim(), scale_[0]);
  if (scale_.size() != net_.output_dim())
    throw std::invalid_argument("NnController: out_scale dimension mismatch");
}

la::Vec NnController::act(const la::Vec& s) const {
  return la::hadamard(scale_, net_.forward(s));
}

std::vector<la::Vec> NnController::act_batch(
    const std::vector<la::Vec>& states) const {
  const std::size_t in = net_.input_dim();
  const std::size_t out = net_.output_dim();
  // forward_rows reads `in` doubles per row and checks nothing: a short
  // state would be read past its end.
  thread_local la::Vec x, y;
  double* row = la::grow_to(x, states.size() * in);
  for (const la::Vec& s : states) {
    if (s.size() != in)
      throw std::invalid_argument(
          "NnController::act_batch: state dimension mismatch");
    row = std::copy(s.begin(), s.end(), row);
  }
  double* ys = la::grow_to(y, states.size() * out);
  net_.forward_rows(x.data(), states.size(), ys);
  // scale_[c] * y(r, c): the product la::hadamard takes in act().
  std::vector<la::Vec> actions(states.size(), la::Vec(out));
  for (std::size_t r = 0; r < states.size(); ++r)
    for (std::size_t c = 0; c < out; ++c)
      actions[r][c] = scale_[c] * ys[r * out + c];
  return actions;
}

std::size_t NnController::state_dim() const { return net_.input_dim(); }

std::size_t NnController::control_dim() const { return net_.output_dim(); }

la::Matrix NnController::input_jacobian(const la::Vec& s) const {
  la::Matrix jac = net_.input_jacobian(s);
  for (std::size_t r = 0; r < jac.rows(); ++r)
    for (std::size_t c = 0; c < jac.cols(); ++c) jac(r, c) *= scale_[r];
  return jac;
}

double NnController::lipschitz_bound() const {
  double max_scale = 0.0;
  for (double v : scale_) max_scale = std::max(max_scale, std::abs(v));
  return max_scale * net_.lipschitz_upper_bound();
}

void NnController::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("NnController::save_file: cannot open " + path);
  out << "cocktail-nn-controller v1\n";
  out.precision(17);
  out << scale_.size();
  for (double v : scale_) out << ' ' << v;
  out << '\n';
  net_.save(out);
  out.close();
  if (!out)
    throw std::runtime_error("NnController::save_file: write failed: " + path);
}

NnController NnController::load_file(const std::string& path,
                                     std::string label) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("NnController::load_file: cannot open " + path);
  std::string word1, word2;
  in >> word1 >> word2;
  if (word1 != "cocktail-nn-controller" || word2 != "v1")
    throw std::runtime_error("NnController::load_file: bad header in " + path);
  std::size_t n = 0;
  in >> n;
  // The scale has one entry or one per network output, so the network's
  // width cap bounds it before anything is allocated.
  if (!in || n == 0 || n > nn::Mlp::kMaxLoadWidth)
    throw std::runtime_error("NnController::load_file: bad scale length in " +
                             path);
  la::Vec scale(n);
  for (auto& v : scale) in >> v;
  if (!in)
    throw std::runtime_error("NnController::load_file: truncated scale in " +
                             path);
  nn::Mlp net = nn::Mlp::load(in);
  try {
    return NnController(std::move(net), std::move(scale), std::move(label));
  } catch (const std::invalid_argument& error) {
    // A scale that does not fit the network is a malformed file too.
    throw std::runtime_error("NnController::load_file: " +
                             std::string(error.what()) + " in " + path);
  }
}

}  // namespace cocktail::ctrl
