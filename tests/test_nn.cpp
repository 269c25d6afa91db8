// Unit + property tests for src/nn: backprop correctness (finite-difference
// checks over all activations), the inference and tile passes bitwise
// against the scalar reference of mlp_reference.h, optimizers, losses,
// Lipschitz soundness, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "la/kernels.h"
#include "mlp_reference.h"
#include "nn/activation.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace cocktail {
namespace {

using la::Vec;
using nn::Activation;
using nn::Mlp;

/// Bit pattern of a double: comparing these, unlike ==, tells +0.0 from
/// -0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Row r of a row-major block of `width`-wide rows.
Vec row_of(const Vec& rows, std::size_t r, std::size_t width) {
  const auto first = rows.begin() + static_cast<std::ptrdiff_t>(r * width);
  return Vec(first, first + static_cast<std::ptrdiff_t>(width));
}

TEST(Activation, Values) {
  EXPECT_DOUBLE_EQ(nn::activate(Activation::kIdentity, -1.5), -1.5);
  EXPECT_DOUBLE_EQ(nn::activate(Activation::kRelu, -1.5), 0.0);
  EXPECT_DOUBLE_EQ(nn::activate(Activation::kRelu, 2.0), 2.0);
  EXPECT_NEAR(nn::activate(Activation::kTanh, 0.5), std::tanh(0.5), 1e-15);
}

TEST(Activation, DerivativesMatchFiniteDifference) {
  const double h = 1e-6;
  for (const auto act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh}) {
    for (const double z : {-1.3, 0.4, 2.1}) {
      const double a = nn::activate(act, z);
      const double numeric =
          (nn::activate(act, z + h) - nn::activate(act, z - h)) / (2.0 * h);
      EXPECT_NEAR(nn::activate_grad(act, z, a), numeric, 1e-5)
          << nn::to_string(act) << " at " << z;
    }
  }
}

TEST(Activation, ReluBackwardRowsMatchDeltaTimesGrad) {
  // backprop_rows picks ReLU's factor 1.0 or +0.0 by a compare mask instead
  // of a branch; every product must still be delta * activate_grad bitwise
  // (any NaN matching any NaN), for every pair of signed zeros,
  // subnormals, normals, infinities and NaNs, at every row length (the
  // vectorized loop's tails).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0,  -0.0, sub,  -sub, 1e-310, -1e-310, 1.5,
                           -2.5, inf,  -inf, nan,  -nan};
  std::vector<double> z, delta;
  for (const double zv : values)
    for (const double dv : values) {
      z.push_back(zv);
      delta.push_back(dv);
    }
  const std::vector<double> a(z.size(), 0.0);
  for (std::size_t n = 1; n <= z.size(); ++n) {
    std::vector<double> dz(n);
    nn::backprop_rows(Activation::kRelu, z.data(), a.data(), delta.data(),
                      dz.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double want =
          delta[i] * nn::activate_grad(Activation::kRelu, z[i], a[i]);
      ASSERT_TRUE((std::isnan(want) && std::isnan(dz[i])) ||
                  bits(want) == bits(dz[i]))
          << "z " << z[i] << " delta " << delta[i] << ": " << dz[i]
          << " vs " << want;
    }
  }
}

TEST(Activation, StringRoundTrip) {
  for (const auto act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh})
    EXPECT_EQ(nn::activation_from_string(nn::to_string(act)), act);
  EXPECT_THROW((void)nn::activation_from_string("swish"),
               std::invalid_argument);
}

TEST(MlpTest, ShapesAndParameterCount) {
  const Mlp net = Mlp::make(3, {5, 4}, 2, Activation::kTanh,
                            Activation::kIdentity, 1);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.num_layers(), 3u);
  // (3*5+5) + (5*4+4) + (4*2+2) = 20 + 24 + 10.
  EXPECT_EQ(net.num_parameters(), 54u);
  EXPECT_EQ(net.forward({1.0, 2.0, 3.0}).size(), 2u);
}

TEST(MlpTest, ForwardMatchesManualSingleLayer) {
  util::Rng rng(2);
  std::vector<std::size_t> widths = {2, 1};
  std::vector<Activation> acts = {Activation::kIdentity};
  Mlp net(widths, acts, rng);
  auto& layer = net.layers()[0];
  layer.w(0, 0) = 2.0;
  layer.w(0, 1) = -1.0;
  layer.b[0] = 0.5;
  EXPECT_DOUBLE_EQ(net.forward({3.0, 4.0})[0], 2.5);
}

/// Finite-difference check of the parameter and input gradients the
/// one-row tile pass computes, for one architecture/activation combination.
void check_gradients(Activation hidden, Activation output,
                     std::uint64_t seed) {
  Mlp net = Mlp::make(3, {4, 4}, 2, hidden, output, seed);
  util::Rng rng(seed + 99);
  const Vec x = rng.normal_vec(3);
  const Vec target = rng.normal_vec(2);

  Mlp::Tape tape;
  const double* out = net.forward_tile(x.data(), 1, tape);
  const Vec dy = nn::mse_gradient(Vec(out, out + 2), target);
  nn::Gradients grads = net.zero_gradients();
  Vec dx(3);
  net.backward_tile(tape, dy.data(), 1, nullptr, &grads, dx.data());

  const double h = 1e-6;
  // Input gradient check.
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double numeric = (nn::mse(net.forward(xp), target) -
                            nn::mse(net.forward(xm), target)) /
                           (2.0 * h);
    EXPECT_NEAR(dx[i], numeric, 1e-4) << "input grad dim " << i;
  }
  // Spot-check parameter gradients (first/last layer, several entries).
  for (const std::size_t layer_idx : {std::size_t{0}, net.num_layers() - 1}) {
    auto& layer = net.layers()[layer_idx];
    for (std::size_t k = 0; k < std::min<std::size_t>(layer.w.size(), 6);
         ++k) {
      const double saved = layer.w.data()[k];
      layer.w.data()[k] = saved + h;
      const double up = nn::mse(net.forward(x), target);
      layer.w.data()[k] = saved - h;
      const double dn = nn::mse(net.forward(x), target);
      layer.w.data()[k] = saved;
      EXPECT_NEAR(grads.w[layer_idx].data()[k], (up - dn) / (2.0 * h), 1e-4)
          << "w grad layer " << layer_idx << " entry " << k;
    }
    const double saved_b = layer.b[0];
    layer.b[0] = saved_b + h;
    const double up = nn::mse(net.forward(x), target);
    layer.b[0] = saved_b - h;
    const double dn = nn::mse(net.forward(x), target);
    layer.b[0] = saved_b;
    EXPECT_NEAR(grads.b[layer_idx][0], (up - dn) / (2.0 * h), 1e-4);
  }
}

class MlpGradient
    : public ::testing::TestWithParam<std::tuple<Activation, Activation>> {};

TEST_P(MlpGradient, MatchesFiniteDifference) {
  const auto [hidden, output] = GetParam();
  check_gradients(hidden, output, 7);
  check_gradients(hidden, output, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, MlpGradient,
    ::testing::Combine(::testing::Values(Activation::kRelu, Activation::kTanh),
                       ::testing::Values(Activation::kIdentity,
                                         Activation::kTanh)));

TEST(MlpTest, InputGradientMatchesBackward) {
  // The reference's two backward forms agree.
  Mlp net = Mlp::make(2, {8}, 1, Activation::kTanh, Activation::kIdentity, 3);
  const Vec x = {0.3, -0.7};
  const Vec dy = {1.0};
  ref::Workspace ws;
  ref::forward(net, x, ws);
  nn::Gradients grads = net.zero_gradients();
  const Vec via_backward = ref::backward(net, ws, dy, grads);
  const Vec via_input = ref::input_gradient(net, x, dy);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(via_backward[i], via_input[i], 1e-14);
}

TEST(MlpTest, JacobianMatchesFiniteDifference) {
  Mlp net = Mlp::make(3, {6, 6}, 2, Activation::kTanh, Activation::kTanh, 5);
  const Vec x = {0.2, -0.1, 0.4};
  const la::Matrix jac = net.input_jacobian(x);
  const double h = 1e-6;
  for (std::size_t c = 0; c < 3; ++c) {
    Vec xp = x, xm = x;
    xp[c] += h;
    xm[c] -= h;
    const Vec yp = net.forward(xp);
    const Vec ym = net.forward(xm);
    for (std::size_t r = 0; r < 2; ++r)
      EXPECT_NEAR(jac(r, c), (yp[r] - ym[r]) / (2.0 * h), 1e-5);
  }
}

TEST(MlpTest, L2GradientIsTwoLambdaQ) {
  Mlp net = Mlp::make(2, {3}, 1, Activation::kRelu, Activation::kIdentity, 9);
  nn::Gradients grads = net.zero_gradients();
  net.accumulate_l2_gradient(0.5, grads);
  EXPECT_NEAR(grads.w[0].data()[0], net.layers()[0].w.data()[0], 1e-15);
}

/// Empirical (lower-bound) Lipschitz estimate: max over `samples` pairs of
/// nearby points in [lo, hi] of ||f(x)-f(y)|| / ||x-y||.
double sampled_lipschitz(const Mlp& net, const Vec& lo, const Vec& hi,
                         int samples, util::Rng& rng) {
  double best = 0.0;
  for (int k = 0; k < samples; ++k) {
    Vec x(lo.size()), y(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      x[i] = rng.uniform(lo[i], hi[i]);
      // y is a nearby point: local slopes dominate the Lipschitz constant.
      const double radius = 1e-3 * (hi[i] - lo[i]);
      y[i] = std::clamp(x[i] + rng.uniform(-radius, radius), lo[i], hi[i]);
    }
    const double dx = la::norm_l2(la::sub(x, y));
    if (dx < 1e-12) continue;
    const double df = la::norm_l2(la::sub(net.forward(x), net.forward(y)));
    best = std::max(best, df / dx);
  }
  return best;
}

TEST(MlpTest, LipschitzBoundIsSound) {
  // Property: certified bound >= empirical slope, over several nets.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Mlp net = Mlp::make(2, {16, 16}, 1, Activation::kTanh,
                              Activation::kIdentity, seed);
    util::Rng rng(seed);
    const double certified = net.lipschitz_upper_bound();
    const double sampled =
        sampled_lipschitz(net, {-1.0, -1.0}, {1.0, 1.0}, 2000, rng);
    EXPECT_GE(certified, sampled) << "seed " << seed;
    EXPECT_GT(sampled, 0.0);
  }
}

TEST(MlpTest, SerializationRoundTrip) {
  const Mlp net = Mlp::make(3, {7, 5}, 2, Activation::kRelu,
                            Activation::kTanh, 11);
  std::stringstream buffer;
  net.save(buffer);
  const Mlp loaded = Mlp::load(buffer);
  util::Rng rng(1);
  for (int k = 0; k < 10; ++k) {
    const Vec x = rng.normal_vec(3);
    const Vec a = net.forward(x);
    const Vec b = loaded.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(MlpTest, LoadRejectsBadHeader) {
  std::stringstream buffer("not-a-model v9\n");
  EXPECT_THROW(Mlp::load(buffer), std::runtime_error);
}

TEST(MlpTest, LoadRejectsTruncatedStream) {
  const Mlp net = Mlp::make(3, {7, 5}, 2, Activation::kRelu,
                            Activation::kTanh, 11);
  std::stringstream buffer;
  net.save(buffer);
  const std::string full = buffer.str();
  // Cut the payload at several depths: mid-weights, mid-bias, after the
  // header only.  Every truncation must throw, never return a half-read net.
  for (const double fraction : {0.2, 0.5, 0.9}) {
    std::stringstream cut(
        full.substr(0, static_cast<std::size_t>(fraction * full.size())));
    EXPECT_THROW(Mlp::load(cut), std::runtime_error) << fraction;
  }
  std::stringstream header_only("cocktail-mlp v1\n");
  EXPECT_THROW(Mlp::load(header_only), std::runtime_error);
}

TEST(MlpTest, LoadRejectsLayerDimensionMismatch) {
  // Layer 0 produces 2 outputs; layer 1 claims 3 inputs.
  std::stringstream buffer(
      "cocktail-mlp v1\n"
      "2\n"
      "2 1 tanh\n"
      "0.5\n-0.5\n"
      "0.1 0.2\n"
      "1 3 identity\n"
      "0.1 0.2 0.3\n"
      "0.0\n");
  EXPECT_THROW(Mlp::load(buffer), std::runtime_error);
}

TEST(MlpTest, LoadRejectsNonFiniteWeights) {
  std::stringstream nan_weight(
      "cocktail-mlp v1\n"
      "1\n"
      "1 2 identity\n"
      "0.5 nan\n"
      "0.0\n");
  EXPECT_THROW(Mlp::load(nan_weight), std::runtime_error);
  std::stringstream inf_bias(
      "cocktail-mlp v1\n"
      "1\n"
      "1 2 identity\n"
      "0.5 0.25\n"
      "inf\n");
  EXPECT_THROW(Mlp::load(inf_bias), std::runtime_error);
}

TEST(MlpTest, LoadRejectsSigmoidLayer) {
  // sigmoid is not an activation: a file naming it fails to load like any
  // unknown activation, while the same layer with tanh loads.
  std::stringstream sigmoid(
      "cocktail-mlp v1\n"
      "1\n"
      "1 2 sigmoid\n"
      "0.5 0.25\n"
      "0.0\n");
  EXPECT_THROW(Mlp::load(sigmoid), std::runtime_error);
  std::stringstream tanh_layer(
      "cocktail-mlp v1\n"
      "1\n"
      "1 2 tanh\n"
      "0.5 0.25\n"
      "0.0\n");
  EXPECT_EQ(Mlp::load(tanh_layer).layers()[0].act, Activation::kTanh);
}

// Oversized headers fail closed, as the documented std::runtime_error,
// before anything is allocated: an uncapped loader would let the first
// input escape as std::bad_alloc and the second as std::length_error.
TEST(MlpTest, LoadRejectsOversizedHeaders) {
  std::stringstream wide(
      "cocktail-mlp v1\n"
      "1\n"
      "100000000 100000000 tanh\n");
  EXPECT_THROW(Mlp::load(wide), std::runtime_error);
  std::stringstream deep(
      "cocktail-mlp v1\n"
      "1000000000000000000\n"
      "1 2 identity\n"
      "0.5 0.25\n"
      "0.0\n");
  EXPECT_THROW(Mlp::load(deep), std::runtime_error);
  // Just past each cap is refused too.
  std::stringstream one_too_wide(
      "cocktail-mlp v1\n"
      "1\n"
      "1 " + std::to_string(Mlp::kMaxLoadWidth + 1) + " identity\n");
  EXPECT_THROW(Mlp::load(one_too_wide), std::runtime_error);
  std::stringstream one_too_deep(
      "cocktail-mlp v1\n" + std::to_string(Mlp::kMaxLoadLayers + 1) +
      "\n1 2 identity\n0.5 0.25\n0.0\n");
  EXPECT_THROW(Mlp::load(one_too_deep), std::runtime_error);
}

TEST(MlpTest, SaveFileReportsWriteFailure) {
  // /dev/full opens fine and fails every write with ENOSPC — a full disk.
  // save_file must throw, not return as if a (truncated) file were saved.
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "needs /dev/full";
  const Mlp net = Mlp::make(3, {16}, 1, Activation::kTanh,
                            Activation::kIdentity, 8);
  EXPECT_THROW(net.save_file("/dev/full"), std::runtime_error);
}

/// Runs forward_rows over `rows` random input rows; every output row, and
/// forward() of its input row, must equal the reference forward pass bit
/// for bit (signed zeros included).
void expect_rows_match_reference(const Mlp& net, std::size_t rows,
                                 util::Rng& rng) {
  const std::size_t in = net.input_dim();
  const std::size_t out = net.output_dim();
  Vec x(rows * in), y(rows * out);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  net.forward_rows(x.data(), rows, y.data());
  for (std::size_t r = 0; r < rows; ++r) {
    const Vec want = ref::forward(net, row_of(x, r, in));
    const Vec single = net.forward(row_of(x, r, in));
    ASSERT_EQ(single.size(), out);
    for (std::size_t i = 0; i < out; ++i) {
      ASSERT_EQ(bits(y[r * out + i]), bits(want[i]))
          << "rows " << rows << " row " << r << " out " << i;
      ASSERT_EQ(bits(single[i]), bits(want[i]))
          << "forward() of row " << r << " out " << i;
    }
  }
}

TEST(MlpTest, ForwardRowsIsBitwiseIdenticalToReferenceForward) {
  // The serving runtime's contract: batching must never change an answer.
  // Sweep shapes and activations; every row at every row count must match
  // the scalar reference bit for bit.
  struct Case {
    std::vector<std::size_t> hidden;
    Activation hidden_act;
    Activation out_act;
  };
  const std::vector<Case> cases = {
      {{16}, Activation::kTanh, Activation::kIdentity},
      {{24, 24}, Activation::kRelu, Activation::kTanh},
      {{8, 8, 8}, Activation::kTanh, Activation::kIdentity},
  };
  util::Rng rng(31);
  for (const Case& c : cases) {
    const Mlp net = Mlp::make(4, c.hidden, 3, c.hidden_act, c.out_act, 77);
    for (std::size_t rows = 1; rows <= 17; ++rows)
      expect_rows_match_reference(net, rows, rng);
  }
}

TEST(MlpTest, ForwardRowsBitwiseOnPrimeWidthsAndBatches) {
  // Widths and row counts that are multiples of nothing: the blocked
  // GEMM's panel tails and the tanh kernel's lane tails must still land on
  // the reference's bits.  Every row count up to two tiles and a bit
  // crosses forward_rows' row tiles (Mlp::kForwardTileRows).
  const Mlp net = Mlp::make(5, {31, 17}, 3, Activation::kTanh,
                            Activation::kIdentity, 123);
  util::Rng rng(41);
  for (std::size_t rows = 1; rows <= 2 * Mlp::kForwardTileRows + 3; ++rows)
    expect_rows_match_reference(net, rows, rng);
}

TEST(MlpTest, BackwardPropagatesNanIntoWeightGradients) {
  // Regression for the add_outer zero-skip: with dLoss/dy = 0 the weight
  // gradient is 0 * input.  If the input activation is NaN that product is
  // NaN, and the old `kc == 0.0` skip silently dropped it.  The tile path
  // (la::kernels::add_outer_rows) must propagate it too.
  Mlp net = Mlp::make(1, {}, 1, Activation::kIdentity,
                      Activation::kIdentity, 1);
  ref::Workspace ws;
  const Vec y = ref::forward(net, {std::nan("")}, ws);
  ASSERT_TRUE(std::isnan(y[0]));
  nn::Gradients grads = net.zero_gradients();
  ref::backward(net, ws, {0.0}, grads);
  EXPECT_TRUE(std::isnan(grads.w[0](0, 0)));

  // Tile path: the NaN row sits between two finite rows.
  const double x[3] = {0.5, std::nan(""), -0.25};
  const double dy[3] = {1.0, 0.0, 1.0};
  Mlp::Tape tape;
  const double* out = net.forward_tile(x, 3, tape);
  ASSERT_TRUE(std::isnan(out[1]));
  nn::Gradients tile_grads = net.zero_gradients();
  net.backward_tile(tape, dy, 3, nullptr, &tile_grads, nullptr);
  EXPECT_TRUE(std::isnan(tile_grads.w[0](0, 0)));
}

// --- row tiles: forward_tile/backward_tile against the reference ---------

void expect_bitwise(const double* got, const Vec& want, const char* what,
                    std::size_t row) {
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << " row " << row << " entry " << i;
}

void expect_same_gradients(const nn::Gradients& got,
                           const nn::Gradients& want) {
  ASSERT_EQ(got.w.size(), want.w.size());
  for (std::size_t l = 0; l < want.w.size(); ++l) {
    const Vec& gw = got.w[l].data();
    const Vec& ww = want.w[l].data();
    for (std::size_t i = 0; i < ww.size(); ++i)
      ASSERT_EQ(bits(gw[i]), bits(ww[i])) << "layer " << l << " w[" << i
                                          << "]";
    for (std::size_t i = 0; i < want.b[l].size(); ++i)
      ASSERT_EQ(bits(got.b[l][i]), bits(want.b[l][i]))
          << "layer " << l << " b[" << i << "]";
  }
}

/// Gradients with every entry nonzero, so the tile pass is checked
/// accumulating onto an existing sum rather than onto zeros.
nn::Gradients seeded_gradients(const Mlp& net, util::Rng& rng) {
  nn::Gradients g = net.zero_gradients();
  for (auto& m : g.w)
    for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& b : g.b)
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return g;
}

/// Records `rows` random input rows with forward_tile and backpropagates
/// one cotangent row per entry of `row_map` (row k belongs to recorded row
/// row_map[k]); everything must equal the per-sample reference —
/// ref::forward then ref::backward for each cotangent row in order —
/// bitwise.
void expect_tile_matches_per_sample(const Mlp& net, std::size_t rows,
                                    const std::vector<std::size_t>& row_map,
                                    bool mapped, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t in = net.input_dim();
  const std::size_t out = net.output_dim();
  const std::size_t count = row_map.size();
  Vec x(rows * in), dy(count * out), dx(count * in);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  for (auto& v : dy) v = rng.uniform(-1.0, 1.0);
  nn::Gradients tile_grads = seeded_gradients(net, rng);
  nn::Gradients oracle_grads = tile_grads;

  Mlp::Tape tape;
  const double* y = net.forward_tile(x.data(), rows, tape);
  for (std::size_t r = 0; r < rows; ++r)
    expect_bitwise(y + r * out, ref::forward(net, row_of(x, r, in)), "output",
                   r);
  net.backward_tile(tape, dy.data(), count,
                    mapped ? row_map.data() : nullptr, &tile_grads,
                    dx.data());

  for (std::size_t k = 0; k < count; ++k) {
    ref::Workspace ws;
    (void)ref::forward(net, row_of(x, row_map[k], in), ws);
    const Vec dxk = ref::backward(net, ws, row_of(dy, k, out), oracle_grads);
    expect_bitwise(dx.data() + k * in, dxk, "dl_dx", k);
  }
  expect_same_gradients(tile_grads, oracle_grads);
}

TEST(MlpTile, BackwardMatchesSuccessiveBackwardCalls) {
  // Widths off every 4- and 16-lane boundary of the kernels (1, 3, 17)
  // next to a full one (64), every activation in a hidden and an output
  // position, and tiles below, at and above the training grain of 8.
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 17, 64, 1}, {1, 64, 3}, {17, 3, 17}, {64, 1, 64}};
  const Activation acts[] = {Activation::kRelu, Activation::kTanh,
                             Activation::kIdentity};
  std::uint64_t seed = 100;
  for (const auto& widths : shapes) {
    for (const Activation hidden : acts) {
      for (const Activation output : acts) {
        std::vector<Activation> layer_acts(widths.size() - 2, hidden);
        layer_acts.push_back(output);
        util::Rng init(++seed);
        const Mlp net(widths, layer_acts, init);
        for (const std::size_t rows : {1, 7, 8, 16}) {
          std::vector<std::size_t> identity(rows);
          for (std::size_t r = 0; r < rows; ++r) identity[r] = r;
          SCOPED_TRACE(::testing::Message()
                       << "widths " << widths.front() << ".." << widths.back()
                       << " hidden " << nn::to_string(hidden) << " output "
                       << nn::to_string(output) << " rows " << rows);
          expect_tile_matches_per_sample(net, rows, identity, false, seed);
        }
      }
    }
  }
}

TEST(MlpTile, RowMapLetsCotangentRowsShareAForward) {
  // The PPO pattern (rows 2k and 2k+1 on recorded row k) and an arbitrary
  // map with repeats out of order.
  util::Rng init(7);
  const Mlp net({3, 17, 64, 2},
                {Activation::kTanh, Activation::kRelu, Activation::kTanh},
                init);
  std::vector<std::size_t> paired(16);
  for (std::size_t k = 0; k < paired.size(); ++k) paired[k] = k / 2;
  expect_tile_matches_per_sample(net, 8, paired, true, 71);
  expect_tile_matches_per_sample(net, 5, {4, 0, 0, 3, 1, 4, 4, 2, 0}, true,
                                 72);
}

TEST(MlpTile, InputGradientMatchesInputGradient) {
  // grads == nullptr is the input_jacobian / dQ-da mode: dl_dx alone,
  // equal to the reference input gradient bitwise.
  util::Rng init(8);
  const Mlp net(
      {3, 17, 17, 1},
      {Activation::kRelu, Activation::kTanh, Activation::kIdentity}, init);
  util::Rng rng(9);
  const std::size_t rows = 7;
  Vec x(rows * 3), dy(rows), dx(rows * 3);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  for (auto& v : dy) v = rng.uniform(-1.0, 1.0);
  Mlp::Tape tape;
  net.forward_tile(x.data(), rows, tape);
  net.backward_tile(tape, dy.data(), rows, nullptr, nullptr, dx.data());
  for (std::size_t r = 0; r < rows; ++r)
    expect_bitwise(dx.data() + 3 * r,
                   ref::input_gradient(net, row_of(x, r, 3), {dy[r]}),
                   "input gradient", r);
}

TEST(MlpTile, BackwardRejectsForeignTapesMapsAndGradients) {
  const Mlp a = Mlp::make(2, {4}, 1, Activation::kTanh,
                          Activation::kIdentity, 1);
  const Mlp b = Mlp::make(2, {4}, 1, Activation::kTanh,
                          Activation::kIdentity, 2);
  const Mlp wide = Mlp::make(2, {5}, 1, Activation::kTanh,
                             Activation::kIdentity, 3);
  const double x[4] = {0.1, 0.2, 0.3, 0.4};
  const double dy[3] = {1.0, 1.0, 1.0};
  Mlp::Tape tape;
  a.forward_tile(x, 2, tape);
  nn::Gradients grads = a.zero_gradients();
  EXPECT_THROW(b.backward_tile(tape, dy, 2, nullptr, &grads, nullptr),
               std::invalid_argument);
  const std::size_t past[2] = {0, 2};
  EXPECT_THROW(a.backward_tile(tape, dy, 2, past, &grads, nullptr),
               std::invalid_argument);
  EXPECT_THROW(a.backward_tile(tape, dy, 3, nullptr, &grads, nullptr),
               std::invalid_argument);
  nn::Gradients wrong = wide.zero_gradients();
  EXPECT_THROW(a.backward_tile(tape, dy, 2, nullptr, &wrong, nullptr),
               std::invalid_argument);
}

TEST(MlpTest, InputJacobianRowsAreReferenceInputGradients) {
  // input_jacobian runs one backward_tile over the identity cotangent rows;
  // row r must be the reference input gradient of e_r bit for bit, for
  // several outputs and every activation in a hidden and an output
  // position.
  const Activation acts[] = {Activation::kRelu, Activation::kTanh,
                             Activation::kIdentity};
  util::Rng rng(61);
  std::uint64_t seed = 60;
  for (const auto& widths : std::vector<std::vector<std::size_t>>{
           {3, 17, 9, 4}, {2, 64, 3}, {4, 5, 2}}) {
    for (const Activation hidden : acts) {
      for (const Activation output : acts) {
        std::vector<Activation> layer_acts(widths.size() - 2, hidden);
        layer_acts.push_back(output);
        util::Rng init(++seed);
        const Mlp net(widths, layer_acts, init);
        const std::size_t out = net.output_dim();
        for (int trial = 0; trial < 3; ++trial) {
          const Vec x = rng.uniform_vec(net.input_dim(), -2.0, 2.0);
          const la::Matrix jac = net.input_jacobian(x);
          ASSERT_EQ(jac.rows(), out);
          ASSERT_EQ(jac.cols(), net.input_dim());
          for (std::size_t r = 0; r < out; ++r) {
            Vec e(out, 0.0);
            e[r] = 1.0;
            SCOPED_TRACE(::testing::Message()
                         << "hidden " << nn::to_string(hidden) << " output "
                         << nn::to_string(output) << " out " << out);
            expect_bitwise(jac.data().data() + r * jac.cols(),
                           ref::input_gradient(net, x, e), "jacobian", r);
          }
        }
      }
    }
  }
}

TEST(MlpTest, RejectsWrongInputWidth) {
  // forward_rows reads input_dim() doubles per row and checks nothing, so
  // the entry points that take a state check its width: a short state
  // would be read past its end.
  const Mlp net = Mlp::make(3, {4}, 2, Activation::kTanh,
                            Activation::kIdentity, 5);
  for (const Vec& x : {Vec{}, Vec{0.1, 0.2}, Vec{0.1, 0.2, 0.3, 0.4}}) {
    EXPECT_THROW((void)net.forward(x), std::invalid_argument) << x.size();
    EXPECT_THROW((void)net.input_jacobian(x), std::invalid_argument)
        << x.size();
  }
  EXPECT_EQ(net.forward({0.1, 0.2, 0.3}).size(), 2u);
  EXPECT_EQ(net.input_jacobian({0.1, 0.2, 0.3}).cols(), 3u);
}

TEST(Optimizer, AdamMinimizesQuadratic) {
  // Fit y = net(x) to y* = 3x - 1 on fixed points; Adam must reach tiny loss.
  Mlp net = Mlp::make(1, {8}, 1, Activation::kTanh, Activation::kIdentity, 13);
  nn::Adam opt(0.02);
  util::Rng rng(13);
  double final_loss = 1e9;
  for (int epoch = 0; epoch < 400; ++epoch) {
    nn::Gradients grads = net.zero_gradients();
    double loss = 0.0;
    for (int k = 0; k < 16; ++k) {
      const double x = -1.0 + 2.0 * k / 15.0;
      const Vec target = {3.0 * x - 1.0};
      ref::Workspace ws;
      const Vec y = ref::forward(net, {x}, ws);
      loss += nn::mse(y, target);
      Vec dl = nn::mse_gradient(y, target);
      for (auto& g : dl) g /= 16.0;
      ref::backward(net, ws, dl, grads);
    }
    final_loss = loss / 16.0;
    opt.step(net, grads);
  }
  // Targets span [-4, 2]; 5e-3 MSE is ~1% relative error.
  EXPECT_LT(final_loss, 5e-3);
}

TEST(Optimizer, AdamRejectsNetsItsMomentsDoNotFit) {
  // One Adam stepping a 2-4-1 net and then a 2-8-1 net walked the wider
  // layers past the moment buffers sized for the first net (a heap buffer
  // overflow under ASan).  Both that and gradients shaped for another net
  // must throw before anything changes.
  Mlp small = Mlp::make(2, {4}, 1, Activation::kTanh, Activation::kIdentity,
                        1);
  Mlp wide = Mlp::make(2, {8}, 1, Activation::kTanh, Activation::kIdentity,
                       2);
  nn::Adam opt(0.01);
  opt.step(small, small.zero_gradients());
  const Mlp wide_before = wide;
  const Mlp small_before = small;
  EXPECT_THROW(opt.step(wide, wide.zero_gradients()), std::invalid_argument);
  EXPECT_THROW(opt.step(small, wide.zero_gradients()), std::invalid_argument);
  EXPECT_EQ(opt.step_count(), 1);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_EQ(wide.layers()[l].w.data(), wide_before.layers()[l].w.data());
    EXPECT_EQ(small.layers()[l].w.data(), small_before.layers()[l].w.data());
  }
}

TEST(MlpTest, L2GradientRejectsGradientsThatDoNotFit) {
  // accumulate_l2_gradient indexes grads.w[l] / grads.b[l] for every layer
  // of the net: gradients missing the last layer were read past the end of
  // their vectors (an assertion abort under _GLIBCXX_ASSERTIONS), and
  // layers of another width past their buffers.  Both must throw before
  // anything is written.
  const Mlp net = Mlp::make(2, {4}, 1, Activation::kTanh,
                            Activation::kIdentity, 1);
  nn::Gradients short_grads = net.zero_gradients();
  short_grads.w.pop_back();
  short_grads.b.pop_back();
  EXPECT_THROW(net.accumulate_l2_gradient(0.5, short_grads),
               std::invalid_argument);
  EXPECT_EQ(short_grads.w[0].data(), Vec(8, 0.0));
  const Mlp wide = Mlp::make(2, {8}, 1, Activation::kTanh,
                             Activation::kIdentity, 2);
  nn::Gradients wide_grads = wide.zero_gradients();
  EXPECT_THROW(net.accumulate_l2_gradient(0.5, wide_grads),
               std::invalid_argument);
  EXPECT_EQ(wide_grads.w[0].data(), Vec(16, 0.0));
}

TEST(Optimizer, AdamStepIsTheScalarAdamPerBuffer) {
  // Adam::step runs la::kernels::adam_update over each layer's weights and
  // biases: the bits of the scalar reference applied buffer by buffer with
  // the same bias corrections, step after step.
  Mlp net = Mlp::make(3, {17, 64}, 2, Activation::kRelu, Activation::kTanh,
                      4);
  Mlp ref = net;
  nn::Adam opt(0.01);
  nn::Gradients m = net.zero_gradients();
  nn::Gradients v = net.zero_gradients();
  util::Rng rng(5);
  for (int t = 1; t <= 3; ++t) {
    nn::Gradients g = net.zero_gradients();
    for (auto& w : g.w)
      for (auto& e : w.data()) e = rng.uniform(-1.0, 1.0);
    for (auto& b : g.b)
      for (auto& e : b) e = rng.uniform(-1.0, 1.0);
    opt.step(net, g);
    const la::kernels::AdamStep s{
        0.01, 0.9, 0.999, 1e-8, 1.0 - std::pow(0.9, static_cast<double>(t)),
        1.0 - std::pow(0.999, static_cast<double>(t))};
    for (std::size_t l = 0; l < ref.num_layers(); ++l) {
      auto& layer = ref.layers()[l];
      la::kernels::adam_update_ref(s, layer.w.size(), layer.w.data().data(),
                                   m.w[l].data().data(), v.w[l].data().data(),
                                   g.w[l].data().data());
      la::kernels::adam_update_ref(s, layer.b.size(), layer.b.data(),
                                   m.b[l].data(), v.b[l].data(),
                                   g.b[l].data());
    }
  }
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const Vec& got = net.layers()[l].w.data();
    const Vec& want = ref.layers()[l].w.data();
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(bits(got[i]), bits(want[i])) << "layer " << l << " w " << i;
    for (std::size_t i = 0; i < ref.layers()[l].b.size(); ++i)
      ASSERT_EQ(bits(net.layers()[l].b[i]), bits(ref.layers()[l].b[i]))
          << "layer " << l << " b " << i;
  }
}

TEST(Optimizer, AdamVecConverges) {
  la::Vec params = {5.0, -3.0};
  nn::AdamVec opt(0.1);
  for (int step = 0; step < 500; ++step) {
    // d/dp of 0.5*||p - (1,2)||^2.
    const la::Vec grads = {params[0] - 1.0, params[1] - 2.0};
    opt.step(params, grads);
  }
  EXPECT_NEAR(params[0], 1.0, 1e-3);
  EXPECT_NEAR(params[1], 2.0, 1e-3);
}

TEST(Gradients, ClipNormScalesDown) {
  Mlp net = Mlp::make(2, {4}, 1, Activation::kRelu, Activation::kIdentity, 19);
  nn::Gradients grads = net.zero_gradients();
  grads.w[0].fill(10.0);
  const double before = grads.l2_norm();
  ASSERT_GT(before, 1.0);
  grads.clip_norm(1.0);
  EXPECT_NEAR(grads.l2_norm(), 1.0, 1e-12);
}

TEST(Loss, MseAndGradient) {
  EXPECT_DOUBLE_EQ(nn::mse({1.0, 3.0}, {0.0, 1.0}), 2.5);
  const Vec g = nn::mse_gradient({1.0, 3.0}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

}  // namespace
}  // namespace cocktail
