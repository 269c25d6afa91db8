// Interval bound propagation (IBP) through an MLP.
//
// A second, Bernstein-free enclosure of the network output over a box:
// each dense layer maps an interval vector through W·x + b using interval
// arithmetic, and monotone activations map endpoint-wise.  IBP is much
// cheaper than Bernstein-grid sampling (one pass instead of Π(dᵢ+1)
// samples) but looser on wide boxes — the wrapping effect compounds per
// layer.  The NnAbstraction can intersect both enclosures
// (`AbstractionMethod::kHybrid`) for the best of each; the comparison is
// itself an ablation (Remark 2 discusses Verisig-style propagation as the
// alternative family).
#pragma once

#include "nn/mlp.h"
#include "verify/interval.h"

namespace cocktail::verify {

/// Interval image of one activation (all supported activations are
/// monotone, so endpoint evaluation is exact).
[[nodiscard]] Interval activate_interval(nn::Activation act,
                                         const Interval& z);

/// Propagates the input box through the network; returns an enclosure of
/// { net(x) : x ∈ box }.  Sound for any input box; tightness degrades with
/// box width and depth.
[[nodiscard]] IBox ibp_enclose(const nn::Mlp& net, const IBox& box);

}  // namespace cocktail::verify
