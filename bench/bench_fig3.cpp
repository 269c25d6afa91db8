// Fig 3 reproduction: control-invariant set XI of the Van der Pol
// oscillator for κ* and κD, with verification wall-clock time (the paper's
// verifiability metric: ~32 minutes for κ* vs ~11 hours for κD on their
// toolchain).
//
// Shape that must hold: the κ* computation is substantially faster (its
// smaller Lipschitz constant needs lower Bernstein degrees and fewer
// partitions) and its XI is at least as large (less conservative); the
// paper's 1500-simulation safety check from inside XI must pass.
#include <cstdio>

#include "bench_common.h"
#include "core/rollout.h"
#include "sys/registry.h"
#include "util/csv.h"
#include "util/paths.h"
#include "verify/invariant.h"

namespace {

cocktail::verify::InvariantConfig fig3_config() {
  cocktail::verify::InvariantConfig config;
  // 80x80 cells with eps = 0.4: fine enough that the enclosure slack
  // (cell width + covering radius + disturbance) stays below the closed
  // loop's one-step inward progress at the invariant-set boundary — the
  // empirical threshold where the fixed point stops eroding to nothing.
  config.grid = {80, 80};
  config.abstraction.epsilon_target = 0.4;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.budget.max_nn_evaluations = 400'000'000;
  config.budget.max_partitions = 10'000'000;
  return config;
}

}  // namespace

int main() {
  using namespace cocktail;
  bench::print_banner("Fig 3",
                      "paper Fig 3 (invariant set of the oscillator + "
                      "verification time)");

  const auto artifacts = bench::load_pipeline("vanderpol");
  const auto& system = *artifacts.system;
  const sys::Box domain = system.safe_region();

  struct Subject {
    std::string label;
    ctrl::ControllerPtr controller;
  };
  const Subject subjects[] = {{"k*", artifacts.robust_student},
                              {"kD", artifacts.direct_student}};

  verify::InvariantResult results[2];
  for (int i = 0; i < 2; ++i) {
    std::printf("\ncomputing XI for %s (L = %.2f)...\n",
                subjects[i].label.c_str(),
                subjects[i].controller->lipschitz_bound());
    const verify::InvariantSetComputer computer(
        artifacts.system, *subjects[i].controller, fig3_config());
    results[i] = computer.compute();
    if (!results[i].completed) {
      std::printf("  -> FAILED: %s\n", results[i].failure.c_str());
      continue;
    }
    std::printf("  -> |XI|/|X| = %.1f%%, time = %.2f s, NN evals = %ld, "
                "partitions = %ld\n",
                100.0 * results[i].volume_fraction, results[i].seconds,
                results[i].nn_evaluations, results[i].partitions);

    // Dump member cells for plotting.
    const std::string path = util::output_dir() + "/fig3_xi_" +
                             (i == 0 ? "kstar" : "kD") + ".csv";
    util::CsvWriter csv(path, {"x1_lo", "x1_hi", "x2_lo", "x2_hi"});
    for (std::size_t c = 0; c < results[i].cell_count(); ++c) {
      if (!results[i].member[c]) continue;
      const auto box = results[i].cell_box(domain, c);
      csv.row({box[0].lo(), box[0].hi(), box[1].lo(), box[1].hi()});
    }
    std::printf("  -> cells written to %s\n", path.c_str());
  }

  if (results[0].completed && results[1].completed) {
    std::printf("\nverification-time ratio kD/k* = %.1fx  (paper: ~20x)\n",
                results[1].seconds / std::max(results[0].seconds, 1e-9));
    std::printf("volume: XI(k*) = %.1f%%, XI(kD) = %.1f%%  (paper: XI(kD) "
                "more conservative)\n",
                100.0 * results[0].volume_fraction,
                100.0 * results[1].volume_fraction);
  }

  // The paper's closing validation: 1500 simulations from inside XI(k*),
  // all must remain safe.
  if (results[0].completed && results[0].volume_fraction > 0.0) {
    util::Rng rng(4242);
    int simulated = 0, safe = 0;
    while (simulated < 1500) {
      const la::Vec s0 = domain.sample(rng);
      if (!results[0].contains(domain, s0)) continue;
      ++simulated;
      core::RolloutConfig config;
      config.horizon = 300;
      const auto r = core::rollout(system, *artifacts.robust_student, s0,
                                   nullptr, rng, config);
      safe += r.safe;
    }
    std::printf("\nsimulated %d initial states inside XI(k*): %d stayed "
                "safe\n",
                simulated, safe);
  }
  return 0;
}
