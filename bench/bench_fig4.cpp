// Fig 4 reproduction: reachable set of the 3D system within the first 15
// control steps from the corner initial set
//   s ∈ [-0.11, -0.105] × [0.205, 0.21] × [0.1, 0.11].
//
// Paper result: κ* verifies Safe within minutes; κD crashes with a memory
// segmentation fault after 12 reachable-set computations because its large
// Lipschitz constant blows up the partition count.  Our substrate bounds
// that blow-up with an explicit verification budget, so κD's failure is
// reported cleanly instead of crashing — same mechanism, observable result.
//
// Remark 2's mechanism here: each partition's enclosure is its Bernstein
// grid samples widened by the grid's covering radius L·‖(wᵢ/(2dᵢ))ᵢ‖₂
// (verify/bernstein.h), so the degree a target ε needs grows linearly in
// L, and a partition whose capped degree cannot reach ε is bisected.
// κD's much larger L still costs many times κ*'s work, and at this
// budget its run still fails.
#include <cstdio>

#include "bench_common.h"
#include "sys/registry.h"
#include "util/csv.h"
#include "util/paths.h"
#include "verify/reach.h"

namespace {

cocktail::verify::ReachConfig fig4_config() {
  cocktail::verify::ReachConfig config;
  config.steps = 15;
  // Tight eps: the covering-radius slack enters the flowpipe as ±eps on u
  // every step (tau * 2 * eps of state growth), so a loose enclosure
  // inflates the reachable set linearly in time even under a contracting
  // controller.
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.max_box_width = 0.02;
  config.merge_threshold = 2048;
  // The budget plays the role of the paper's memory limit (the paper's kD
  // run died of a segmentation fault at the equivalent point).
  config.budget.max_nn_evaluations = 40'000'000;
  config.budget.max_partitions = 300'000;
  return config;
}

}  // namespace

int main() {
  using namespace cocktail;
  bench::print_banner("Fig 4",
                      "paper Fig 4 (3D-system reachability, k* vs kD)");

  const auto artifacts = bench::load_pipeline("threed");
  const verify::IBox initial =
      verify::make_box({-0.11, 0.205, 0.1}, {-0.105, 0.21, 0.11});

  struct Subject {
    std::string label;
    ctrl::ControllerPtr controller;
    std::string csv_tag;
  };
  const Subject subjects[] = {
      {"k*", artifacts.robust_student, "kstar"},
      {"kD", artifacts.direct_student, "kD"}};

  for (const auto& subject : subjects) {
    std::printf("\nreachability for %s (L = %.2f):\n", subject.label.c_str(),
                subject.controller->lipschitz_bound());
    const verify::ReachabilityAnalyzer analyzer(
        artifacts.system, *subject.controller, fig4_config());
    const auto result = analyzer.analyze(initial);
    if (!result.completed) {
      std::printf("  -> verification FAILED (budget exhausted — the "
                  "paper's kD segfaulted here): %s\n",
                  result.failure.c_str());
      std::printf("  -> consumed %ld NN evals / %ld partitions in %.2f s\n",
                  result.nn_evaluations, result.partitions, result.seconds);
      continue;
    }
    std::printf("  -> verified %s in %.2f s (%ld NN evals, %ld partitions)\n",
                result.safe ? "SAFE" : "UNSAFE", result.seconds,
                result.nn_evaluations, result.partitions);
    const std::string path =
        util::output_dir() + "/fig4_reach_" + subject.csv_tag + ".csv";
    util::CsvWriter csv(path, {"step", "x_lo", "x_hi", "y_lo", "y_hi"});
    for (std::size_t t = 0; t < result.layers.size(); ++t)
      for (const auto& box : result.layers[t])
        csv.row({static_cast<double>(t), box[0].lo(), box[0].hi(),
                 box[1].lo(), box[1].hi()});
    std::printf("  -> (x, y) flowpipe written to %s\n", path.c_str());
  }
  return 0;
}
