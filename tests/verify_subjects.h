// The committed verify subjects (perfbench/subjects/) and the configs the
// verify workload runs them at, shared by the soundness oracle and the
// golden-digest suite.  The subject directory comes from the
// COCKTAIL_SUBJECT_DIR compile definition (root CMakeLists.txt), so the
// suites read the source tree's files in place.
#pragma once

#include <memory>
#include <string>

#include "control/nn_controller.h"
#include "verify/invariant.h"
#include "verify/reach.h"

namespace cocktail::testutil {

using Subject = std::shared_ptr<const ctrl::NnController>;

/// Loads `<system>_<tag>.txt`, e.g. ("threed", "kd").
inline Subject load_subject(const std::string& system, const std::string& tag) {
  return std::make_shared<const ctrl::NnController>(
      ctrl::NnController::load_file(std::string(COCKTAIL_SUBJECT_DIR) + "/" +
                                        system + "_" + tag + ".txt",
                                    system + "_" + tag));
}

/// perfbench's reachability config (bench_fig4's).
inline verify::ReachConfig fig4_config() {
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.max_box_width = 0.02;
  config.merge_threshold = 2048;
  config.budget.max_nn_evaluations = 40'000'000;
  config.budget.max_partitions = 300'000;
  return config;
}

/// perfbench's invariant-set config (bench_fig3's).
inline verify::InvariantConfig fig3_config() {
  verify::InvariantConfig config;
  config.grid = {80, 80};
  config.abstraction.epsilon_target = 0.4;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.budget.max_nn_evaluations = 400'000'000;
  config.budget.max_partitions = 10'000'000;
  return config;
}

}  // namespace cocktail::testutil
