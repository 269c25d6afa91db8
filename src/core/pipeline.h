// End-to-end Cocktail pipeline (paper Fig. 1 / Algorithm 1):
//
//   experts κ1, κ2  →  adaptive mixing AW  →  robust distillation κ*
//                   →  switching baseline AS   (for comparison)
//                   →  direct distillation κD  (for comparison)
//
// Every trained artifact is cached under COCKTAIL_MODEL_DIR keyed by system
// and seed, so the bench suite trains each network exactly once.  Every
// stage runs its parallel work on util::ThreadPool::shared(), and the
// artifacts are bitwise identical for any pool width.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/distiller.h"
#include "core/mixing.h"

namespace cocktail::core {

struct PipelineConfig {
  std::uint64_t seed = 2024;
  MixingConfig mixing;
  SwitchingConfig switching;
  DistillConfig distill;
  bool use_cache = true;
};

/// Baseline set of Table I for one system.
struct PipelineArtifacts {
  sys::SystemPtr system;
  std::vector<ctrl::ControllerPtr> experts;                 ///< κ1, κ2.
  ctrl::ControllerPtr switching;                            ///< AS.
  std::shared_ptr<const ctrl::MixedController> mixed;       ///< AW.
  ctrl::ControllerPtr direct_student;                       ///< κD.
  ctrl::ControllerPtr robust_student;                       ///< κ*.

  /// (label, controller) pairs in the paper's column order.
  [[nodiscard]] std::vector<std::pair<std::string, ctrl::ControllerPtr>>
  table_row_controllers() const;
};

/// Tuned defaults per system (training lengths sized so a cold-cache bench
/// run stays within minutes on a laptop CPU).
[[nodiscard]] PipelineConfig default_pipeline_config(
    const std::string& system_name);

/// Runs (or loads from cache) the full pipeline for `system`.
[[nodiscard]] PipelineArtifacts run_pipeline(sys::SystemPtr system,
                                             const PipelineConfig& config);

}  // namespace cocktail::core
