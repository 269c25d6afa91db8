// Shared plumbing of the perfbench program: arguments, the report every
// workload fills, and small measurement helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "control/controller.h"
#include "core/distiller.h"
#include "core/expert_trainer.h"
#include "core/pipeline.h"
#include "sys/system.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop once the set-up is done: the process then only reports when it
  /// became ready for its first timed call (Report::ready_ns).
  bool setup_only = false;
  std::string trace_path;  ///< where the traced run writes its spans.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  `exact` holds the work counters and
/// subject digests that must repeat bit for bit for a given seed and
/// source tree; a difference means behaviour changed, not speed.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> exact;
  std::map<std::string, std::string> info;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  /// now_ns() when the set-up finished, just before the first timed call.
  std::int64_t ready_ns = 0;

  /// Counts one output check; a failing one is recorded with `what`.
  void check(bool ok, const std::string& what);
  /// Counts `count` checks of one kind, `failed_count` of which failed.
  void checks(long count, long failed_count, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void exact_count(const std::string& name, long long value) {
    exact[name] = std::to_string(value);
  }
  void exact_value(const std::string& name, double value);

  /// Prints the report as one JSON object on one line.
  void print_json() const;
};

/// Writes `text` to `out` as a JSON string literal.
void write_json_string(std::FILE* out, const std::string& text);

/// Median of `values` (which it sorts); 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of the first `n` entries of `values`
/// (which it reorders); 0 when n is 0.
template <typename T>
[[nodiscard]] double quantile(std::vector<T>& values, std::size_t n,
                              double q) {
  n = std::min(n, values.size());
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const auto it = values.begin() +
                  static_cast<long>(std::min(n - 1, rank > 0 ? rank - 1 : 0));
  std::nth_element(values.begin(), it, values.begin() + static_cast<long>(n));
  return static_cast<double>(*it);
}

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// FNV-1a digest (hex) of a controller's serialized network; "none" for
/// controllers that are not neural networks.
[[nodiscard]] std::string network_digest(const cocktail::ctrl::Controller& c);

/// Seconds elapsed since `start_ns` (a now_ns() reading).
[[nodiscard]] double seconds_since(std::int64_t start_ns);

/// Shared-pool worker count; starts the pool on first use.
[[nodiscard]] double pool_workers();

/// The workload's set-up: builds everything its timed phase uses and
/// records in `report` when it was ready.  Set-up time is the time from
/// process start to that point (measured by perfbench/run.py).
template <typename Prepare>
[[nodiscard]] auto set_up(Report& report, Prepare prepare) {
  const Span span("setup");
  auto state = prepare();
  report.ready_ns = now_ns();
  return state;
}

/// The timed phase: calls `job` (which returns its own duration in seconds)
/// until `seconds` have passed, at least once.  A job that the previous one
/// predicts would end after 2 × `seconds` is not started, so a slow host
/// stretches the phase by at most one job.
template <typename Job>
void repeat_for(double seconds, Job job) {
  const std::int64_t start = now_ns();
  double last = job();
  for (double elapsed = seconds_since(start);
       elapsed < seconds && elapsed + last <= 2.0 * seconds;
       elapsed = seconds_since(start))
    last = job();
}

// ---- the training pipeline, shared by design and the verify subjects -----

enum class Budget {
  kDesign,  ///< default DDPG episodes, ~1/4 of the PPO/distill defaults.
  kTiny,    ///< tests/test_integration.cpp's tiny_pipeline_config() budget.
};

/// What train_students() runs: the stage configs and the expert specs.
struct Plan {
  cocktail::core::PipelineConfig config;
  std::vector<cocktail::core::ExpertSpec> experts;
};

[[nodiscard]] Plan make_plan(const cocktail::sys::System& system,
                             std::uint64_t seed, Budget budget);

/// Pipeline artifacts trained with no model cache.
struct Students {
  std::vector<cocktail::ctrl::ControllerPtr> experts;
  cocktail::ctrl::ControllerPtr mixed;      ///< AW.
  cocktail::ctrl::ControllerPtr switching;  ///< AS.
  cocktail::core::DistillResult direct;     ///< κD.
  cocktail::core::DistillResult robust;     ///< κ*.
  long ppo_env_steps = 0;    ///< AW + AS collected environment steps.
  double ppo_s = 0.0;        ///< AW + AS wall time.
  long distill_samples = 0;  ///< (κD + κ*) dataset size × epochs.
};

/// Trains experts → AW → AS → κD → κ* on `system` as `plan` says.  Every
/// stage call is wrapped in a span named after its layer and stage.
[[nodiscard]] Students train_students(const cocktail::sys::SystemPtr& system,
                                      const Plan& plan);

void run_design(const Args& args, Report& report);
void run_verify(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

/// Trains the verify workload's subject networks and writes them where
/// run_verify() loads them from.
void write_verify_subjects();

}  // namespace perfbench
