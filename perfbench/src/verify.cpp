// `verify` workload: the verifier on two engines and two difficulty levels.
//
// The subjects are four distilled students kept in perfbench/subjects/: κ*
// and κD of the 3D system (integration-test budget) and of Van der Pol
// (design budget), all trained from one fixed seed by
// `perfbench --write-verify-subjects`.  Every workload seed verifies the
// same networks: verification cost swings several-fold between students
// trained from different seeds, which would drown any change to the
// verifier itself, and training them in the set-up would make set-up time
// a training benchmark.  The workload seed places the reachability initial
// box.
//
// The timed phase makes four calls: ReachabilityAnalyzer::analyze with
// bench_fig4's config for κ* and κD, and InvariantSetComputer::compute with
// bench_fig3's 80×80 config for κ* and κD.  κD's larger Lipschitz constant
// costs several times κ*'s NN evaluations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common.h"
#include "control/nn_controller.h"
#include "sys/registry.h"
#include "trace.h"
#include "util/rng.h"
#include "verify/invariant.h"
#include "verify/reach.h"

namespace perfbench {

using namespace cocktail;

namespace {

/// Training seed of every verify subject.  Chosen among seeds 1-8 so that
/// both invariant sets are non-empty, κD costs over 5x κ*'s evaluations on
/// both engines, and the four calls take ~8 s (seed 2024: κD's invariant
/// alone took 26 s).
constexpr std::uint64_t kSubjectSeed = 8;
/// Relative to the repository root, where the benchmark runs.
const char* const kSubjectDir = "perfbench/subjects";

std::string subject_path(const std::string& system, const char* tag) {
  return std::string(kSubjectDir) + "/" + system + "_" + tag + ".txt";
}

verify::ReachConfig fig4_config() {
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

verify::InvariantConfig fig3_config() {
  verify::InvariantConfig config;
  config.grid = {80, 80};
  config.abstraction.epsilon_target = 0.4;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.budget.max_nn_evaluations = 400'000'000;
  config.budget.max_partitions = 10'000'000;
  return config;
}

/// bench_fig4's corner initial box, shifted by a seeded offset of up to
/// ±0.05 per axis (the box keeps its 0.005 × 0.005 × 0.01 size).
verify::IBox reach_initial_box(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 81));
  const double lo[3] = {-0.11, 0.205, 0.1};
  const double size[3] = {0.005, 0.005, 0.01};
  la::Vec box_lo(3), box_hi(3);
  for (int d = 0; d < 3; ++d) {
    box_lo[d] = lo[d] + rng.uniform(-0.05, 0.05);
    box_hi[d] = box_lo[d] + size[d];
  }
  return verify::make_box(box_lo, box_hi);
}

using Subject = std::shared_ptr<const ctrl::NnController>;

/// Everything the timed phase uses: the plants, the subjects (κ*, κD) and
/// the reachability initial box.
struct Inputs {
  sys::SystemPtr threed;
  sys::SystemPtr vdp;
  Subject reach[2];
  Subject invariant[2];
  verify::IBox initial;
};

Inputs prepare(std::uint64_t seed) {
  Inputs in;
  in.threed = sys::make_system("threed");
  in.vdp = sys::make_system("vanderpol");
  const char* tags[2] = {"kstar", "kd"};
  const char* labels[2] = {"k*", "kD"};
  for (int i = 0; i < 2; ++i) {
    in.reach[i] = std::make_shared<const ctrl::NnController>(
        ctrl::NnController::load_file(subject_path("threed", tags[i]),
                                      labels[i]));
    in.invariant[i] = std::make_shared<const ctrl::NnController>(
        ctrl::NnController::load_file(subject_path("vanderpol", tags[i]),
                                      labels[i]));
  }
  in.initial = reach_initial_box(seed);
  return in;
}

/// One job's results.  The reach results keep no layers (max_frontier
/// records their widest), so memory does not grow with the job count.
struct VerifyRun {
  verify::ReachResult reach[2];          ///< κ*, κD.
  long max_frontier[2] = {0, 0};
  verify::InvariantResult invariant[2];  ///< κ*, κD.
  double job_s = 0.0;
  long nn_evals = 0;
};

VerifyRun verify_job(const Inputs& in) {
  VerifyRun run;
  const Span job_span("verify.job");
  const std::int64_t start = now_ns();
  {
    const Span span("verify.reach_kstar");
    run.reach[0] =
        verify::ReachabilityAnalyzer(in.threed, *in.reach[0], fig4_config())
            .analyze(in.initial);
  }
  {
    const Span span("verify.reach_kd");
    run.reach[1] =
        verify::ReachabilityAnalyzer(in.threed, *in.reach[1], fig4_config())
            .analyze(in.initial);
  }
  {
    const Span span("verify.invariant_kstar");
    run.invariant[0] =
        verify::InvariantSetComputer(in.vdp, *in.invariant[0], fig3_config())
            .compute();
  }
  {
    const Span span("verify.invariant_kd");
    run.invariant[1] =
        verify::InvariantSetComputer(in.vdp, *in.invariant[1], fig3_config())
            .compute();
  }
  run.job_s = seconds_since(start);
  for (int i = 0; i < 2; ++i) {
    run.nn_evals +=
        run.reach[i].nn_evaluations + run.invariant[i].nn_evaluations;
    std::size_t widest = 0;
    for (const auto& layer : run.reach[i].layers)
      widest = std::max(widest, layer.size());
    run.max_frontier[i] = static_cast<long>(widest);
    std::vector<std::vector<verify::IBox>>().swap(run.reach[i].layers);
  }
  return run;
}

}  // namespace

void write_verify_subjects() {
  const std::pair<const char*, Budget> sets[2] = {
      {"threed", Budget::kTiny}, {"vanderpol", Budget::kDesign}};
  for (const auto& [name, budget] : sets) {
    const sys::SystemPtr system = sys::make_system(name);
    const Students students =
        train_students(system, make_plan(*system, kSubjectSeed, budget));
    students.robust.student->save_file(subject_path(name, "kstar"));
    students.direct.student->save_file(subject_path(name, "kd"));
  }
}

void run_verify(const Args& args, Report& report) {
  const Inputs in = set_up(report, [&] { return prepare(args.seed); });
  if (args.setup_only) return;

  std::vector<VerifyRun> runs;
  repeat_for(args.seconds, [&] {
    runs.push_back(verify_job(in));
    return runs.back().job_s;
  });

  std::vector<double> job_s, rate;
  for (const VerifyRun& run : runs) {
    job_s.push_back(run.job_s);
    rate.push_back(static_cast<double>(run.nn_evals) / run.job_s);
  }
  report.e2e("job_s", median(job_s), "s");
  report.e2e("work_per_s", median(rate), "1/s");

  // ---- output checks, exact counters and per-layer counts ----------------
  const VerifyRun& run = runs.front();
  report.check(run.reach[0].completed && run.reach[0].safe,
               "k* reach on the 3D system completes and is safe");
  for (const Subject* set : {in.reach, in.invariant})
    for (int i = 0; i < 2; ++i) {
      const double l = set[i]->lipschitz_bound();
      report.check(std::isfinite(l) && l > 0.0,
                   set[i]->describe() +
                       " carries a finite certified Lipschitz bound");
    }
  for (const VerifyRun& other : runs)
    for (int i = 0; i < 2; ++i)
      report.check(other.reach[i].nn_evaluations ==
                           run.reach[i].nn_evaluations &&
                       other.invariant[i].member == run.invariant[i].member,
                   "repeated verification is bitwise identical");

  const char* tags[2] = {"kstar", "kd"};
  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string reach = std::string("verify.reach_") + tags[i];
    const std::string inv = std::string("verify.invariant_") + tags[i];
    const verify::ReachResult& r = run.reach[i];
    const verify::InvariantResult& v = run.invariant[i];
    completed += (r.completed ? 1 : 0) + (v.completed ? 1 : 0);
    report.layer(reach + ".nn_evals", static_cast<double>(r.nn_evaluations),
                 "count");
    report.layer(reach + ".partitions", static_cast<double>(r.partitions),
                 "count");
    report.layer(reach + ".max_frontier",
                 static_cast<double>(run.max_frontier[i]), "count");
    report.layer(reach + ".completed", r.completed ? 1.0 : 0.0, "count");
    report.layer(inv + ".nn_evals", static_cast<double>(v.nn_evaluations),
                 "count");
    report.layer(inv + ".partitions", static_cast<double>(v.partitions),
                 "count");
    report.layer(inv + ".iterations", static_cast<double>(v.iterations),
                 "count");
    report.layer(inv + ".volume", v.volume_fraction, "ratio");
    report.exact_count(reach + ".nn_evals", r.nn_evaluations);
    report.exact_count(reach + ".partitions", r.partitions);
    report.exact_count(reach + ".max_frontier", run.max_frontier[i]);
    report.exact_count(reach + ".completed", r.completed ? 1 : 0);
    report.exact_count(reach + ".safe", r.safe ? 1 : 0);
    report.exact_count(inv + ".nn_evals", v.nn_evaluations);
    report.exact_count(inv + ".partitions", v.partitions);
    report.exact_count(inv + ".iterations", v.iterations);
    report.exact_value(inv + ".volume", v.volume_fraction);
  }
  report.layer("verify.completed_ratio", completed / 4.0, "ratio");
  report.exact["digest.threed_kstar"] = network_digest(*in.reach[0]);
  report.exact["digest.threed_kd"] = network_digest(*in.reach[1]);
  report.exact["digest.vanderpol_kstar"] = network_digest(*in.invariant[0]);
  report.exact["digest.vanderpol_kd"] = network_digest(*in.invariant[1]);
  report.info["verify.initial_box"] =
      "[" + std::to_string(in.initial[0].lo()) + ", " +
      std::to_string(in.initial[1].lo()) + ", " +
      std::to_string(in.initial[2].lo()) + "] + (0.005, 0.005, 0.01)";
  report.info["verify.repeats"] = std::to_string(runs.size());
}

}  // namespace perfbench
