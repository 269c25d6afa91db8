// perfbench: runs one benchmark workload and prints its report as one JSON
// line on stdout.  perfbench/run.py builds this binary, runs it and turns
// the report into the benchmark's result line; see the top of run.py.
//
// Usage: perfbench --workload design|verify|serve --seed N --seconds S
//                  --trace 0|1 [--setup-only 0|1] [--trace-out PATH]
//        perfbench --write-verify-subjects
// Run it from the repository root: the verify workload loads its subject
// networks from perfbench/subjects/, and the second form retrains them there.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"
#include "util/logging.h"

namespace perfbench {
namespace {

/// Per-layer wall / CPU numbers derived from the spans of a traced run:
/// the mean over the spans of that name (one per repetition of the job).
void span_layers(Report& report) {
  const auto spans = trace::summary();
  // The shared pool's workers and the thread that calls into it.
  const double threads = pool_workers() + 1.0;
  const auto has = [&](const char* name) { return spans.count(name) > 0; };
  const auto wall = [&](const char* name) {
    return has(name) ? spans.at(name).wall_s /
                           static_cast<double>(spans.at(name).count)
                     : 0.0;
  };
  const auto cpu = [&](const char* name) {
    return has(name) ? spans.at(name).cpu_s /
                           static_cast<double>(spans.at(name).count)
                     : 0.0;
  };
  const auto util_of = [&](double cpu_s, double wall_s) {
    return wall_s > 0.0 ? cpu_s / (wall_s * threads) : 0.0;
  };

  for (const char* stage : {"core.experts", "core.mixing", "core.switching"}) {
    if (!has(stage)) continue;
    const std::string prefix = stage;
    report.layer(prefix + ".wall_s", wall(stage), "s");
    report.layer(prefix + ".cpu_s", cpu(stage), "s");
    report.layer(prefix + ".cpu_util", util_of(cpu(stage), wall(stage)),
                 "ratio");
  }
  if (has("core.distill_kd") && has("core.distill_kstar")) {
    report.layer("core.distill_kd.wall_s", wall("core.distill_kd"), "s");
    report.layer("core.distill_kstar.wall_s", wall("core.distill_kstar"), "s");
    report.layer("core.distill.cpu_util",
                 util_of(cpu("core.distill_kd") + cpu("core.distill_kstar"),
                         wall("core.distill_kd") + wall("core.distill_kstar")),
                 "ratio");
  }
  if (has("core.evaluate") && has("attack.fgsm_eval")) {
    report.layer("core.evaluate.wall_s", wall("core.evaluate"), "s");
    report.layer("attack.fgsm_eval.wall_s", wall("attack.fgsm_eval"), "s");
    report.layer("core.evaluate.cpu_util",
                 util_of(cpu("core.evaluate") + cpu("attack.fgsm_eval"),
                         wall("core.evaluate") + wall("attack.fgsm_eval")),
                 "ratio");
  }
  const auto steps = report.per_layer.find("rl.ppo.env_steps");
  const double ppo_wall = wall("core.mixing") + wall("core.switching");
  if (steps != report.per_layer.end() && ppo_wall > 0.0)
    report.layer("rl.ppo.env_steps_per_s", steps->second.value / ppo_wall,
                 "1/s");

  double verify_wall = 0.0, verify_cpu = 0.0, verify_evals = 0.0;
  for (const char* call : {"verify.reach_kstar", "verify.reach_kd",
                           "verify.invariant_kstar", "verify.invariant_kd"}) {
    if (!has(call)) continue;
    const std::string prefix = call;
    report.layer(prefix + ".wall_s", wall(call), "s");
    verify_wall += wall(call);
    verify_cpu += cpu(call);
    verify_evals += report.per_layer[prefix + ".nn_evals"].value;
  }
  if (verify_wall > 0.0) {
    report.layer("verify.nn_evals_per_s", verify_evals / verify_wall, "1/s");
    report.layer("verify.cpu_util", util_of(verify_cpu, verify_wall), "ratio");
  }
  report.layer("trace.spans", static_cast<double>(trace::span_count()),
               "count");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload design|verify|serve --seed N "
               "--seconds S --trace 0|1 [--setup-only 0|1] [--trace-out PATH]\n"
               "       perfbench --write-verify-subjects\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  cocktail::util::set_log_level(cocktail::util::LogLevel::kWarn);
  if (argc == 2 && std::string(argv[1]) == "--write-verify-subjects") {
    try {
      write_verify_subjects();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--setup-only") {
      args.setup_only = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();

  if (args.trace) trace::enable();
  // The shared pool starts lazily; starting it here makes it set-up.
  (void)pool_workers();
  Report report;
  try {
    if (args.workload == "design") {
      run_design(args, report);
    } else if (args.workload == "verify") {
      run_verify(args, report);
    } else if (args.workload == "serve") {
      run_serve(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (args.setup_only) {
    report.print_json();
    return 0;
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (args.trace) {
    span_layers(report);
    if (!args.trace_path.empty() &&
        !trace::write_chrome_json(args.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_path.c_str());
      return 1;
    }
  }
  report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  report.info["pool_workers"] =
      std::to_string(static_cast<int>(pool_workers()));
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  report.info["compiler"] = PERFBENCH_COMPILER;
  report.info["workload"] = args.workload;
  report.info["seed"] = std::to_string(args.seed);
  report.print_json();
  return 0;
}
