// Ablation G (extension): NN-abstraction engine comparison on the
// oscillator's κ* — Bernstein grid samples widened by their covering
// radius (ReachNN-style, the paper's Section III-C), interval bound
// propagation (Verisig-adjacent), and the hybrid intersection of both.
//
// Expected shape: IBP is cheapest but loosest (smaller certified invariant
// set / may fail), Bernstein is tight but pays Π(dᵢ+1) samples per box,
// hybrid is at least as tight as Bernstein at modest extra cost.
#include <cstdio>

#include "bench_common.h"
#include "sys/registry.h"
#include "util/csv.h"
#include "util/paths.h"
#include "verify/invariant.h"

int main() {
  using namespace cocktail;
  bench::print_banner("Ablation: abstraction engine (Bernstein / IBP / hybrid)",
                      "Section III-C mechanism study");

  const auto artifacts = bench::load_pipeline("vanderpol");

  util::CsvWriter csv(util::output_dir() + "/ablation_abstraction.csv",
                      {"method", "xi_volume_pct", "seconds", "nn_evals",
                       "partitions", "completed"});
  std::printf("\n%-12s %14s %10s %12s %12s\n", "method", "XI vol (%)",
              "time (s)", "nn-evals", "partitions");

  const std::pair<std::string, verify::AbstractionMethod> methods[] = {
      {"bernstein", verify::AbstractionMethod::kBernstein},
      {"ibp", verify::AbstractionMethod::kIntervalPropagation},
      {"hybrid", verify::AbstractionMethod::kHybrid}};
  for (const auto& [name, method] : methods) {
    verify::InvariantConfig config;
    config.grid = {80, 80};  // match bench_fig3's certified setting.
    config.abstraction.method = method;
    config.abstraction.epsilon_target = 0.4;
    config.abstraction.max_degree = 10;
    config.abstraction.max_partition_depth = 10;
    const verify::InvariantSetComputer computer(
        artifacts.system, *artifacts.robust_student, config);
    const auto result = computer.compute();
    std::printf("%-12s %14.1f %10.2f %12ld %12ld%s\n", name.c_str(),
                100.0 * result.volume_fraction, result.seconds,
                result.nn_evaluations, result.partitions,
                result.completed ? "" : "  (budget exhausted)");
    csv.row_text({name, util::format_number(100.0 * result.volume_fraction),
                  util::format_number(result.seconds),
                  std::to_string(result.nn_evaluations),
                  std::to_string(result.partitions),
                  result.completed ? "1" : "0"});
  }
  std::printf("\nCSV written to %s\n",
              (util::output_dir() + "/ablation_abstraction.csv").c_str());
  return 0;
}
