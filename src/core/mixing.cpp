#include "core/mixing.h"

#include <cmath>
#include <limits>

#include "core/metrics.h"
#include "util/logging.h"

namespace cocktail::core {
namespace {

/// Clean-rollout score of a candidate controller (Table-I metrics).
struct Score {
  double safe_rate = -1.0;
  double energy = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool better_than(const Score& other, double tie) const {
    if (safe_rate > other.safe_rate + tie) return true;
    if (safe_rate < other.safe_rate - tie) return false;
    // energy is NaN when the candidate had no safe rollout (EvalResult
    // contract).  A NaN candidate can never win the tie-break — otherwise
    // an all-unsafe checkpoint would beat another zero-safe-rate candidate
    // that at least kept some trajectories safe at finite energy — and any
    // real energy beats NaN.
    if (std::isnan(energy)) return false;
    if (std::isnan(other.energy)) return true;
    return energy < other.energy;
  }
};

Score score_controller(const sys::System& system,
                       const ctrl::Controller& controller,
                       const SnapshotConfig& snapshot) {
  EvalConfig config;
  config.num_initial_states = snapshot.eval_states;
  config.seed = snapshot.eval_seed;
  const EvalResult result = evaluate(system, controller, config);
  return {result.safe_rate, result.mean_energy};
}

/// Splits `total` into `parts` chunk sizes (last chunk takes the
/// remainder).  `total <= 0` yields no chunks — a zero-length training run
/// must not produce a single empty chunk that scores an untrained net.
std::vector<int> chunk_sizes(int total, int parts) {
  if (total <= 0) return {};
  parts = std::max(1, std::min(parts, total));
  std::vector<int> sizes(parts, total / parts);
  sizes.back() += total % parts;
  return sizes;
}

/// The checkpoint-selection loop shared by every adaptation trainer:
/// trains in `chunk_sizes(total_units, ...)` chunks via `run_chunk`, wraps
/// the trainer's current policy net (`current_net`) in a candidate
/// controller (`make_candidate`), scores it on the snapshot grid, and
/// returns the best net (safe rate first, energy tie-break).  With zero
/// training units no chunk runs and the untrained current net is returned
/// unscored.
template <class RunChunk, class CurrentNet, class MakeCandidate>
nn::Mlp best_checkpoint_net(const sys::System& system, const char* label,
                            int total_units, const SnapshotConfig& snapshot,
                            RunChunk&& run_chunk, CurrentNet&& current_net,
                            MakeCandidate&& make_candidate) {
  nn::Mlp best_net = current_net();
  Score best;
  for (const int chunk : chunk_sizes(total_units, snapshot.checkpoints)) {
    run_chunk(chunk);
    const auto candidate = make_candidate(current_net());
    const Score score = score_controller(system, candidate, snapshot);
    COCKTAIL_DEBUG << label << " checkpoint: Sr " << score.safe_rate << " e "
                   << score.energy;
    if (score.better_than(best, snapshot.sr_tie_tolerance)) {
      best = score;
      best_net = current_net();
    }
  }
  if (total_units <= 0) {
    COCKTAIL_INFO << label << " (" << system.name()
                  << "): no training units, keeping the initial policy";
  } else {
    COCKTAIL_INFO << label << " (" << system.name() << "): best Sr "
                  << best.safe_rate << ", e " << best.energy;
  }
  return best_net;
}

/// Appends one training chunk's PPO statistics to the accumulated result
/// stats (shared by all three PPO-based trainers).
void append_ppo_stats(rl::PpoStats& into, const rl::PpoStats& chunk) {
  into.iteration_mean_returns.insert(into.iteration_mean_returns.end(),
                                     chunk.iteration_mean_returns.begin(),
                                     chunk.iteration_mean_returns.end());
  into.iteration_kls.insert(into.iteration_kls.end(),
                            chunk.iteration_kls.begin(),
                            chunk.iteration_kls.end());
}

}  // namespace

MixingResult train_adaptive_mixing(sys::SystemPtr system,
                                   std::vector<ctrl::ControllerPtr> experts,
                                   const MixingConfig& config) {
  MixingEnv env(system, experts, config.weight_bound, config.reward);
  rl::PpoGaussian ppo(config.ppo);
  ppo.initialize(env);

  MixingResult result;
  nn::Mlp best_net = best_checkpoint_net(
      *system, "adaptive mixing", config.ppo.iterations, config.snapshot,
      [&](int chunk) {
        append_ppo_stats(result.stats, ppo.run_iterations(env, chunk));
      },
      [&]() -> const nn::Mlp& { return ppo.policy().mean_net(); },
      [&](const nn::Mlp& net) {
        return ctrl::MixedController(experts, net, config.weight_bound,
                                     system->control_bounds(), "AW");
      });
  result.controller = std::make_shared<ctrl::MixedController>(
      std::move(experts), std::move(best_net), config.weight_bound,
      system->control_bounds(), "AW");
  return result;
}

SwitchingResult train_switching(sys::SystemPtr system,
                                std::vector<ctrl::ControllerPtr> experts,
                                const SwitchingConfig& config) {
  SwitchingEnv env(system, experts, config.reward);
  rl::PpoCategorical ppo(config.ppo);
  ppo.initialize(env);

  SwitchingResult result;
  nn::Mlp best_net = best_checkpoint_net(
      *system, "switching baseline", config.ppo.iterations, config.snapshot,
      [&](int chunk) {
        append_ppo_stats(result.stats, ppo.run_iterations(env, chunk));
      },
      [&]() -> const nn::Mlp& { return ppo.policy().logits_net(); },
      [&](const nn::Mlp& net) {
        return ctrl::SwitchedController(experts, net, "AS");
      });
  result.controller = std::make_shared<ctrl::SwitchedController>(
      std::move(experts), std::move(best_net), "AS");
  return result;
}

FiniteWeightedResult train_finite_weighted(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const FiniteWeightedConfig& config) {
  std::vector<la::Vec> table =
      ctrl::simplex_weight_table(experts.size(), config.resolution);
  FiniteWeightedEnv env(system, experts, table, config.reward);
  rl::PpoCategorical ppo(config.ppo);
  ppo.initialize(env);

  FiniteWeightedResult result;
  nn::Mlp best_net = best_checkpoint_net(
      *system, "finite-weighted baseline", config.ppo.iterations,
      config.snapshot,
      [&](int chunk) {
        append_ppo_stats(result.stats, ppo.run_iterations(env, chunk));
      },
      [&]() -> const nn::Mlp& { return ppo.policy().logits_net(); },
      [&](const nn::Mlp& net) {
        return ctrl::FiniteWeightedController(
            experts, table, net, system->control_bounds(), "FW");
      });
  result.controller = std::make_shared<ctrl::FiniteWeightedController>(
      std::move(experts), std::move(table), std::move(best_net),
      system->control_bounds(), "FW");
  return result;
}

DdpgMixingResult train_adaptive_mixing_ddpg(
    sys::SystemPtr system, std::vector<ctrl::ControllerPtr> experts,
    const DdpgMixingConfig& config) {
  MixingEnv env(system, experts, config.weight_bound, config.reward);
  rl::Ddpg ddpg(config.ddpg);
  ddpg.initialize(env);

  DdpgMixingResult result;
  // The tanh DDPG actor is a drop-in weight net for the MixedController.
  nn::Mlp best_net = best_checkpoint_net(
      *system, "ddpg mixing", config.ddpg.episodes, config.snapshot,
      [&](int chunk) {
        const rl::DdpgStats stats = ddpg.run_episodes(env, chunk);
        result.stats.episode_returns.insert(result.stats.episode_returns.end(),
                                            stats.episode_returns.begin(),
                                            stats.episode_returns.end());
      },
      [&]() -> const nn::Mlp& { return ddpg.actor(); },
      [&](const nn::Mlp& net) {
        return ctrl::MixedController(experts, net, config.weight_bound,
                                     system->control_bounds(), "AW-ddpg");
      });
  result.controller = std::make_shared<ctrl::MixedController>(
      std::move(experts), std::move(best_net), config.weight_bound,
      system->control_bounds(), "AW-ddpg");
  return result;
}

}  // namespace cocktail::core
