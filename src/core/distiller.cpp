#include "core/distiller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attack/fgsm.h"
#include "core/rollout.h"
#include "nn/grad_reduce.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cocktail::core {

namespace {

/// One thread's row tiles and tape for an SGD chunk.  thread_local in the
/// chunk body: it grows to one chunk and is then reused, so the SGD loop
/// allocates no per-sample buffers.
struct ChunkScratch {
  std::vector<double> x;   ///< (possibly perturbed) input rows.
  std::vector<double> dy;  ///< loss cotangent rows.
  std::vector<double> dx;  ///< input-gradient rows (FGSM).
  nn::Mlp::Tape tape;
};

}  // namespace

DistillDataset build_distill_dataset(const sys::System& system,
                                     const ctrl::Controller& teacher,
                                     const DistillConfig& config) {
  DistillDataset data;
  util::Rng rng(util::derive_seed(config.seed, 501));
  // On-policy teacher trajectories: the states the mixed design actually
  // steers through.  Initial states come from the caller's stream; each
  // rollout owns a derived per-rollout disturbance stream, so the batch is
  // bitwise identical for any worker count.
  std::vector<RolloutJob> jobs;
  jobs.reserve(static_cast<std::size_t>(std::max(config.teacher_rollouts, 0)));
  for (int k = 0; k < config.teacher_rollouts; ++k) {
    RolloutJob job;
    job.initial_state = system.sample_initial_state(rng);
    job.seed =
        util::derive_seed(config.seed, 1500 + static_cast<std::uint64_t>(k));
    jobs.push_back(std::move(job));
  }
  RolloutConfig rollout;
  rollout.record_trajectory = true;
  for (const RolloutResult& r : batch_rollout(system, teacher, jobs, rollout)) {
    for (std::size_t t = 0; t + 1 < r.states.size(); ++t) {
      data.states.push_back(r.states[t]);
      data.controls.push_back(r.controls[t]);
    }
  }
  // Uniform coverage of the (bounded) sampling region so the student also
  // matches the teacher away from nominal trajectories.
  const sys::Box region = system.sampling_region();
  for (int k = 0; k < config.uniform_samples; ++k) {
    la::Vec s = region.sample(rng);
    la::Vec u = system.clip_control(teacher.act(s));
    data.states.push_back(std::move(s));
    data.controls.push_back(std::move(u));
  }
  return data;
}

DistillResult distill(const sys::System& system,
                      const ctrl::Controller& teacher,
                      const DistillConfig& config, const std::string& label) {
  if (config.minibatch == 0)
    throw std::invalid_argument("distill: minibatch must be positive");
  const DistillDataset data = build_distill_dataset(system, teacher, config);
  // No sample means no SGD step and a NaN loss: nothing a caller could use.
  if (data.size() == 0)
    throw std::invalid_argument(
        "distill: empty dataset (teacher_rollouts and uniform_samples gave "
        "no sample)");
  util::ThreadPool* const pool = &util::ThreadPool::shared();
  util::Rng rng(util::derive_seed(config.seed, 502));

  // The student mirrors the actor architecture the paper trains with DDPG:
  // a tanh output head expressing u / u_scale, with the physical range in
  // the (fixed) output scaling.  Expressing normalized controls keeps the
  // weight norms — and therefore the certified Lipschitz product the whole
  // verifiability story depends on — small; a raw-u head would need
  // |U|-sized weights just to span the output range.
  const sys::Box u_bounds = system.control_bounds();
  la::Vec out_scale(system.control_dim());
  for (std::size_t i = 0; i < out_scale.size(); ++i)
    out_scale[i] = std::max(0.5 * (u_bounds.hi[i] - u_bounds.lo[i]), 1e-9);

  // Targets in normalized units (|û| <= 1 after the rollout clip).
  std::vector<la::Vec> targets(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    targets[i] = data.controls[i];
    for (std::size_t d = 0; d < targets[i].size(); ++d)
      targets[i][d] /= out_scale[d];
  }

  nn::Mlp student = nn::Mlp::make(
      system.state_dim(), config.student_hidden, system.control_dim(),
      config.hidden_activation, nn::Activation::kTanh,
      util::derive_seed(config.seed, 503));
  nn::Adam opt(config.learning_rate);

  const la::Vec delta_bound =
      attack::perturbation_bound(system, config.delta_fraction);

  // The per-sample forward/FGSM/backward is RNG-free and independent, so
  // each minibatch fans across the pool as row-tile chunks with per-chunk
  // gradient buffers and a fixed-order merge (the util::chunked_reduce
  // tree): gradients are bitwise identical for any worker count.  The grain
  // is part of the reduction tree and must stay fixed.
  constexpr std::size_t kSgdGrain = 8;
  constexpr std::size_t kLossGrain = 256;
  const std::size_t state_dim = system.state_dim();
  const std::size_t control_dim = system.control_dim();

  nn::ChunkedGradReducer<nn::Gradients> reducer(
      std::min(config.minibatch, data.size()), kSgdGrain,
      [&] { return student.zero_gradients(); });

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const auto perm = rng.permutation(data.size());
    for (std::size_t start = 0; start < perm.size();
         start += config.minibatch) {
      const std::size_t end = std::min(start + config.minibatch, perm.size());
      const double inv = 1.0 / static_cast<double>(end - start);
      // Algorithm 1 line 12: one Bernoulli draw per update step decides
      // between direct distillation and adversarial training.
      const bool adversarial = rng.bernoulli(config.adversarial_prob);
      nn::Gradients& grads = reducer.reduce(
          pool, end - start,
          [&](nn::Gradients& acc, std::size_t begin, std::size_t stop) {
            thread_local ChunkScratch scratch;
            const std::size_t m = stop - begin;
            double* x = la::grow_to(scratch.x, m * state_dim);
            double* dy = la::grow_to(scratch.dy, m * control_dim);
            for (std::size_t k = 0; k < m; ++k) {
              const la::Vec& s = data.states[perm[start + begin + k]];
              std::copy(s.begin(), s.end(), x + k * state_dim);
            }
            if (adversarial) {
              // Inner max (line 13): δ = Δ·sign(∇_s ℓ(κ*(s;q), u)).
              const double* pred = student.forward_tile(x, m, scratch.tape);
              for (std::size_t k = 0; k < m; ++k)
                nn::mse_gradient(pred + k * control_dim,
                                 targets[perm[start + begin + k]].data(),
                                 control_dim, dy + k * control_dim);
              double* grad_s = la::grow_to(scratch.dx, m * state_dim);
              student.backward_tile(scratch.tape, dy, m, nullptr, nullptr,
                                    grad_s);
              for (std::size_t row = 0; row < m * state_dim;
                   row += state_dim) {
                attack::fgsm_delta(grad_s + row, delta_bound, grad_s + row);
                for (std::size_t d = 0; d < state_dim; ++d)
                  x[row + d] += grad_s[row + d];
              }
            }
            // Outer min (line 14): MSE on the (possibly perturbed) input.
            const double* pred = student.forward_tile(x, m, scratch.tape);
            for (std::size_t k = 0; k < m; ++k) {
              double* dy_k = dy + k * control_dim;
              nn::mse_gradient(pred + k * control_dim,
                               targets[perm[start + begin + k]].data(),
                               control_dim, dy_k);
              for (std::size_t j = 0; j < control_dim; ++j) dy_k[j] *= inv;
            }
            student.backward_tile(scratch.tape, dy, m, nullptr, &acc,
                                  nullptr);
          });
      if (config.lambda_l2 > 0.0)
        student.accumulate_l2_gradient(config.lambda_l2, grads);
      opt.step(student, grads);
      if (config.spectral_norm_cap > 0.0) {
        // Pauli-style projection: rescale any layer above the cap so the
        // certified Lipschitz product stays <= cap^depth (extension knob;
        // see bench_ablation_projection).
        for (auto& layer : student.layers()) {
          const double sigma = layer.w.spectral_norm(30);
          if (sigma > config.spectral_norm_cap)
            layer.w.scale_in_place(config.spectral_norm_cap / sigma);
        }
      }
    }
  }

  DistillResult result;
  // Clean-data regression loss in normalized control units (comparable
  // between κD and κ* and across systems); same fixed-order reduction.
  const double loss = util::chunked_reduce(
      pool, data.size(), kLossGrain, [] { return 0.0; },
      [&](double& acc, std::size_t i) {
        acc += nn::mse(student.forward(data.states[i]), targets[i]);
      },
      [](double& into, const double& from) { into += from; });
  result.final_loss = loss / static_cast<double>(data.size());
  result.dataset_size = data.size();
  result.student = std::make_shared<ctrl::NnController>(
      std::move(student), out_scale, label);
  result.lipschitz = result.student->lipschitz_bound();
  COCKTAIL_INFO << "distilled " << label << " on " << system.name()
                << ": normalized loss " << result.final_loss << ", L "
                << result.lipschitz << ", dataset " << result.dataset_size;
  return result;
}

}  // namespace cocktail::core
