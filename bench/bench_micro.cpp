// Micro-benchmarks of the substrate kernels (google-benchmark): the
// blocked LA backend, NN inference/backprop, interval dynamics, Bernstein
// abstraction, FGSM, and a full closed-loop rollout step.  These bound the
// cost models behind the training/verification budgets quoted in DESIGN.md.
//
// bench_micro is also the repo's TRACKED PERF TIER: it provides its own
// main(), understands
//   --smoke       tiny measurement times + only the tracked benchmarks
//                 (GEMM / forward_batch / tanh rows / distill / PPO update /
//                 certified-lookup) — the mode Release CI runs every PR;
//   --out=<path>  where to write the JSON trajectory point
//                 (default BENCH_micro.json in the working directory);
// and emits one BENCH_micro.json per run: nproc and the build type, every
// benchmark's per-iteration time plus GFLOP/s where a flop count is
// defined, and the headline GEMM-vs-naive speedups.  Each PR's JSON is a
// point on the perf trajectory; a shrinking speedup is a regression with a
// number attached.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "attack/fgsm.h"
#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "core/distiller.h"
#include "core/rollout.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "point_mass_envs.h"
#include "rl/ddpg.h"
#include "rl/env.h"
#include "rl/ppo.h"
#include "serve/safety_monitor.h"
#include "sys/cartpole.h"
#include "sys/threed.h"
#include "sys/vanderpol.h"
#include "util/thread_pool.h"
#include "verify/interval_dynamics.h"
#include "verify/nn_abstraction.h"
#include "verify/reach.h"

namespace {

using namespace cocktail;

/// The pre-PR-6 `Matrix::matmul` triple loop, kept verbatim as the perf
/// baseline the blocked backend is measured against (including its
/// NaN-dropping `aik == 0.0` skip — never taken on the random operands
/// below, but part of the loop being replaced).
la::Matrix naive_matmul_baseline(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = &b.data()[k * b.cols()];
      double* orow = &out.data()[i * b.cols()];
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  la::Matrix m(rows, cols);
  util::Rng rng(seed);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void set_gemm_flops(benchmark::State& state, std::size_t n) {
  state.counters["FLOPS"] =
      benchmark::Counter(2.0 * static_cast<double>(n) * static_cast<double>(n) *
                             static_cast<double>(n),
                         benchmark::Counter::kIsIterationInvariantRate);
}

// Square n x n x n GEMM on the pre-PR naive loop (Arg = n).  The
// denominator of the tracked gemm_speedup_* trajectory numbers.
void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, n, 101);
  const la::Matrix b = random_matrix(n, n, 102);
  for (auto _ : state) benchmark::DoNotOptimize(naive_matmul_baseline(a, b));
  set_gemm_flops(state, n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

// Square n x n x n GEMM on the deterministic blocked/SIMD backend
// (Matrix::matmul -> la::kernels::gemm_nn, includes the B^T pack).
void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, n, 101);
  const la::Matrix b = random_matrix(n, n, 102);
  for (auto _ : state) benchmark::DoNotOptimize(a.matmul(b));
  set_gemm_flops(state, n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Square n x n x n NT GEMM (Matrix::matmul_nt -> la::kernels::gemm_nt) —
// the exact kernel under Mlp::forward_batch, no pack.  Labelled, like the
// training benchmarks below, with the lane-kernel path it ran (avx512, avx2
// or scalar).
void BM_GemmNt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix a = random_matrix(n, n, 101);
  const la::Matrix b = random_matrix(n, n, 102);
  for (auto _ : state) benchmark::DoNotOptimize(a.matmul_nt(b));
  set_gemm_flops(state, n);
  state.SetLabel(la::kernels::dispatched_kernels().name);
}
BENCHMARK(BM_GemmNt)->Arg(64)->Arg(128)->Arg(256);

// The input gradients of one 8-row training chunk through a 64x64 layer:
// one la::kernels::matvec_t_rows pass over W (what Mlp::backward_tile
// runs), against one matvec_t per row (what it ran before).  Items/sec is
// rows/sec.
constexpr std::size_t kTileRows = 8;
constexpr std::size_t kTileWidth = 64;

template <bool Tile>
void matvec_t_tile_loop(benchmark::State& state) {
  const la::Matrix w = random_matrix(kTileWidth, kTileWidth, 103);
  const la::Matrix dz = random_matrix(kTileRows, kTileWidth, 104);
  la::Matrix out(kTileRows, kTileWidth);
  const double* a = w.data().data();
  for (auto _ : state) {
    if constexpr (Tile) {
      la::kernels::matvec_t_rows(kTileRows, kTileWidth, kTileWidth, a,
                                 kTileWidth, dz.data().data(), kTileWidth,
                                 out.data().data(), kTileWidth);
    } else {
      for (std::size_t r = 0; r < kTileRows; ++r)
        la::kernels::matvec_t(kTileWidth, kTileWidth, a, kTileWidth,
                              dz.data().data() + r * kTileWidth,
                              out.data().data() + r * kTileWidth);
    }
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTileRows));
  state.SetLabel(la::kernels::dispatched_kernels().name);
}

void BM_MatvecTRows(benchmark::State& state) {
  matvec_t_tile_loop<true>(state);
}
BENCHMARK(BM_MatvecTRows);

void BM_MatvecTPerRow(benchmark::State& state) {
  matvec_t_tile_loop<false>(state);
}
BENCHMARK(BM_MatvecTPerRow);

void BM_MlpForward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const nn::Mlp net = nn::Mlp::make(4, {width, width}, 1,
                                    nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 1);
  const la::Vec x = {0.1, -0.2, 0.3, -0.4};
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_MlpForward)->Arg(24)->Arg(64)->Arg(128);

// Layer-wise GEMM batched inference (the serving runtime's hot kernel) vs
// batch size (Arg).  Items/sec is states/sec; compare against BM_MlpForward
// to read the batching win per sample.
void BM_MlpForwardBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const nn::Mlp net = nn::Mlp::make(4, {64, 64}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 1);
  la::Matrix x(batch, 4);
  util::Rng rng(3);
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward_batch(x));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  // GEMM flops only (2*K per MAC over the 4->64->64->1 layers).  The bias
  // and tanh work is not counted, and it is not negligible: the 128 tanh
  // values per row cost about as much as the GEMM (see BM_TanhRows).
  state.counters["FLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(batch) * (4.0 * 64 + 64.0 * 64 + 64.0 * 1),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MlpForwardBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// The batched forward's tanh (la::kernels::tanh_rows) over Arg values, and
// the libm std::tanh loop it replaced as the comparator — the same bits on
// an FMA-capable x86-64 host with glibc 2.36.  2560 = one 64-row tile of a
// 40-wide hidden layer.  Items/sec is tanh values/sec.  BM_TanhRows is
// labelled with the path tanh_rows took on this host (avx512, avx2 or
// scalar); BM_TanhRowsAvx2 runs the four-lane instantiation on any host.
std::vector<double> tanh_inputs(std::size_t n) {
  std::vector<double> z(n);
  util::Rng rng(5);
  for (auto& v : z) v = rng.uniform(-3.0, 3.0);
  return z;
}

void tanh_rows_loop(benchmark::State& state,
                    void (*rows)(const double*, double*,
                                 std::size_t) noexcept) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> z = tanh_inputs(n);
  std::vector<double> out(n);
  for (auto _ : state) {
    rows(z.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_TanhRows(benchmark::State& state) {
  tanh_rows_loop(state, la::kernels::tanh_rows);
  state.SetLabel(la::kernels::dispatched_kernels().name);
}
BENCHMARK(BM_TanhRows)->Arg(2560);

void BM_TanhRowsAvx2(benchmark::State& state) {
  tanh_rows_loop(state, la::kernels::avx2_kernels().tanh_rows);
  state.SetLabel(la::kernels::avx2_kernels().name);
}
BENCHMARK(BM_TanhRowsAvx2)->Arg(2560);

void libm_tanh_rows(const double* z, double* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::tanh(z[i]);
}

void BM_TanhRowsLibm(benchmark::State& state) {
  tanh_rows_loop(state, libm_tanh_rows);
}
BENCHMARK(BM_TanhRowsLibm)->Arg(2560);

void BM_MlpBackward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const nn::Mlp net = nn::Mlp::make(4, {width, width}, 1,
                                    nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 1);
  const la::Vec x = {0.1, -0.2, 0.3, -0.4};
  const la::Vec target = {0.5};
  nn::Gradients grads = net.zero_gradients();
  for (auto _ : state) {
    nn::Mlp::Workspace ws;
    const la::Vec y = net.forward(x, ws);
    benchmark::DoNotOptimize(
        net.backward(ws, nn::mse_gradient(y, target), grads));
  }
  state.SetLabel(la::kernels::dispatched_kernels().name);
}
BENCHMARK(BM_MlpBackward)->Arg(24)->Arg(64);

void BM_MlpInputGradient(benchmark::State& state) {
  const nn::Mlp net = nn::Mlp::make(4, {64, 64}, 1, nn::Activation::kTanh,
                                    nn::Activation::kIdentity, 1);
  const la::Vec x = {0.1, -0.2, 0.3, -0.4};
  for (auto _ : state)
    benchmark::DoNotOptimize(net.input_gradient(x, {1.0}));
}
BENCHMARK(BM_MlpInputGradient);

void BM_VanDerPolStep(benchmark::State& state) {
  const sys::VanDerPol system;
  la::Vec s = {0.5, -0.5};
  const la::Vec u = {1.0};
  const la::Vec w = {0.01};
  for (auto _ : state) {
    s = system.step(s, u, w);
    benchmark::DoNotOptimize(s);
    s = {0.5, -0.5};
  }
}
BENCHMARK(BM_VanDerPolStep);

void BM_CartPoleIntervalStep(benchmark::State& state) {
  const sys::CartPole system;
  const auto dynamics = verify::make_interval_dynamics(system);
  const verify::IBox box = verify::make_box({-0.1, -0.1, -0.05, -0.1},
                                            {0.1, 0.1, 0.05, 0.1});
  const verify::IBox u = {verify::Interval(-1.0, 1.0)};
  for (auto _ : state) benchmark::DoNotOptimize(dynamics->step(box, u));
}
BENCHMARK(BM_CartPoleIntervalStep);

void BM_NnAbstractionEnclose(benchmark::State& state) {
  nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 1);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  verify::AbstractionConfig config;
  config.epsilon_target = 0.5;
  const verify::NnAbstraction abstraction(controller, config);
  const verify::IBox box = verify::make_box({-0.1, -0.1}, {0.1, 0.1});
  const verify::IBox u_bounds = {verify::Interval(-20.0, 20.0)};
  for (auto _ : state) {
    verify::VerificationBudget budget;
    benchmark::DoNotOptimize(abstraction.enclose(box, u_bounds, budget));
  }
}
BENCHMARK(BM_NnAbstractionEnclose);

void BM_FgsmPerturb(benchmark::State& state) {
  nn::Mlp net = nn::Mlp::make(2, {24, 24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 1);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  const attack::FgsmAttack fgsm({0.2, 0.2});
  util::Rng rng(1);
  const la::Vec s = {0.3, -0.3};
  for (auto _ : state)
    benchmark::DoNotOptimize(fgsm.perturb(s, controller, rng));
}
BENCHMARK(BM_FgsmPerturb);

void BM_ClosedLoopRollout(benchmark::State& state) {
  const auto system = std::make_shared<sys::VanDerPol>();
  nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 1);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  util::Rng rng(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::rollout(*system, controller, {0.5, 0.5}, nullptr, rng));
}
BENCHMARK(BM_ClosedLoopRollout);

// Scaling of the batched rollout engine with worker count (Arg).  Arg 1 is
// the serial baseline; speedup(Arg k) = time(1) / time(k).  The workload is
// the standard evaluation grid on the oscillator.  The pool is constructed
// outside the timed loop so the measurement is rollout throughput, not
// thread spawn/join cost.
void BM_BatchRollout(benchmark::State& state) {
  const auto system = std::make_shared<sys::VanDerPol>();
  nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 1);
  const ctrl::NnController controller(std::move(net), {1.0}, "k");
  const auto jobs = core::make_eval_jobs(*system, 256, 424242, nullptr);
  const int workers = static_cast<int>(state.range(0));
  core::BatchRolloutConfig config;
  std::unique_ptr<util::ThreadPool> pool;
  if (workers == 1) {
    config.num_workers = 1;  // pure serial baseline, no pool at all.
  } else {
    pool = std::make_unique<util::ThreadPool>(workers);
    config.pool = pool.get();
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::batch_rollout(*system, controller, jobs, config));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_BatchRollout)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Scaling of the robust-distillation SGD (Algorithm 1 lines 12-14) with
// worker count (Arg; 1 = serial).  Per-sample forward/FGSM/backward fans
// across the pool with the fixed-order gradient reduction, so every Arg
// computes bitwise-identical student weights; only the wall-clock moves.
void BM_DistillSgd(benchmark::State& state) {
  const sys::VanDerPol system;
  const auto lqr = ctrl::LqrController::synthesize(system, 1.0, 0.5);
  core::DistillConfig config;
  config.teacher_rollouts = 4;
  config.uniform_samples = 1500;
  config.student_hidden = {48, 48};
  config.epochs = 2;
  config.adversarial_prob = 1.0;  // FGSM on every minibatch: the hot case.
  config.num_workers = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::distill(system, lqr, config, "bm"));
}
BENCHMARK(BM_DistillSgd)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Scaling of the reachability frontier sweep with worker count (Arg; 1 =
// serial).  Each step's sub-boxes are abstracted in parallel by
// verify::sweep_in_order, whose counters are the serial loop's, so
// flowpipes and budget counters are identical across Args.
void BM_ReachSweep(benchmark::State& state) {
  auto system = std::make_shared<sys::ThreeD>();
  const auto lqr = ctrl::LqrController::synthesize(*system, 1.0, 8.0);
  const auto controller = std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(lqr.gain(), "lin"));
  verify::ReachConfig config;
  config.steps = 6;
  config.abstraction.epsilon_target = 0.08;
  config.max_box_width = 0.02;
  config.num_workers = static_cast<int>(state.range(0));
  const verify::ReachabilityAnalyzer analyzer(system, *controller, config);
  const verify::IBox initial =
      verify::make_box({-0.16, 0.15, 0.05}, {-0.05, 0.26, 0.16});
  for (auto _ : state) {
    const auto result = analyzer.analyze(initial);
    if (!result.completed) {
      state.SkipWithError(result.failure.c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ReachSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- certified-lookup crossover (tracked) ---------------------------------
//
// The serve-path margin check: "is every invariant cell overlapped by the
// ±margin box a member?"  Flat is the odometer over the window volume
// (InvariantResult::all_members, which SafetyMonitor runs on grids the tree
// cannot index); Sfc is SafetyMonitor's CellSetTree descent.
// Arg = grid side n — on coarse grids the window holds a handful of cells
// and the flat walk wins on constant factors; as n grows the window volume
// grows quadratically while the tree cost tracks the window boundary, and
// the crossover lands in BENCH_micro.json as certified_lookup_speedup_<n>.

/// Disk-shaped member set on an n x n grid over [-1,1]^2: member iff the
/// cell center lies within radius 0.8.
verify::InvariantResult disk_invariant(int n) {
  verify::InvariantResult result;
  result.grid = {n, n};
  result.member.resize(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(n));
  const double w = 2.0 / static_cast<double>(n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double x = -1.0 + (static_cast<double>(i) + 0.5) * w;
      const double y = -1.0 + (static_cast<double>(j) + 0.5) * w;
      result.member[static_cast<std::size_t>(j) * n + i] =
          x * x + y * y <= 0.8 * 0.8;
    }
  result.completed = true;
  return result;
}

/// Deterministic probe states on a radius-0.5 ring: deep enough inside the
/// disk that the ±margin window is all-member, i.e. the walk never exits
/// early — the worst case both paths must pay in full.
std::vector<la::Vec> lookup_probes() {
  std::vector<la::Vec> probes;
  for (int i = 0; i < 64; ++i) {
    const double a = 2.0 * 3.14159265358979323846 * i / 64.0;
    probes.push_back({0.5 * std::cos(a), 0.5 * std::sin(a)});
  }
  return probes;
}

constexpr double kLookupMargin = 0.15;

/// SafetyMonitor's margin path without the tree, the baseline the
/// CellSetTree descent is measured against: window quantization plus the
/// odometer over every overlapped cell.
bool flat_margin_certified_baseline(const verify::InvariantResult& inv,
                                    const cocktail::sys::Box& domain,
                                    double margin, const la::Vec& state) {
  std::vector<int> lo_k(state.size()), hi_k(state.size());
  for (std::size_t d = 0; d < state.size(); ++d) {
    const double lo = state[d] - margin;
    const double hi = state[d] + margin;
    if (lo < domain.lo[d] || hi > domain.hi[d]) return false;
    const double w = (domain.hi[d] - domain.lo[d]) /
                     static_cast<double>(inv.grid[d]);
    lo_k[d] = std::clamp(static_cast<int>(std::floor((lo - domain.lo[d]) / w)),
                         0, inv.grid[d] - 1);
    hi_k[d] = std::clamp(static_cast<int>(std::floor((hi - domain.lo[d]) / w)),
                         0, inv.grid[d] - 1);
  }
  return inv.all_members(lo_k, hi_k);
}

void BM_CertifiedLookupFlat(benchmark::State& state) {
  const auto inv = disk_invariant(static_cast<int>(state.range(0)));
  const sys::Box domain = sys::Box::symmetric(2, 1.0);
  const auto probes = lookup_probes();
  for (auto _ : state)
    for (const la::Vec& probe : probes)
      benchmark::DoNotOptimize(
          flat_margin_certified_baseline(inv, domain, kLookupMargin, probe));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_CertifiedLookupFlat)->Arg(16)->Arg(64)->Arg(256);

void BM_CertifiedLookupSfc(benchmark::State& state) {
  const auto monitor = serve::SafetyMonitor::inside_invariant(
      disk_invariant(static_cast<int>(state.range(0))),
      sys::Box::symmetric(2, 1.0), kLookupMargin);
  const auto probes = lookup_probes();
  for (auto _ : state)
    for (const la::Vec& probe : probes)
      benchmark::DoNotOptimize(monitor.certified(probe));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_CertifiedLookupSfc)->Arg(16)->Arg(64)->Arg(256);

// Scaling of the PPO minibatch updates with worker count (Arg; 1 = serial).
// Each iteration of the timed loop is one PPO training iteration — serial
// on-policy collection plus update_epochs passes of parallel per-sample
// gradient work (the hot path of the adaptive mixing learner).  Every Arg
// trains bitwise-identical networks; only the wall-clock moves.
void BM_PpoUpdate(benchmark::State& state) {
  testutil::PointMassEnv env;
  rl::PpoConfig config;
  config.policy_hidden = {64, 64};
  config.value_hidden = {64, 64};
  config.steps_per_iteration = 512;
  config.update_epochs = 6;
  config.minibatch = 64;
  config.num_workers = static_cast<int>(state.range(0));
  rl::PpoGaussian ppo(config);
  ppo.initialize(env);
  for (auto _ : state)
    benchmark::DoNotOptimize(ppo.run_iterations(env, 1));
  state.SetLabel(la::kernels::dispatched_kernels().name);
}
BENCHMARK(BM_PpoUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Scaling of the DDPG critic/actor minibatch passes with worker count
// (Arg; 1 = serial).  Each iteration runs one episode past warmup, i.e.
// max_episode_steps env steps each followed by a full parallel update
// (target pre-pass, critic regression, actor dQ/da).
void BM_DdpgUpdate(benchmark::State& state) {
  testutil::PointMassEnv env;
  rl::DdpgConfig config;
  config.actor_hidden = {64, 64};
  config.critic_hidden = {64, 64};
  config.batch_size = 64;
  config.warmup_steps = 64;  // replay fills during the first episodes.
  config.num_workers = static_cast<int>(state.range(0));
  rl::Ddpg ddpg(config);
  ddpg.initialize(env);
  (void)ddpg.run_episodes(env, 4);  // past warmup: every step updates.
  for (auto _ : state)
    benchmark::DoNotOptimize(ddpg.run_episodes(env, 1));
  state.SetLabel(la::kernels::dispatched_kernels().name);
}
BENCHMARK(BM_DdpgUpdate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- tracked perf tier: JSON trajectory output ----------------------------

/// One emitted row of BENCH_micro.json.
struct TrajectoryRow {
  std::string name;
  std::int64_t iterations = 0;
  double real_time_per_iter_s = 0.0;
  double cpu_time_per_iter_s = 0.0;
  double flops_per_s = -1.0;           // -1: no flop model for this bench.
  double items_per_second = -1.0;
  std::string label;                   // the benchmark's SetLabel, if any.
};

/// ConsoleReporter that additionally captures every run for the JSON file.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      TrajectoryRow row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<std::int64_t>(run.iterations);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.real_time_per_iter_s = run.real_accumulated_time / iters;
      row.cpu_time_per_iter_s = run.cpu_accumulated_time / iters;
      const auto flops = run.counters.find("FLOPS");
      if (flops != run.counters.end()) row.flops_per_s = flops->second;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) row.items_per_second = items->second;
      row.label = run.report_label;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<TrajectoryRow>& rows() const {
    return rows_;
  }

 private:
  std::vector<TrajectoryRow> rows_;
};

double find_time(const std::vector<TrajectoryRow>& rows,
                 const std::string& name) {
  for (const auto& row : rows)
    if (row.name == name) return row.real_time_per_iter_s;
  return -1.0;
}

void write_json(const std::vector<TrajectoryRow>& rows, bool smoke,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_micro: cannot open " << path << " for writing\n";
    return;
  }
  out.precision(12);
  out << "{\n  \"bench\": \"bench_micro\",\n  \"schema_version\": 2,\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"build_type\": \"" << COCKTAIL_BUILD_TYPE << "\",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"iterations\": "
        << row.iterations << ", \"real_time_per_iter_s\": "
        << row.real_time_per_iter_s << ", \"cpu_time_per_iter_s\": "
        << row.cpu_time_per_iter_s;
    if (row.flops_per_s >= 0.0)
      out << ", \"gflops\": " << row.flops_per_s * 1e-9;
    if (row.items_per_second >= 0.0)
      out << ", \"items_per_second\": " << row.items_per_second;
    if (!row.label.empty()) out << ", \"label\": \"" << row.label << "\"";
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"derived\": {";
  // Headline trajectory numbers: blocked-backend speedup over the pre-PR
  // naive loop, per square GEMM shape.
  bool first = true;
  for (const int n : {64, 128, 256}) {
    const std::string arg = "/" + std::to_string(n);
    const double naive = find_time(rows, "BM_GemmNaive" + arg);
    const double blocked = find_time(rows, "BM_Gemm" + arg);
    if (naive <= 0.0 || blocked <= 0.0) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    \"gemm_speedup_" << n << "\": " << naive / blocked;
  }
  // Certificate-lookup crossover: SFC-tree speedup over the flat odometer
  // per grid side (values < 1 on coarse grids, > 1 once the window volume
  // dominates — the crossover itself is the tracked number).
  for (const int n : {16, 64, 256}) {
    const std::string arg = "/" + std::to_string(n);
    const double flat = find_time(rows, "BM_CertifiedLookupFlat" + arg);
    const double tree = find_time(rows, "BM_CertifiedLookupSfc" + arg);
    if (flat <= 0.0 || tree <= 0.0) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    \"certified_lookup_speedup_" << n << "\": " << flat / tree;
  }
  // Batched tanh kernel over the libm loop it replaced.
  {
    const double libm = find_time(rows, "BM_TanhRowsLibm/2560");
    const double kernel = find_time(rows, "BM_TanhRows/2560");
    if (libm > 0.0 && kernel > 0.0) {
      if (!first) out << ",";
      first = false;
      out << "\n    \"tanh_rows_speedup\": " << libm / kernel;
    }
    // The path tanh_rows takes here over the four-lane instantiation: the
    // eight-lane gain on an AVX-512 host, ~1 elsewhere.
    const double avx2 = find_time(rows, "BM_TanhRowsAvx2/2560");
    if (avx2 > 0.0 && kernel > 0.0) {
      if (!first) out << ",";
      first = false;
      out << "\n    \"tanh_rows_avx512_speedup\": " << avx2 / kernel;
    }
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  std::cout << "bench_micro: wrote perf trajectory point to " << path << "\n";
}

}  // namespace

// Custom main: strip the perf-tier flags, hand the rest to
// google-benchmark, and always leave a BENCH_micro.json behind.
int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_micro.json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      args.push_back(argv[i]);
    }
  }
  // Smoke mode = the CI perf tier: only the tracked benchmarks, at a
  // measurement time that keeps the whole tier in seconds.  The numbers are
  // noisier than a full run but the same JSON shape lands in the artifact.
  std::string min_time = "--benchmark_min_time=0.01";
  std::string filter =
      "--benchmark_filter=BM_Gemm|BM_MlpForwardBatch|BM_TanhRows|"
      "BM_DistillSgd/1|BM_PpoUpdate/1|BM_CertifiedLookup";
  if (smoke) {
    args.push_back(min_time.data());
    args.push_back(filter.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_json(reporter.rows(), smoke, out_path);
  benchmark::Shutdown();
  return 0;
}
