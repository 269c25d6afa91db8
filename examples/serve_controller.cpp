// Serving quickstart: stand up the controller-serving runtime in ~50 lines.
//
//   1. synthesize a trusted LQR expert on the Van der Pol oscillator,
//   2. distill it into a small verifiable student network (tiny budget so
//      the example runs in seconds; the real pipeline distills the mixed
//      teacher AW instead),
//   3. register the student with a certified-safety monitor and the LQR as
//      the fallback expert,
//   4. serve a mix of in-regime and out-of-regime requests concurrently,
//   5. read the primary/fallback counters and the action-deviation bound.
//
// The serving guarantee: every answer is bitwise identical to calling the
// routed controller directly — micro-batching is invisible except in
// throughput.
#include <cstdio>
#include <future>
#include <vector>

#include "control/lqr_controller.h"
#include "core/distiller.h"
#include "serve/controller_server.h"
#include "serve/safety_monitor.h"
#include "sys/registry.h"
#include "util/logging.h"

int main() {
  using namespace cocktail;
  util::set_log_level(util::LogLevel::kWarn);

  // 1. Plant + trusted fallback expert.
  sys::SystemPtr system = sys::make_system("vanderpol");
  const auto lqr = std::make_shared<ctrl::LqrController>(
      ctrl::LqrController::synthesize(*system, 1.0, 0.5));

  // 2. A small student distilled from the expert (quickstart budget).
  core::DistillConfig distill;
  distill.student_hidden = {16};
  distill.epochs = 25;
  distill.teacher_rollouts = 10;
  distill.uniform_samples = 800;
  const auto student = core::distill(*system, *lqr, distill, "k*").student;
  std::printf("student: %zu parameters, certified Lipschitz %.2f\n",
              student->net().num_parameters(), student->lipschitz_bound());

  // 3. The serving runtime: two dispatcher threads, each draining its own
  //    MPMC ring into micro-batches of up to 16 requests, and a safety
  //    monitor that only certifies states 0.2 inside the safe region X —
  //    everything else is answered by the LQR fallback.  queue_capacity
  //    bounds each ring's depth: beyond it, submissions are load-shed with
  //    RejectedError(kQueueFull) instead of queueing unboundedly.
  serve::ServeConfig config;
  config.max_batch = 16;
  config.max_wait = std::chrono::microseconds(200);
  config.num_dispatchers = 2;
  config.queue_capacity = 1024;
  serve::ControllerServer server(config);
  server.register_controller(
      "vdp", student, lqr,
      serve::SafetyMonitor::inside_box(system->safe_region(), 0.2));

  // 4. Concurrent requests: in-regime states plus two clearly outside the
  //    certified region.
  std::vector<la::Vec> states = {{0.3, -0.4}, {-0.8, 0.5},  {0.0, 0.0},
                                 {1.1, -1.2}, {2.9, 2.9},   {-2.9, -2.9}};
  std::vector<std::future<la::Vec>> futures;
  futures.reserve(states.size());
  for (const la::Vec& s : states) futures.push_back(server.submit("vdp", s));
  std::printf("\n%-18s %12s %10s\n", "state", "action", "path");
  for (std::size_t i = 0; i < states.size(); ++i) {
    const la::Vec u = futures[i].get();
    const bool fallback = u == lqr->act(states[i]) && u != student->act(states[i]);
    std::printf("(%5.2f, %5.2f)     %12.4f %10s\n", states[i][0],
                states[i][1], u[0], fallback ? "fallback" : "k*");
  }

  // 5. Metrics: exact per-path counters, and the certified bound on how far
  //    an answer can drift under 0.05 observation noise.
  const serve::ServeCounters counters = server.counters("vdp");
  std::printf(
      "\nserved %llu by k*, %llu by the LQR fallback, %llu micro-batches "
      "(largest %llu rows)\n",
      static_cast<unsigned long long>(counters.primary),
      static_cast<unsigned long long>(counters.fallback),
      static_cast<unsigned long long>(counters.batches),
      static_cast<unsigned long long>(counters.max_batch_rows));
  std::printf("action deviation under ||delta||_inf <= 0.05: at most %.4f\n",
              serve::SafetyMonitor::action_deviation_bound(*student, 0.05));

  // 6. The SLO metrics registry: every server publishes per-controller
  //    latency histograms (p50/p99/p999) and routing/admission counters
  //    under serve.<name>.*; snapshot() renders them in name order with
  //    rates over the window since the previous snapshot.
  std::printf("\n%s", server.metrics().snapshot().format().c_str());
  return 0;
}
