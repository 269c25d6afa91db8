// `serve` workload: ControllerServer with the default ServeConfig, serving a
// κ*-shaped Van der Pol network (2→24→1 tanh) behind the LQR fallback.  The
// certificate is the safe box shrunk by a margin, so a fixed share of the
// sampled states (~10%) falls back.
//
// The job (end-to-end): kFloodRequests requests from the seeded state pool,
// submitted by one client as fast as admission allows with kFloodWindow of
// them unanswered at any time.  Batches fill, so the server's own work —
// admission, the MPMC shard queue, batched inference, the safety monitor
// and the fallback — sets the time, not the dispatcher's linger.  The
// workload's job_s is the median time of one flood over the measured
// seconds, and work_per_s the median requests answered per second.
//
// The traced run first measures the layers, before the job (so the
// server's latency histogram and batch counters cover only these phases):
//   closed loop  3 clients each step their own Van der Pol plant and wait
//                for every action; far less than a batch arrives per linger
//                window, so this is linger-bound.
//   open light   one generator thread submits on a seeded Poisson schedule
//                far below one batch per linger window; one collector
//                thread takes the answers.  Latency is timed from when each
//                request was due, so a stalled generator cannot hide queueing.
//   open heavy   the same at a fixed heavy rate.
//   max QPS      the highest grid rate (5% steps) whose p99 meets the SLO
//                with a generator that kept up and a bounded backlog.
// Every answer is checked bitwise against ControllerServer::act_reference
// (flood and open-loop answers against a table computed in the set-up,
// closed-loop answers afterwards), and the admission accounting is checked.
// The open loop keeps its memory fixed (a ring of in-flight requests and
// sample buffers sized once), so peak RSS does not depend on the rates the
// search reaches.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "nn/mlp.h"
#include "serve/controller_server.h"
#include "sys/vanderpol.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace cocktail;

namespace {

const char* const kName = "vdp";
constexpr double kSloUs = 1000.0;  ///< 2% of the 50 ms control period.
constexpr double kCertificateMargin = 0.1;
constexpr int kWarmupRequests = 256;
constexpr std::size_t kStatePool = 4096;
constexpr std::size_t kFloodRequests = 50'000;
/// Unanswered flood requests.  Below the default admission bound (1 shard
/// × 1024), so the flood never sheds.
constexpr std::size_t kFloodWindow = 1000;
constexpr std::size_t kRing = 1024;
constexpr int kClients = 3;
constexpr int kClosedSteps = 6000;
constexpr double kLightQps = 2000.0;
/// About half of open_max_qps (~210k req/s on a 4-core x86 box) when the
/// benchmark was defined.
constexpr double kHeavyQps = 100000.0;
/// Rate grid for the max-QPS search: kGridBase * kGridStep^k.
constexpr double kGridBase = 4000.0;
constexpr double kGridStep = 1.05;
constexpr int kGridTop = 100;  ///< ~526k req/s.
/// Coarse search stride: 4 grid steps (~22%).
constexpr int kCoarseStride = 4;
/// A step is invalid when the generator submitted this late (p99).
constexpr double kMaxGeneratorLagUs = 100.0;
/// An open-loop step fails (growing backlog) once this many requests are
/// unanswered: below the admission bound, as for the flood, and below
/// kRing, so a ring slot is free before it is reused.
constexpr std::size_t kMaxOutstanding = kFloodWindow;

/// Keeps microbenchmark results observable so the calls are not elided.
volatile double g_sink = 0.0;

std::shared_ptr<const ctrl::NnController> make_primary(std::uint64_t seed) {
  nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity,
                              util::derive_seed(seed, 91));
  return std::make_shared<const ctrl::NnController>(std::move(net),
                                                    la::Vec{1.0}, "k*");
}

serve::SafetyMonitor make_monitor(const sys::VanDerPol& plant) {
  return serve::SafetyMonitor::inside_box(plant.safe_region(),
                                          kCertificateMargin);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A running server and the request states with their reference answers.
struct Served {
  Served() : monitor(make_monitor(plant)) {}
  sys::VanDerPol plant;
  serve::SafetyMonitor monitor;
  std::unique_ptr<serve::ControllerServer> server;
  std::uint64_t submitted = 0;          ///< submit() calls on `server`.
  std::uint64_t expected_fallback = 0;  ///< uncertified answered states.
  std::vector<la::Vec> states;
  std::vector<double> action;        ///< act_reference(states[i])[0].
  std::vector<char> certified;       ///< monitor verdict on states[i].
  std::vector<std::uint32_t> flood;  ///< the job's request sequence.
};

std::unique_ptr<serve::ControllerServer> start_server(const Served& s,
                                                     std::uint64_t seed) {
  auto server = std::make_unique<serve::ControllerServer>();
  server->register_controller(
      kName, make_primary(seed),
      std::make_shared<ctrl::LqrController>(
          ctrl::LqrController::synthesize(s.plant, 1.0, 0.5)),
      s.monitor);
  return server;
}

std::unique_ptr<Served> prepare(std::uint64_t seed) {
  auto s = std::make_unique<Served>();
  s->server = start_server(*s, seed);

  // Warm-up: one burst, so batches fill and no linger is waited out.
  util::Rng rng(util::derive_seed(seed, 92));
  std::vector<std::future<la::Vec>> warmup;
  for (int k = 0; k < kWarmupRequests; ++k) {
    const la::Vec state = s->plant.sample_initial_state(rng);
    s->expected_fallback += s->monitor.certified(state) ? 0 : 1;
    warmup.push_back(s->server->submit(kName, state));
  }
  s->submitted += kWarmupRequests;
  for (auto& answer : warmup) (void)answer.get();

  util::Rng pool_rng(util::derive_seed(seed, 93));
  const sys::Box sampling = s->plant.sampling_region();
  for (std::size_t k = 0; k < kStatePool; ++k) {
    s->states.push_back(sampling.sample(pool_rng));
    s->action.push_back(s->server->act_reference(kName, s->states.back())[0]);
    s->certified.push_back(s->monitor.certified(s->states.back()) ? 1 : 0);
  }
  util::Rng flood_rng(util::derive_seed(seed, 94));
  for (std::size_t k = 0; k < kFloodRequests; ++k)
    s->flood.push_back(
        static_cast<std::uint32_t>(flood_rng.uniform_index(kStatePool)));
  return s;
}

/// Answers checked against the reference table.
struct Tally {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t mismatches = 0;  ///< answers not bitwise act_reference.
  std::size_t fallbacks = 0;   ///< answered states outside the certificate.

  /// Takes the answer to a request for pool state `state`; false if the
  /// request was shed or failed.
  bool take(const Served& served, std::future<la::Vec>& future,
            std::uint32_t state) {
    try {
      const double answer = future.get()[0];
      ++answered;
      mismatches += same_bits(answer, served.action[state]) ? 0 : 1;
      fallbacks += served.certified[state] != 0 ? 0 : 1;
      return true;
    } catch (...) {
      return false;
    }
  }

  void add(const Tally& other) {
    sent += other.sent;
    answered += other.answered;
    mismatches += other.mismatches;
    fallbacks += other.fallbacks;
  }
};

struct FloodResult {
  Tally tally;
  serve::ServeCounters counters;  ///< of the job's server.
  double job_s = 0.0;
};

/// The job: the flood sequence with kFloodWindow requests in flight, sent
/// from the calling thread.  Two choices keep it steady on a virtualised
/// host, where single jobs of one run range from 0.06 to 0.11 s: the client
/// spins on the oldest answer instead of sleeping until the dispatcher
/// wakes it, and each job runs on a server of its own, started and stopped
/// outside the timed part, so that no run inherits one dispatcher's thread
/// placement and heap layout for all its jobs.  Over five runs on a 4-vCPU
/// x86 VM, the spread (IQR / median) of job_s fell from 0.14 to 0.065.
FloodResult flood(const Served& served, std::uint64_t seed) {
  FloodResult out;
  const std::unique_ptr<serve::ControllerServer> server =
      start_server(served, seed);
  struct Slot {
    std::future<la::Vec> future;
    std::uint32_t state = 0;
  };
  std::vector<Slot> ring(kFloodWindow);
  const auto collect = [&](Slot& slot) {
    while (slot.future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
    }
    (void)out.tally.take(served, slot.future, slot.state);
  };
  {
    const Span span("serve.flood");
    const std::size_t n = served.flood.size();
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = ring[i % kFloodWindow];
      if (i >= kFloodWindow) collect(slot);
      slot.state = served.flood[i];
      slot.future = server->submit(kName, served.states[slot.state]);
    }
    for (std::size_t i = n > kFloodWindow ? n - kFloodWindow : 0; i < n; ++i)
      collect(ring[i % kFloodWindow]);
    out.job_s = seconds_since(start);
    out.tally.sent = n;
  }
  out.counters = server->counters(kName);
  return out;
}

struct Quantiles {
  double p50 = 0.0;
  double p99 = 0.0;
};

template <typename T>
Quantiles p50_p99(std::vector<T>& samples, std::size_t n) {
  return {quantile(samples, n, 0.50), quantile(samples, n, 0.99)};
}

/// Sample buffers reused by every open-loop step: allocated and touched
/// once, so no step page-faults or grows the heap while it is timed.
struct StepBuffers {
  explicit StepBuffers(std::size_t capacity)
      : latency(capacity), lag(capacity), admission(capacity), ring(kRing) {}
  std::vector<float> latency;    ///< due → answer, µs.
  std::vector<float> lag;        ///< due → submit, µs.
  std::vector<float> admission;  ///< duration of submit(), µs.
  struct Slot {
    std::int64_t due_ns = 0;
    std::uint32_t state = 0;
    std::future<la::Vec> future;
  };
  std::vector<Slot> ring;
};

struct OpenResult {
  double rate = 0.0;
  double achieved_qps = 0.0;  ///< answers ÷ (last answer − first due).
  Quantiles latency, lag, admission;
  Tally tally;
  bool backlog = false;  ///< stopped early: the backlog kept growing.

  [[nodiscard]] bool generator_valid() const {
    return lag.p99 <= kMaxGeneratorLagUs;
  }
  [[nodiscard]] bool meets_slo() const {
    return !backlog && tally.answered == tally.sent && generator_valid() &&
           latency.p99 <= kSloUs;
  }
  [[nodiscard]] std::string summary() const {
    char line[240];
    std::snprintf(line, sizeof(line),
                  "{\"rate\": %.0f, \"achieved_qps\": %.1f, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"lag_p99_us\": %.1f, \"backlog\": %s, "
                  "\"generator_valid\": %s, \"pass\": %s}",
                  rate, achieved_qps, latency.p50, latency.p99, lag.p99,
                  backlog ? "true" : "false",
                  generator_valid() ? "true" : "false",
                  meets_slo() ? "true" : "false");
    return line;
  }
};

/// One open-loop step: `count` requests arriving on a seeded Poisson
/// schedule at `rate`, submitted by this thread and collected (and checked)
/// by one more.  The step stops early once the backlog passes
/// kMaxOutstanding.
OpenResult open_loop(Served& served, StepBuffers& buf, double rate,
                     std::size_t count, std::uint64_t seed) {
  OpenResult out;
  out.rate = rate;
  const std::size_t n =
      std::min(buf.latency.size(), std::max<std::size_t>(1, count));

  // published: requests [0, published) were submitted; answered: requests
  // [0, answered) were collected.  Release/acquire pairs hand each ring
  // slot back and forth.
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> done{false};
  std::int64_t last_done = 0;
  std::thread collector([&] {
    std::size_t i = 0;
    for (;;) {
      const std::size_t ready = published.load(std::memory_order_acquire);
      if (i == ready) {
        if (done.load(std::memory_order_acquire) &&
            i == published.load(std::memory_order_acquire))
          break;
        std::this_thread::yield();
        continue;
      }
      for (; i < ready; ++i) {
        StepBuffers::Slot& slot = buf.ring[i % kRing];
        if (out.tally.take(served, slot.future, slot.state)) {
          last_done = now_ns();
          buf.latency[i] = static_cast<float>(
              static_cast<double>(last_done - slot.due_ns) * 1e-3);
        } else {
          buf.latency[i] = 1e12f;  // shed or failed: misses the SLO.
        }
        answered.store(i + 1, std::memory_order_release);
      }
    }
  });

  util::Rng rng(seed);
  const std::int64_t origin = now_ns() + 1'000'000;  // 1 ms to get going.
  std::int64_t first_due = 0;
  double t = 0.0;
  std::size_t sent = 0;
  const auto stop_collector = [&] {
    done.store(true, std::memory_order_release);
    collector.join();
  };
  try {
    for (; sent < n; ++sent) {
      const auto state = static_cast<std::uint32_t>(
          rng.uniform_index(served.states.size()));
      t += -std::log(1.0 - rng.uniform()) / rate;
      const std::int64_t due = origin + static_cast<std::int64_t>(t * 1e9);
      if (sent - answered.load(std::memory_order_acquire) > kMaxOutstanding) {
        out.backlog = true;
        break;
      }
      std::int64_t now = now_ns();
      if (due - now > 200'000)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 100'000));
      while ((now = now_ns()) < due) {
      }
      if (sent == 0) first_due = due;
      StepBuffers::Slot& slot = buf.ring[sent % kRing];
      slot.due_ns = due;
      slot.state = state;
      slot.future = served.server->submit(kName, served.states[state]);
      const std::int64_t after = now_ns();
      buf.lag[sent] = static_cast<float>(static_cast<double>(now - due) * 1e-3);
      buf.admission[sent] =
          static_cast<float>(static_cast<double>(after - now) * 1e-3);
      published.store(sent + 1, std::memory_order_release);
    }
  } catch (...) {
    stop_collector();  // a thread is joined on every path.
    throw;
  }
  stop_collector();
  served.submitted += sent;

  out.tally.sent = sent;
  out.latency = p50_p99(buf.latency, sent);
  out.lag = p50_p99(buf.lag, sent);
  out.admission = p50_p99(buf.admission, sent);
  if (last_done > first_due)
    out.achieved_qps = static_cast<double>(out.tally.answered) /
                       (static_cast<double>(last_done - first_due) * 1e-9);
  return out;
}

double grid_rate(int k) { return kGridBase * std::pow(kGridStep, k); }

std::size_t requests(double rate, double seconds) {
  return static_cast<std::size_t>(rate * seconds);
}

/// Median ns per row of act_batch calls over `rows`-row batches.
double act_batch_ns_per_row(const ctrl::NnController& net,
                            const std::vector<la::Vec>& states,
                            std::size_t rows) {
  const std::vector<la::Vec> batch(states.begin(),
                                   states.begin() + static_cast<long>(rows));
  const int calls = static_cast<int>(4096 / rows) + 1;
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 21; ++rep) {
    const std::int64_t start = now_ns();
    for (int c = 0; c < calls; ++c) sink += net.act_batch(batch)[0][0];
    samples.push_back(static_cast<double>(now_ns() - start) /
                      (static_cast<double>(calls) * static_cast<double>(rows)));
  }
  g_sink = sink;
  return median(samples);
}

/// Median ns per SafetyMonitor::certified call over the state pool.
double certified_ns(const serve::SafetyMonitor& monitor,
                    const std::vector<la::Vec>& states) {
  std::vector<double> samples;
  std::size_t certified = 0;
  for (int rep = 0; rep < 21; ++rep) {
    const std::int64_t start = now_ns();
    for (const la::Vec& s : states) certified += monitor.certified(s) ? 1 : 0;
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(states.size()));
  }
  g_sink = static_cast<double>(certified);
  return median(samples);
}

/// The traced run's layer phases: closed loop, open light and heavy, the
/// max-QPS search and the layer microbenchmarks.  Records per-layer metrics
/// and returns the answers it checked.
Tally measure_layers(const Args& args, Served& served, Report& report) {
  Tally tally;
  // ---- closed loop --------------------------------------------------------
  std::vector<double> closed;
  {
    const Span span("serve.closed");
    std::vector<std::vector<double>> latency(kClients);
    std::vector<std::vector<std::pair<la::Vec, double>>> seen(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng(util::derive_seed(args.seed, 100 + c));
        const sys::VanDerPol& plant = served.plant;
        la::Vec s = plant.sample_initial_state(rng);
        auto& lat = latency[static_cast<std::size_t>(c)];
        auto& log = seen[static_cast<std::size_t>(c)];
        lat.reserve(kClosedSteps);
        log.reserve(kClosedSteps);
        try {
          for (int t = 0; t < kClosedSteps; ++t) {
            const std::int64_t t0 = now_ns();
            const la::Vec u = served.server->submit(kName, s).get();
            lat.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
            log.emplace_back(s, u[0]);
            s = plant.step(s, plant.clip_control(u),
                           plant.sample_disturbance(rng));
            if (!plant.is_safe(s)) s = plant.sample_initial_state(rng);
          }
        } catch (...) {
          // A shed or failed request ends this client; the check in
          // run_serve counts its missing steps as failed.
        }
      });
    }
    for (auto& client : clients) client.join();
    for (int c = 0; c < kClients; ++c) {
      served.submitted += latency[c].size();
      closed.insert(closed.end(), latency[c].begin(), latency[c].end());
      for (const auto& [state, answer] : seen[c]) {
        ++tally.answered;
        tally.mismatches += same_bits(
            answer, served.server->act_reference(kName, state)[0]) ? 0 : 1;
        tally.fallbacks += served.monitor.certified(state) ? 0 : 1;
      }
    }
    tally.sent += static_cast<std::size_t>(kClients) * kClosedSteps;
  }

  // ---- open loop: light, heavy, then the max-QPS search ------------------
  const double step_s = 0.02 * args.seconds;
  StepBuffers buffers(std::max(requests(kHeavyQps, 0.05 * args.seconds),
                               requests(grid_rate(kGridTop), step_s)) +
                      1);
  std::vector<OpenResult> open;
  {
    const Span span("serve.open_light");
    open.push_back(open_loop(served, buffers, kLightQps,
                             requests(kLightQps, 0.1 * args.seconds),
                             util::derive_seed(args.seed, 110)));
  }
  {
    const Span span("serve.open_heavy");
    open.push_back(open_loop(served, buffers, kHeavyQps,
                             requests(kHeavyQps, 0.05 * args.seconds),
                             util::derive_seed(args.seed, 111)));
  }
  const OpenResult light = open[0];
  const OpenResult heavy = open[1];

  // A rate passes if one of two attempts meets the SLO: a single multi-ms
  // stall of the host would otherwise fail a step the server sustains.
  std::string steps_log;
  OpenResult best;
  int attempt = 0;
  const auto passes = [&](int k) {
    for (int tries = 0; tries < 2; ++tries) {
      const Span span("serve.search_step");
      open.push_back(open_loop(served, buffers, grid_rate(k),
                               requests(grid_rate(k), step_s),
                               util::derive_seed(args.seed, 200 + attempt++)));
      const OpenResult& step = open.back();
      steps_log += (steps_log.empty() ? "" : ", ") + step.summary();
      if (step.meets_slo()) {
        if (step.rate > best.rate) best = step;
        return true;
      }
    }
    return false;
  };
  int lo = -1, hi = kGridTop + 1;
  int k = static_cast<int>(
      std::lround(std::log(kHeavyQps / kGridBase) / std::log(kGridStep)));
  if (passes(k)) {
    for (lo = k; lo < kGridTop; lo = k) {
      k = std::min(lo + kCoarseStride, kGridTop);
      if (!passes(k)) {
        hi = k;
        break;
      }
    }
  } else {
    for (hi = k; hi > 0; hi = k) {
      k = std::max(hi - kCoarseStride, 0);
      if (passes(k)) {
        lo = k;
        break;
      }
    }
  }
  while (lo >= 0 && hi <= kGridTop && hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (passes(mid)) lo = mid; else hi = mid;
  }
  for (const OpenResult& step : open) tally.add(step.tally);
  served.server->drain();

  // ---- layer microbenchmarks ---------------------------------------------
  const auto primary = make_primary(args.seed);
  double b1 = 0.0, b32 = 0.0, cert = 0.0;
  {
    const Span span("nn.act_batch");
    b1 = act_batch_ns_per_row(*primary, served.states, 1);
    b32 = act_batch_ns_per_row(*primary, served.states, 32);
  }
  {
    const Span span("serve.monitor.certified");
    cert = certified_ns(served.monitor, served.states);
  }

  // ---- per-layer numbers, before the flood adds to the server's counters -
  double server_p50 = 0.0, server_p99 = 0.0;
  for (const auto& h : served.server->metrics().snapshot().histograms)
    if (h.name == std::string("serve.") + kName + ".latency_us") {
      server_p50 = h.q.p50_us;
      server_p99 = h.q.p99_us;
    }
  const serve::ServeCounters counters = served.server->counters(kName);
  const double rows_per_batch =
      counters.batches > 0 ? static_cast<double>(counters.primary) /
                                 static_cast<double>(counters.batches)
                           : 0.0;
  const double max_batch = static_cast<double>(serve::ServeConfig{}.max_batch);
  const Quantiles closed_q = p50_p99(closed, closed.size());
  report.layer("serve.closed.p50_us", closed_q.p50, "us");
  report.layer("serve.closed.p99_us", closed_q.p99, "us");
  report.layer("serve.open_light.p50_us", light.latency.p50, "us");
  report.layer("serve.open_light.p99_us", light.latency.p99, "us");
  report.layer("serve.open_heavy.p50_us", heavy.latency.p50, "us");
  report.layer("serve.open_heavy.p99_us", heavy.latency.p99, "us");
  report.layer("serve.open_max_qps", best.achieved_qps, "1/s");
  // submit() durations of the heavy phase, the one that stresses admission.
  report.layer("serve.admission.p50_us", heavy.admission.p50, "us");
  report.layer("serve.admission.p99_us", heavy.admission.p99, "us");
  report.layer("serve.server.p50_us", server_p50, "us");
  report.layer("serve.server.p99_us", server_p99, "us");
  report.layer("serve.rows_per_batch", rows_per_batch, "count");
  report.layer("serve.batch_fill", rows_per_batch / max_batch, "ratio");
  report.layer("nn.act_batch.ns_per_row.b1", b1, "ns");
  report.layer("nn.act_batch.ns_per_row.b32", b32, "ns");
  report.layer("serve.monitor.certified_ns", cert, "ns");
  report.layer("serve.fallback_share",
               counters.accepted > 0
                   ? static_cast<double>(counters.fallback) /
                         static_cast<double>(counters.accepted)
                   : 0.0,
               "ratio");
  report.layer("serve.shed_rate",
               static_cast<double>(counters.shed) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, served.submitted)),
               "ratio");
  report.layer("serve.generator_lag_p99_us",
               std::max(light.lag.p99, heavy.lag.p99), "us");
  report.info["serve.light"] = light.summary();
  report.info["serve.heavy"] = heavy.summary();
  report.info["serve.search_steps"] = "[" + steps_log + "]";
  return tally;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const std::unique_ptr<Served> served =
      set_up(report, [&] { return prepare(args.seed); });
  if (args.setup_only) return;

  Tally layers;
  if (args.trace) layers = measure_layers(args, *served, report);

  std::vector<FloodResult> floods;
  repeat_for(args.seconds, [&] {
    floods.push_back(flood(*served, args.seed));
    return floods.back().job_s;
  });
  Tally tally = layers;
  std::vector<double> job_s, rate;
  for (const FloodResult& f : floods) {
    job_s.push_back(f.job_s);
    rate.push_back(static_cast<double>(f.tally.sent) / f.job_s);
    tally.add(f.tally);
  }
  report.e2e("job_s", median(job_s), "s");
  report.e2e("work_per_s", median(rate), "1/s");

  // ---- output checks ------------------------------------------------------
  report.checks(static_cast<long>(tally.answered),
                static_cast<long>(tally.mismatches),
                "served answers equal act_reference bitwise");
  report.checks(static_cast<long>(tally.sent),
                static_cast<long>(tally.sent - tally.answered),
                "every submitted request is answered (none shed or failed)");
  const auto accounting = [&](const serve::ServeCounters& c,
                              std::uint64_t submitted,
                              std::uint64_t uncertified) {
    report.check(c.accepted + c.shed + c.rejected == submitted,
                 "accepted + shed + rejected == submitted");
    report.check(c.primary + c.fallback == c.accepted,
                 "primary + fallback == accepted");
    report.check(c.fallback == uncertified,
                 "fallback count equals the uncertified answered states");
  };
  accounting(served->server->counters(kName), served->submitted,
             served->expected_fallback + layers.fallbacks);
  for (const FloodResult& f : floods) {
    accounting(f.counters, f.tally.sent, f.tally.fallbacks);
    report.check(f.tally.fallbacks == floods.front().tally.fallbacks,
                 "every flood job falls back on the same requests");
  }

  report.exact_count("serve.flood.requests",
                     static_cast<long long>(kFloodRequests));
  report.exact_count("serve.flood.fallback",
                     static_cast<long long>(floods.front().tally.fallbacks));
  report.exact["digest.served"] = network_digest(*make_primary(args.seed));
  std::string spread;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0})
    spread += (spread.empty() ? "" : " ") +
              std::to_string(quantile(job_s, job_s.size(), q));
  report.info["serve.flood_job_s.quartiles"] = spread;
  report.info["serve.flood_repeats"] = std::to_string(floods.size());
}

}  // namespace perfbench
