// Serving-runtime benchmark: throughput and latency of
// serve::ControllerServer, plus an exact-accounting admission flood.
//
//   flood            a fixed request count with kWindow requests in flight,
//                    sent by 1 or 2 submitter threads that each keep their
//                    share of the window outstanding and spin on their
//                    oldest answer.  Batches fill, so the server's own work
//                    sets the rate, not the linger.  Swept over
//                    num_dispatchers in {1, 2, 4} at the default batch size
//                    and linger; every answer is checked bitwise against
//                    act_reference.  The admission bound (D x 1024) exceeds
//                    the window, so a flood never sheds.  This mirrors the
//                    job of the repository benchmark's `serve` workload
//                    (perfbench/src/serve.cpp); keep the two in step.
//   closed-loop      plant-in-the-loop clients at the default config: each
//                    client waits for every action before it steps, so the
//                    rate is linger-bound.
//   admission-flood  `--flood` simulated clients against deliberately tiny
//                    rings (2 dispatchers x 128 slots = an admission bound
//                    of 256), so load shedding genuinely happens.
//
// The process exits nonzero unless every flood answer equals act_reference
// bitwise and the admission flood's accounting is exact (accepted + shed +
// rejected == submitted, server counters == client tallies).
//
// Self-contained and cold-cache friendly: the served network is a synthetic
// κ*-shaped student (2→24→1 tanh) on the Van der Pol plant with an LQR
// fallback, so no trained artifacts are needed.  Every run writes a
// machine-readable BENCH_serve.json (--out=PATH) that records nproc and the
// build type; the Release CI job uploads it next to BENCH_micro.json.
//
// Usage: bench_serve [--requests N] [--clients C] [--steps T] [--flood N]
//                    [--out=PATH]
//        bench_serve --smoke        (tiny counts; the CI Release smoke run)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "nn/mlp.h"
#include "serve/controller_server.h"
#include "serve/metrics.h"
#include "serve/safety_monitor.h"
#include "sys/vanderpol.h"
#include "util/csv.h"
#include "util/paths.h"
#include "util/rng.h"
#include "util/stopwatch.h"

#ifndef COCKTAIL_BUILD_TYPE
#define COCKTAIL_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cocktail;

const char* const kName = "vdp";
/// Flood requests in flight, over all submitters.
constexpr std::size_t kWindow = 1000;
/// Distinct request states; request i asks for states[i % kStatePool].
constexpr std::size_t kStatePool = 4096;

struct Options {
  long requests = 50000;  ///< flood requests per run.
  int repeats = 9;        ///< flood runs per point; the median is reported.
  int clients = 8;        ///< closed-loop clients.
  int steps = 200;        ///< closed-loop plant steps per client.
  long flood = 1000000;   ///< simulated clients in the admission flood.
};

/// The served controller, its request states and their reference answers.
struct Fixture {
  Fixture()
      : student(make_student()),
        fallback(std::make_shared<ctrl::LqrController>(
            ctrl::LqrController::synthesize(vdp, 1.0, 0.5))),
        monitor(serve::SafetyMonitor::inside_box(vdp.safe_region(), 0.05)) {
    util::Rng rng(424242);
    const sys::Box sampling = vdp.sampling_region();
    const auto server = start({});
    for (std::size_t k = 0; k < kStatePool; ++k) {
      states.push_back(sampling.sample(rng));
      reference.push_back(server->act_reference(kName, states.back()));
    }
  }

  static std::shared_ptr<const ctrl::NnController> make_student() {
    nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                                nn::Activation::kIdentity, 7);
    return std::make_shared<const ctrl::NnController>(std::move(net),
                                                      la::Vec{1.0}, "k*");
  }

  [[nodiscard]] std::unique_ptr<serve::ControllerServer> start(
      const serve::ServeConfig& config) const {
    auto server = std::make_unique<serve::ControllerServer>(config);
    server->register_controller(kName, student, fallback, monitor);
    return server;
  }

  sys::VanDerPol vdp;
  std::shared_ptr<const ctrl::NnController> student;
  ctrl::ControllerPtr fallback;
  serve::SafetyMonitor monitor;
  std::vector<la::Vec> states;
  std::vector<la::Vec> reference;  ///< act_reference(states[i]).
};

bool same_bits(const la::Vec& a, const la::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One measured configuration: a flood point, the closed loop, or the
/// admission flood.
struct Row {
  std::string mode;
  int submitters = 0;
  serve::ServeConfig config;
  long requests = 0;  ///< submitted per run.
  int repeats = 1;
  double seconds = 0.0;  ///< of the median run.
  double qps = 0.0;      ///< answers per second, median over the repeats.
  double qps_min = 0.0;
  double qps_max = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  serve::ServeCounters counters;  ///< of the median run.
  long mismatches = 0;  ///< answers that are not act_reference, all runs.
  long failed = 0;      ///< requests shed or failed, all runs.

  [[nodiscard]] std::string name() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s/s%d_d%zu_b%zu_l%lld_q%zu",
                  mode.c_str(), submitters, config.num_dispatchers,
                  config.max_batch,
                  static_cast<long long>(config.max_wait.count()),
                  config.queue_capacity);
    return buf;
  }
  [[nodiscard]] double shed_rate() const {
    const double submitted = static_cast<double>(
        counters.accepted + counters.shed + counters.rejected);
    return submitted > 0.0 ? static_cast<double>(counters.shed) / submitted
                           : 0.0;
  }
  [[nodiscard]] double rows_per_batch() const {
    return counters.batches > 0 ? static_cast<double>(counters.primary) /
                                      static_cast<double>(counters.batches)
                                : 0.0;
  }
};

/// Accept→answer quantiles from the server's own latency histogram.
void server_latency(serve::ControllerServer& server, Row& row) {
  for (const auto& h : server.metrics().snapshot().histograms) {
    if (h.name == std::string("serve.") + kName + ".latency_us") {
      row.p50_us = h.q.p50_us;
      row.p99_us = h.q.p99_us;
      row.p999_us = h.q.p999_us;
    }
  }
}

/// One flood run on a fresh server (started and stopped outside the timed
/// part).  Submitter t sends requests t, t + S, t + 2S, ... with at most
/// kWindow / S of them unanswered, waiting on its oldest answer by
/// spinning rather than sleeping until a dispatcher wakes it.
Row flood_once(const Fixture& fx, std::size_t dispatchers, int submitters,
               long requests) {
  Row row;
  row.mode = "flood";
  row.submitters = submitters;
  row.config.num_dispatchers = dispatchers;
  row.requests = requests;
  const auto server = fx.start(row.config);

  struct Slot {
    std::future<la::Vec> future;
    std::size_t state = 0;
  };
  const auto s = static_cast<std::size_t>(submitters);
  const std::size_t window = std::max<std::size_t>(1, kWindow / s);
  std::vector<long> mismatches(s, 0), failed(s, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < s; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Slot> ring(window);
      const auto collect = [&](Slot& slot) {
        while (slot.future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
        }
        try {
          if (!same_bits(slot.future.get(), fx.reference[slot.state]))
            ++mismatches[t];
        } catch (...) {
          ++failed[t];
        }
      };
      while (!go.load()) {
      }
      std::size_t sent = 0;
      for (auto i = static_cast<long>(t); i < requests;
           i += static_cast<long>(s), ++sent) {
        Slot& slot = ring[sent % window];
        if (sent >= window) collect(slot);
        slot.state = static_cast<std::size_t>(i) % kStatePool;
        slot.future = server->submit(kName, fx.states[slot.state]);
      }
      for (std::size_t k = sent > window ? sent - window : 0; k < sent; ++k)
        collect(ring[k % window]);
    });
  }
  util::Stopwatch timer;
  go.store(true);
  for (auto& thread : threads) thread.join();
  row.seconds = timer.seconds();

  server->drain();
  row.counters = server->counters(kName);
  server_latency(*server, row);
  for (std::size_t t = 0; t < s; ++t) {
    row.mismatches += mismatches[t];
    row.failed += failed[t];
  }
  row.qps = static_cast<double>(requests - row.failed) / row.seconds;
  row.qps_min = row.qps_max = row.qps;
  return row;
}

/// `repeats` flood runs of one point; reports the median-QPS run with the
/// QPS range and the mismatch/failure totals of all runs.
Row flood_point(const Fixture& fx, const Options& options,
                std::size_t dispatchers, int submitters) {
  std::vector<Row> runs;
  for (int r = 0; r < options.repeats; ++r)
    runs.push_back(flood_once(fx, dispatchers, submitters, options.requests));
  std::sort(runs.begin(), runs.end(),
            [](const Row& a, const Row& b) { return a.qps < b.qps; });
  Row row = runs[runs.size() / 2];
  row.repeats = options.repeats;
  row.qps_min = runs.front().qps;
  row.qps_max = runs.back().qps;
  row.mismatches = 0;
  row.failed = 0;
  for (const Row& run : runs) {
    row.mismatches += run.mismatches;
    row.failed += run.failed;
  }
  return row;
}

/// Plant-in-the-loop: each client simulates its own Van der Pol episode and
/// must wait for the served action before it can step — the serving pattern
/// where latency, not throughput, gates control quality.  Default config.
Row closed_loop(const Fixture& fx, const Options& options) {
  Row row;
  row.mode = "closed-loop";
  row.submitters = options.clients;
  const auto server = fx.start(row.config);

  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(options.clients));
  util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(7000 + static_cast<std::uint64_t>(c));
      la::Vec s = fx.vdp.sample_initial_state(rng);
      auto& latencies = per_client[static_cast<std::size_t>(c)];
      for (int t = 0; t < options.steps; ++t) {
        const auto start = std::chrono::steady_clock::now();
        const la::Vec u = server->submit(kName, s).get();
        const auto stop = std::chrono::steady_clock::now();
        latencies.push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
        s = fx.vdp.step(s, fx.vdp.clip_control(u),
                        fx.vdp.sample_disturbance(rng));
        if (!fx.vdp.is_safe(s)) s = fx.vdp.sample_initial_state(rng);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  row.seconds = timer.seconds();
  row.counters = server->counters(kName);

  std::vector<double> latencies;
  for (const auto& client : per_client)
    latencies.insert(latencies.end(), client.begin(), client.end());
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    return latencies[static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1))];
  };
  row.requests = static_cast<long>(latencies.size());
  row.qps = row.qps_min = row.qps_max =
      static_cast<double>(latencies.size()) / row.seconds;
  row.p50_us = percentile(0.50);
  row.p99_us = percentile(0.99);
  row.p999_us = percentile(0.999);
  return row;
}

/// The simulated million-client admission flood: `flood` logical clients
/// (one request each) are multiplexed over `clients` submitter threads
/// against deliberately tiny rings, so load shedding genuinely happens.
/// Each thread keeps a bounded window of outstanding futures — submission
/// never waits on an answer — and tallies answered/shed client-side.
/// Returns false (and prints why) if the admission accounting is not exact:
/// every submission must land in exactly one of {accepted, shed, rejected}
/// and the client-side tallies must equal the server counters.  Latency
/// quantiles come from the server's own histogram (accept→answer), not
/// client buffers — a million latencies would be measurement ballast.
bool admission_flood(const Fixture& fx, const Options& options, Row& row) {
  row.mode = "admission-flood";
  row.submitters = options.clients;
  row.config.max_batch = 32;
  row.config.max_wait = std::chrono::microseconds(0);
  row.config.num_dispatchers = 2;
  row.config.queue_capacity = 128;  // tiny rings: the flood must shed.
  const auto server = fx.start(row.config);

  const long total = options.flood;
  const int threads_n = options.clients;
  constexpr std::size_t kClientWindow = 256;  // outstanding per thread.

  std::vector<long> answered(static_cast<std::size_t>(threads_n), 0);
  std::vector<long> shed(static_cast<std::size_t>(threads_n), 0);
  std::vector<long> submitted(static_cast<std::size_t>(threads_n), 0);

  util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < threads_n; ++c) {
    threads.emplace_back([&, c] {
      const auto tc = static_cast<std::size_t>(c);
      const long share = total / threads_n +
                         (c < static_cast<int>(total % threads_n) ? 1 : 0);
      std::vector<std::future<la::Vec>> window;
      window.reserve(kClientWindow);
      const auto settle = [&] {
        for (auto& future : window) {
          try {
            (void)future.get();
            ++answered[tc];
          } catch (const serve::RejectedError&) {
            ++shed[tc];
          }
        }
        window.clear();
      };
      for (long k = 0; k < share; ++k) {
        const auto state = static_cast<std::size_t>(k * threads_n + c);
        window.push_back(server->submit(kName, fx.states[state % kStatePool]));
        ++submitted[tc];
        if (window.size() == kClientWindow) settle();
      }
      settle();
    });
  }
  for (auto& thread : threads) thread.join();
  server->drain();
  row.seconds = timer.seconds();

  long client_answered = 0, client_shed = 0, client_submitted = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(threads_n); ++c) {
    client_answered += answered[c];
    client_shed += shed[c];
    client_submitted += submitted[c];
  }
  row.counters = server->counters(kName);
  row.requests = client_submitted;
  row.failed = client_shed;
  row.qps = row.qps_min = row.qps_max =
      static_cast<double>(client_answered) / row.seconds;
  server_latency(*server, row);

  // Exactness: the whole point of the run.
  bool exact = true;
  const auto check = [&exact](bool ok, const char* what, long lhs, long rhs) {
    if (!ok) {
      std::fprintf(stderr,
                   "admission-flood accounting VIOLATION: %s (%ld vs %ld)\n",
                   what, lhs, rhs);
      exact = false;
    }
  };
  const auto& c = row.counters;
  const auto server_submitted =
      static_cast<long>(c.accepted + c.shed + c.rejected);
  check(client_submitted == total, "submitted == requested flood",
        client_submitted, total);
  check(server_submitted == client_submitted,
        "accepted + shed + rejected == submitted", server_submitted,
        client_submitted);
  check(static_cast<long>(c.accepted) == client_answered,
        "server accepted == client answered", static_cast<long>(c.accepted),
        client_answered);
  check(static_cast<long>(c.shed) == client_shed, "server shed == client shed",
        static_cast<long>(c.shed), client_shed);
  check(c.rejected == 0, "no shutdown rejections before stop()",
        static_cast<long>(c.rejected), 0);
  check(static_cast<long>(c.primary + c.fallback) == client_answered,
        "primary + fallback == answered",
        static_cast<long>(c.primary + c.fallback), client_answered);
  return exact;
}

void report(util::CsvWriter& csv, const Row& row) {
  std::printf(
      "%-15s %4d %4zu %5zu %6lld %8ld %10.0f %10.0f %10.0f %8.1f %8.1f "
      "%8.1f %6.1f %7llu %7llu %6ld\n",
      row.mode.c_str(), row.submitters, row.config.num_dispatchers,
      row.config.max_batch,
      static_cast<long long>(row.config.max_wait.count()), row.requests,
      row.qps, row.qps_min, row.qps_max, row.p50_us, row.p99_us, row.p999_us,
      row.rows_per_batch(),
      static_cast<unsigned long long>(row.counters.fallback),
      static_cast<unsigned long long>(row.counters.shed), row.mismatches);
  csv.row_text({row.mode, std::to_string(row.submitters),
                std::to_string(row.config.num_dispatchers),
                std::to_string(row.config.max_batch),
                std::to_string(row.config.max_wait.count()),
                std::to_string(row.config.queue_capacity),
                std::to_string(row.requests), std::to_string(row.repeats),
                util::format_number(row.qps), util::format_number(row.qps_min),
                util::format_number(row.qps_max),
                util::format_number(row.p50_us),
                util::format_number(row.p99_us),
                util::format_number(row.p999_us),
                util::format_number(row.rows_per_batch()),
                util::format_number(row.shed_rate()),
                std::to_string(row.counters.fallback),
                std::to_string(row.counters.batches),
                std::to_string(row.mismatches)});
}

/// Median flood QPS of the point with `submitters` and `dispatchers`.
double flood_qps(const std::vector<Row>& rows, int submitters,
                 std::size_t dispatchers) {
  for (const Row& row : rows)
    if (row.mode == "flood" && row.submitters == submitters &&
        row.config.num_dispatchers == dispatchers)
      return row.qps;
  return 0.0;
}

void write_json(const std::vector<Row>& rows, bool smoke, bool answers_exact,
                bool flood_exact, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_serve: cannot open " << path << " for writing\n";
    return;
  }
  out.precision(12);
  out << "{\n  \"bench\": \"bench_serve\",\n  \"schema_version\": 2,\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"build_type\": \"" << COCKTAIL_BUILD_TYPE << "\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"name\": \"" << row.name() << "\", \"mode\": \"" << row.mode
        << "\", \"submitters\": " << row.submitters
        << ", \"num_dispatchers\": " << row.config.num_dispatchers
        << ", \"max_batch\": " << row.config.max_batch
        << ", \"linger_us\": " << row.config.max_wait.count()
        << ", \"queue_capacity\": " << row.config.queue_capacity
        << ", \"requests\": " << row.requests
        << ", \"repeats\": " << row.repeats
        << ", \"seconds\": " << row.seconds << ", \"qps\": " << row.qps
        << ", \"qps_min\": " << row.qps_min
        << ", \"qps_max\": " << row.qps_max << ", \"p50_us\": " << row.p50_us
        << ", \"p99_us\": " << row.p99_us << ", \"p999_us\": " << row.p999_us
        << ", \"rows_per_batch\": " << row.rows_per_batch()
        << ", \"shed_rate\": " << row.shed_rate()
        << ", \"accepted\": " << row.counters.accepted
        << ", \"shed\": " << row.counters.shed
        << ", \"rejected\": " << row.counters.rejected
        << ", \"fallback\": " << row.counters.fallback
        << ", \"batches\": " << row.counters.batches
        << ", \"mismatches\": " << row.mismatches << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Headline numbers: the dispatcher curve of the one-submitter flood, the
  // closed-loop rate, and the admission flood's shed rate and exactness.
  const double d1 = flood_qps(rows, 1, 1);
  const auto speedup = [&](std::size_t d) {
    return d1 > 0.0 ? flood_qps(rows, 1, d) / d1 : 0.0;
  };
  out << "  ],\n  \"derived\": {\n"
      << "    \"flood_dispatcher_speedup_2\": " << speedup(2) << ",\n"
      << "    \"flood_dispatcher_speedup_4\": " << speedup(4) << ",\n"
      << "    \"flood_answers_exact\": " << (answers_exact ? "true" : "false");
  for (const Row& row : rows) {
    if (row.mode == "closed-loop")
      out << ",\n    \"closed_loop_qps\": " << row.qps;
    if (row.mode == "admission-flood")
      out << ",\n    \"admission_flood_qps\": " << row.qps
          << ",\n    \"admission_flood_shed_rate\": " << row.shed_rate()
          << ",\n    \"admission_flood_exact_accounting\": "
          << (flood_exact ? "true" : "false");
  }
  out << "\n  }\n}\n";
  std::cout << "bench_serve: wrote trajectory point to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_long = [&](long fallback) {
      return i + 1 < argc ? std::atol(argv[++i]) : fallback;
    };
    if (arg == "--smoke") {
      // Tiny counts for the CI Release smoke run: exercises every flood
      // point, the closed loop and the admission accounting end to end in
      // seconds.
      smoke = true;
      options.requests = 4000;
      options.repeats = 1;
      options.clients = 4;
      options.steps = 20;
      options.flood = 20000;
    } else if (arg == "--requests") {
      options.requests = next_long(options.requests);
    } else if (arg == "--clients") {
      options.clients = static_cast<int>(next_long(options.clients));
    } else if (arg == "--steps") {
      options.steps = static_cast<int>(next_long(options.steps));
    } else if (arg == "--flood") {
      options.flood = next_long(options.flood);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--requests N] [--clients C] "
                   "[--steps T] [--flood N] [--out=PATH] [--smoke]\n");
      return 2;
    }
  }
  if (options.requests <= 0 || options.clients <= 0 || options.steps <= 0 ||
      options.flood <= 0) {
    std::fprintf(stderr, "bench_serve: counts must be positive\n");
    return 2;
  }

  std::printf(
      "Controller serving: micro-batched inference with certified-safety "
      "fallback (nproc %u, %s build)\n"
      "flood: %ld requests, %zu in flight, median of %d runs; closed-loop: "
      "%d clients x %d steps; admission flood: %ld simulated clients\n\n",
      std::thread::hardware_concurrency(), COCKTAIL_BUILD_TYPE,
      options.requests, kWindow, options.repeats, options.clients,
      options.steps, options.flood);
  std::printf(
      "%-15s %4s %4s %5s %6s %8s %10s %10s %10s %8s %8s %8s %6s %7s %7s "
      "%6s\n",
      "mode", "subm", "disp", "batch", "linger", "requests", "qps", "qps_min",
      "qps_max", "p50_us", "p99_us", "p999_us", "rows/b", "fallbk", "shed",
      "mism");

  util::CsvWriter csv(util::output_dir() + "/bench_serve.csv",
                      {"mode", "submitters", "num_dispatchers", "max_batch",
                       "linger_us", "queue_capacity", "requests", "repeats",
                       "qps", "qps_min", "qps_max", "p50_us", "p99_us",
                       "p999_us", "rows_per_batch", "shed_rate", "fallback",
                       "batches", "mismatches"});

  const Fixture fixture;
  // One unmeasured flood first, so the first measured point does not pay
  // for cold caches and a cold allocator.  Its answers are checked too.
  const Row warmup = flood_once(fixture, 1, 1, options.requests);
  bool answers_exact = warmup.mismatches == 0 && warmup.failed == 0;
  std::vector<Row> rows;
  for (const int submitters : {1, 2}) {
    for (const std::size_t dispatchers : {1u, 2u, 4u}) {
      rows.push_back(flood_point(fixture, options, dispatchers, submitters));
      report(csv, rows.back());
      answers_exact = answers_exact && rows.back().mismatches == 0 &&
                      rows.back().failed == 0;
    }
  }
  rows.push_back(closed_loop(fixture, options));
  report(csv, rows.back());

  Row flood_row;
  const bool flood_exact = admission_flood(fixture, options, flood_row);
  report(csv, flood_row);
  rows.push_back(flood_row);

  std::printf(
      "\nflood answers %s act_reference; admission flood: %ld simulated "
      "clients in %.2fs, shed rate %.4f — accounting %s\n",
      answers_exact ? "EQUAL" : "DIFFER FROM", flood_row.requests,
      flood_row.seconds, flood_row.shed_rate(),
      flood_exact ? "EXACT" : "VIOLATED");
  write_json(rows, smoke, answers_exact, flood_exact, out_path);
  std::printf("CSV written to %s\n",
              (util::output_dir() + "/bench_serve.csv").c_str());
  return answers_exact && flood_exact ? 0 : 1;
}
