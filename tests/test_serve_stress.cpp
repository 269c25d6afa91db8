// Concurrency stress for the annotation contracts (sized to run under the
// TSan CI entry, which picks this suite up through the `serve` label).
//
// These tests assert almost nothing clever; their value is the interleaving
// pressure they put on the lock/counter/shutdown contracts that
// util/thread_pool.h, serve/mpmc_queue.h, and serve/controller_server.h
// annotate or document:
//   - many external submitters against one ThreadPool, mixed with
//     concurrent parallel_for batches and size() reads;
//   - many ControllerServer submitters against per-dispatcher MPMC rings
//     and multiple dispatcher threads, mixed with concurrent counters() stats
//     reads, drain() calls, registration under traffic, a stop() racing
//     live submitters (the Dekker shutdown gate), and genuine load shedding
//     under contention with exact accept/shed/reject accounting.
// Under -fsanitize=thread any access these paths make outside the
// documented discipline is a CI failure even when the assertions pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.h"
#include "control/nn_controller.h"
#include "la/vec.h"
#include "nn/mlp.h"
#include "serve/controller_server.h"
#include "serve/safety_monitor.h"
#include "sys/system.h"
#include "util/thread_pool.h"

namespace cocktail {
namespace {

using la::Vec;

std::shared_ptr<const ctrl::NnController> make_student(std::uint64_t seed) {
  nn::Mlp net = nn::Mlp::make(2, {8}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, seed);
  return std::make_shared<const ctrl::NnController>(std::move(net), Vec{1.5},
                                                    "stress-student");
}

/// Fallback with a recognizable constant answer.
class MarkController final : public ctrl::Controller {
 public:
  static constexpr double kMark = -7.125;
  [[nodiscard]] Vec act(const Vec&) const override { return Vec{kMark}; }
  [[nodiscard]] std::size_t state_dim() const override { return 2; }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "mark"; }
};

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolStress, ConcurrentSubmittersAndBatchesAndSizeReads) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 64;
  constexpr int kBatchDrivers = 2;
  constexpr std::size_t kBatch = 96;

  util::ThreadPool pool(3);
  std::atomic<bool> done{false};

  // A reader hammers the (const, post-construction-immutable) size()
  // accessor the whole time; TSan proves the read needs no lock.
  std::thread size_reader([&] {
    while (!done.load()) {
      EXPECT_EQ(pool.size(), 3u);
      std::this_thread::yield();
    }
  });

  // Drivers run parallel_for batches concurrently with the submitters; the
  // batch bodies only touch their own slot.
  std::vector<std::thread> drivers;
  std::vector<std::vector<int>> slots(kBatchDrivers,
                                      std::vector<int>(kBatch, 0));
  for (int d = 0; d < kBatchDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int round = 0; round < 4; ++round)
        pool.parallel_for(kBatch,
                          [&, d](std::size_t i) { slots[d][i] += 1; });
    });
  }

  std::vector<std::thread> submitters;
  std::vector<long> sums(kSubmitters, 0);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<int>> futures;
      futures.reserve(kTasksPerSubmitter);
      for (int k = 0; k < kTasksPerSubmitter; ++k)
        futures.push_back(pool.submit([t, k] { return t * 1000 + k; }));
      for (int k = 0; k < kTasksPerSubmitter; ++k)
        sums[t] += futures[static_cast<std::size_t>(k)].get();
    });
  }

  for (auto& thread : submitters) thread.join();
  for (auto& thread : drivers) thread.join();
  done.store(true);
  size_reader.join();

  for (int t = 0; t < kSubmitters; ++t) {
    long expected = 0;
    for (int k = 0; k < kTasksPerSubmitter; ++k) expected += t * 1000 + k;
    EXPECT_EQ(sums[t], expected);
  }
  for (const auto& slot : slots)
    for (int value : slot) EXPECT_EQ(value, 4);
}

TEST(ThreadPoolStress, ExceptionsUnderConcurrentBatchesStayContained) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must remain fully usable after a failed batch.
    std::atomic<int> ran{0};
    pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
  }
}

// --- ControllerServer ------------------------------------------------------

TEST(ControllerServerStress, SubmittersStatsReadersDrainAndShutdown) {
  constexpr int kSubmitters = 6;
  constexpr int kRequestsPerSubmitter = 150;

  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::microseconds(50);
  config.num_dispatchers = 2;  // rings far larger than total traffic: no sheds.
  serve::ControllerServer server(config);

  const auto student = make_student(11);
  // Half-open certificate: states with |x| <= 1 are certified, the rest go
  // to the fallback, so both execution paths run under contention.
  server.register_controller(
      "stress", student, std::make_shared<MarkController>(),
      serve::SafetyMonitor::inside_box(
          sys::Box{{-1.0, -1.0}, {1.0, 1.0}}));

  std::atomic<bool> done{false};
  std::atomic<long> answered{0};
  std::atomic<long> rejected{0};

  // Stats reader: counters() must be callable at any moment and only ever
  // observe monotonic values.
  std::thread stats_reader([&] {
    std::uint64_t last_answered = 0;
    while (!done.load()) {
      const auto counters = server.counters("stress");
      const std::uint64_t answered = counters.primary + counters.fallback;
      EXPECT_GE(answered, last_answered);
      last_answered = answered;
      std::this_thread::yield();
    }
  });

  // A drainer interleaves drain() with live traffic.
  std::thread drainer([&] {
    while (!done.load()) {
      server.drain();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < kRequestsPerSubmitter; ++k) {
        // Deterministic mixed workload: ~half certified, ~half fallback.
        const double x = (k % 2 == 0) ? 0.25 : 3.0;
        // submit() never throws for valid arguments — after stop() it
        // returns a rejected future (the pinned shutdown contract).
        auto future = server.submit("stress", Vec{x, 0.01 * t});
        try {
          const Vec action = future.get();
          answered.fetch_add(1);
          ASSERT_EQ(action.size(), 1u);
          if (k % 2 != 0) {
            ASSERT_EQ(action[0], MarkController::kMark);
          }
        } catch (const serve::RejectedError& error) {
          // stop() won the race.  The queues are sized far above the total
          // request count, so shutdown is the only legitimate rejection.
          ASSERT_EQ(error.reason(), serve::RejectReason::kShutdown);
          rejected.fetch_add(1);
        }
      }
    });
  }

  // Let traffic build, then stop the server while submitters are still
  // running: accepted requests must all have been answered (future.get()
  // above would otherwise hang), later submits must come back rejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();

  for (auto& thread : submitters) thread.join();
  done.store(true);
  drainer.join();
  stats_reader.join();

  EXPECT_EQ(answered.load() + rejected.load(),
            static_cast<long>(kSubmitters) * kRequestsPerSubmitter);
  const auto counters = server.counters("stress");
  EXPECT_EQ(static_cast<long>(counters.primary + counters.fallback),
            answered.load());
  EXPECT_EQ(static_cast<long>(counters.accepted), answered.load());
  EXPECT_EQ(static_cast<long>(counters.rejected), rejected.load());
  EXPECT_EQ(counters.shed, 0u);
  auto post_stop = server.submit("stress", Vec{0.0, 0.0});
  EXPECT_THROW((void)post_stop.get(), serve::RejectedError);
}

// The multi-dispatcher acceptance stress: more closed-loop submitters than
// the admission bound (2 dispatchers x 2-deep rings), so contention can
// genuinely shed, and the admission accounting must still be exact — every
// submission ends up in exactly one of {answered, shed}, and the
// server-side counters agree with the client-side tallies.
TEST(ControllerServerStress, DispatchersShedExactlyUnderContention) {
  constexpr int kSubmitters = 8;
  constexpr int kRequestsPerSubmitter = 200;

  serve::ServeConfig config;
  config.max_batch = 4;
  config.max_wait = std::chrono::microseconds(20);
  config.num_dispatchers = 2;
  config.queue_capacity = 2;  // tiny rings: floods genuinely shed.
  serve::ControllerServer server(config);
  server.register_controller(
      "contended", make_student(23), std::make_shared<MarkController>(),
      serve::SafetyMonitor::inside_box(sys::Box{{-1.0, -1.0}, {1.0, 1.0}}));

  std::atomic<long> answered{0};
  std::atomic<long> shed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < kRequestsPerSubmitter; ++k) {
        const double x = (k % 2 == 0) ? 0.25 : 3.0;
        auto future = server.submit("contended", Vec{x, 0.01 * t});
        try {
          const Vec action = future.get();
          answered.fetch_add(1);
          if (k % 2 != 0) ASSERT_EQ(action[0], MarkController::kMark);
        } catch (const serve::RejectedError& error) {
          ASSERT_EQ(error.reason(), serve::RejectReason::kQueueFull);
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  server.drain();

  constexpr long kTotal = static_cast<long>(kSubmitters) *
                          kRequestsPerSubmitter;
  EXPECT_EQ(answered.load() + shed.load(), kTotal);
  const auto counters = server.counters("contended");
  EXPECT_EQ(static_cast<long>(counters.accepted), answered.load());
  EXPECT_EQ(static_cast<long>(counters.shed), shed.load());
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(static_cast<long>(counters.accepted + counters.shed), kTotal);
  EXPECT_EQ(counters.primary + counters.fallback, counters.accepted);
}

TEST(ControllerServerStress, RegistrationUnderLiveTraffic) {
  serve::ServeConfig config;
  config.max_batch = 4;
  config.max_wait = std::chrono::microseconds(20);
  config.num_dispatchers = 2;
  serve::ControllerServer server(config);
  server.register_controller("base", make_student(1),
                             std::make_shared<MarkController>(),
                             serve::SafetyMonitor::trust_all());

  std::atomic<bool> done{false};
  std::uint64_t base_submitted = 0;
  std::thread traffic([&] {
    while (!done.load()) {
      auto future = server.submit("base", Vec{0.1, -0.1});
      ++base_submitted;
      (void)future.get();
    }
  });

  // Registering new controllers must never disturb in-flight requests on
  // existing ones (registry_mutex_ is independent of the queue).
  for (int k = 0; k < 32; ++k) {
    server.register_controller("ctl-" + std::to_string(k),
                               make_student(100 + k),
                               std::make_shared<MarkController>(),
                               serve::SafetyMonitor::trust_all());
    auto future = server.submit("ctl-" + std::to_string(k), Vec{0.2, 0.2});
    EXPECT_EQ(future.get().size(), 1u);
  }

  done.store(true);
  traffic.join();
  server.drain();
  // The rings are far larger than the traffic, so everything is admitted,
  // and each controller counts only its own requests.
  const auto base = server.counters("base");
  EXPECT_GT(base.primary, 0u);
  EXPECT_EQ(base.accepted, base_submitted);
  EXPECT_EQ(base.shed + base.rejected, 0u);
  EXPECT_EQ(base.primary + base.fallback, base.accepted);
  for (int k = 0; k < 32; ++k) {
    const auto counters = server.counters("ctl-" + std::to_string(k));
    EXPECT_EQ(counters.accepted, 1u);
    EXPECT_EQ(counters.shed + counters.rejected, 0u);
    EXPECT_EQ(counters.primary + counters.fallback, counters.accepted);
  }
}

}  // namespace
}  // namespace cocktail
