// Controller-serving runtime: micro-batched inference with a
// certified-safety fallback, admission control, and SLO metrics.
//
// The pipeline's end product κ* is a single small network with a certified
// Lipschitz bound — ideal for high-throughput serving, since N concurrent
// requests collapse into one layer-wise GEMM (nn::Mlp::forward_rows).
// Every registered controller gets its own serving tier:
//
//   submit() ── admission gate ──► one MPMC ring ──► its dispatcher thread
//               (bounded depth,     per dispatcher    (micro-batch + linger,
//                shed-with-reason)  (mpmc_queue.h)     then one act_batch)
//
// Dispatchers are the only parallelism: each controller runs
// `num_dispatchers` threads, and dispatcher d is the sole consumer of ring
// d.  It forms a micro-batch (bounded by `max_batch`, lingering up to
// `max_wait`) from its own ring and runs it inline: one act_batch call over
// the certified rows, then the fallbacks one by one.  Batch formation never
// takes a lock shared with other dispatchers or with submitters.  A request
// whose round-robin home ring is full tries every other ring once; if all
// are full it is *shed*: the future resolves to a
// RejectedError(kQueueFull).  Requests whose state leaves the certified
// region are answered by the trusted fallback expert (SafetyMonitor
// routing), and per-controller routing/batch/admission counters plus a
// fixed-bucket latency histogram are published through a
// serve::MetricsRegistry.
//
// Determinism: batching never changes an answer.  A forward_rows row
// depends on its own state alone, and act() is the one-row forward_rows,
// so every request receives exactly the action act_reference produces, for
// ANY dispatcher count / batch size / linger / arrival order — pinned by
// test_serve across {1,2,4} dispatchers × a batch/linger sweep.  Only *which requests share a GEMM*
// is scheduling-dependent, and that is observable solely through the batch
// counters.  Certificate lookups route through SafetyMonitor's
// verify::outward()-backed, NaN-closed predicates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.h"
#include "control/nn_controller.h"
#include "la/vec.h"
#include "serve/metrics.h"
#include "serve/mpmc_queue.h"
#include "serve/safety_monitor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cocktail::serve {

struct ServeConfig {
  /// Upper bound on requests drained into one dispatch cycle.
  std::size_t max_batch = 32;
  /// How long a dispatcher lingers for a partial batch to fill before
  /// executing what it has (0 = dispatch whatever is queued immediately).
  std::chrono::microseconds max_wait{200};
  /// Dispatcher threads per registered controller, each owning one ring.
  std::size_t num_dispatchers = 1;
  /// Bounded depth of each dispatcher's ring (rounded up to a power of
  /// two).  num_dispatchers * queue_capacity is the admission bound: beyond
  /// it, submissions are shed with RejectedError(kQueueFull).
  std::size_t queue_capacity = 1024;
};

/// Why an admitted-or-not request's future carries an exception instead of
/// an action.
enum class RejectReason {
  kQueueFull,  ///< load shed: every ring was at capacity.
  kShutdown,   ///< submitted after stop().
};

/// The exception a rejected request's future throws from get().  The
/// submit-after-shutdown contract (pinned by test_serve): submit() on a
/// stopped server returns a future that throws RejectedError(kShutdown) —
/// it does NOT throw synchronously, so flooding clients need only one error
/// path.  Programmer errors (unknown controller name, wrong state
/// dimension) still throw std::invalid_argument synchronously.
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(RejectReason reason)
      : std::runtime_error(reason == RejectReason::kQueueFull
                               ? "ControllerServer: request shed (all "
                                 "queues full)"
                               : "ControllerServer: submit after stop()"),
        reason_(reason) {}
  [[nodiscard]] RejectReason reason() const noexcept { return reason_; }

 private:
  RejectReason reason_;
};

/// Monotonic per-controller serving counters (the metrics surface).
/// Exactness: accepted + shed + rejected == submit() calls that passed
/// argument validation, and primary + fallback == accepted — guaranteed
/// once all submitters returned and their futures resolved (drain()/stop());
/// mid-flight reads may see per-counter skew.
struct ServeCounters {
  std::uint64_t primary = 0;   ///< requests answered by the served network.
  std::uint64_t fallback = 0;  ///< requests routed to the fallback expert.
  std::uint64_t batches = 0;   ///< primary micro-batches executed.
  std::uint64_t max_batch_rows = 0;  ///< largest primary batch observed.
  std::uint64_t accepted = 0;  ///< admitted requests.
  std::uint64_t shed = 0;      ///< load-shed requests.
  std::uint64_t rejected = 0;  ///< post-stop() rejections.
};

class ControllerServer {
 public:
  /// `metrics` is shared so several servers (or the caller's own
  /// instruments) can publish into one registry; pass nullptr to let the
  /// server create a private one (reachable via metrics()).
  explicit ControllerServer(ServeConfig config = {},
                            std::shared_ptr<MetricsRegistry> metrics = nullptr);
  ~ControllerServer();

  ControllerServer(const ControllerServer&) = delete;
  ControllerServer& operator=(const ControllerServer&) = delete;

  /// Registers a served controller under `name` and starts its dispatcher
  /// threads.  `primary` is the batched network (κ*), `fallback` the
  /// trusted expert answering uncertified requests; both are required,
  /// their dimensions must agree, and `name` must be new.  Registration is
  /// allowed while serving; throws std::runtime_error after stop().
  void register_controller(const std::string& name,
                           std::shared_ptr<const ctrl::NnController> primary,
                           ctrl::ControllerPtr fallback, SafetyMonitor monitor);

  /// Enqueues one inference request; the future carries the action, the
  /// exception the controller threw, or a RejectedError (load shed /
  /// post-stop — see RejectedError for the pinned contract).  Safe to call
  /// from any number of threads.  Throws std::invalid_argument for an
  /// unknown name or a state of the wrong dimension.
  [[nodiscard]] std::future<la::Vec> submit(const std::string& name,
                                            la::Vec state);

  /// The pure per-request reference path: same routing, same answer, no
  /// queue, no counters.  What submit() must bitwise-reproduce.
  [[nodiscard]] la::Vec act_reference(const std::string& name,
                                      const la::Vec& state) const;

  [[nodiscard]] ServeCounters counters(const std::string& name) const;

  /// The registry this server publishes serve.<name>.* metrics into.
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] std::shared_ptr<MetricsRegistry> metrics_ptr() const noexcept {
    return metrics_;
  }

  /// Blocks until every admitted request has been answered.
  void drain();

  /// Drains outstanding requests, joins every dispatcher, and rejects
  /// subsequent submissions (RejectedError(kShutdown) futures).  Idempotent;
  /// invoked by the destructor.
  void stop();

 private:
  // ---- Memory-order audit (for the TSan CI entry) -------------------------
  //
  // Counters/histograms: relaxed monotonic metrics — see serve/metrics.h.
  // max_batch_rows is the same class of standalone metric (relaxed CAS max).
  //
  // Rings: serve/mpmc_queue.h documents the acquire/release payload
  // hand-off at its declaration.
  //
  // Shutdown handshake (the "shutdown-handshake audit" mpmc_queue.h points
  // at) — three seq_cst atomics form a Dekker-style gate with NO lock held
  // on the submit fast path:
  //
  //   stopping_            stop() store-true (seq_cst) before ringing and
  //                        joining dispatchers.
  //   active_submitters_   submit() increments (seq_cst RMW), THEN checks
  //                        stopping_: if set it backs out and rejects; if
  //                        clear it pushes and decrements (seq_cst RMW).
  //   A dispatcher exits only when stopping_ && active_submitters_ == 0 &&
  //   its ring is empty, in that read order.  Reading 0 from the seq_cst
  //   decrement synchronizes-with it, so every counted submitter's push
  //   happens-before the final emptiness check — a request is either
  //   observed by the exit check or its submitter saw stopping_ and
  //   rejected.  No admitted request is ever stranded.  (Seq_cst on both
  //   sides is what closes the store/load race the classic Dekker pattern
  //   needs; acquire/release alone would not.)
  //
  //   pending_             admitted-but-unanswered request count, seq_cst.
  //                        Incremented by the submitter BEFORE try_push (so
  //                        a dispatcher finishing the request first can
  //                        never underflow it), decremented by the
  //                        dispatcher after the futures are satisfied, and
  //                        backed out by the submitter on a shed.  drain()
  //                        waits on pending_ == 0 via drain_bell_.
  //
  // Doorbells: util::Doorbell documents its own contract; all dispatcher
  // waits are timed by kIdleWait (controller_server.cpp), so no lost wakeup
  // can hang.
  // -------------------------------------------------------------------------

  struct Request {
    la::Vec state;
    bool to_fallback = false;
    std::promise<la::Vec> result;
    std::chrono::steady_clock::time_point accepted_at{};
  };

  /// One dispatcher thread and the ring it alone pops.
  struct Dispatcher {
    explicit Dispatcher(std::size_t capacity) : queue(capacity) {}
    MpmcQueue<Request> queue;
    util::Doorbell bell;
    std::thread thread;
  };

  // The controller fields (primary/fallback/monitor) are immutable after
  // register_controller publishes the Entry under registry_mutex_; entries
  // are never erased and unique_ptr gives them a stable address, so
  // references handed out by find_entry stay valid without the lock.  The
  // Counter pointers alias MetricsRegistry entries (stable for the
  // registry's lifetime), so each increment IS the published metric.
  struct Entry {
    std::shared_ptr<const ctrl::NnController> primary;
    ctrl::ControllerPtr fallback;
    SafetyMonitor monitor;
    std::vector<std::unique_ptr<Dispatcher>> dispatchers;
    // Round-robin home-ring cursor; relaxed — it only spreads load, and no
    // correctness property depends on its ordering.
    std::atomic<std::uint64_t> next_ring{0};
    Counter* primary_count = nullptr;
    Counter* fallback_count = nullptr;
    Counter* batch_count = nullptr;
    Counter* accepted = nullptr;
    Counter* shed = nullptr;
    Counter* rejected = nullptr;
    std::atomic<std::uint64_t> max_batch_rows{0};
    LatencyHistogram* latency = nullptr;
  };

  [[nodiscard]] Entry& find_entry(const std::string& name) const
      COCKTAIL_EXCLUDES(registry_mutex_);
  static void execute_batch(Entry& entry, std::vector<Request>& batch);
  void dispatch_loop(Entry& entry, Dispatcher& self);

  ServeConfig config_;
  std::shared_ptr<MetricsRegistry> metrics_;

  // registry_mutex_ covers the name -> Entry map and the dispatcher
  // lifecycle (register spawns and stop() joins under it).  The submit fast
  // path holds NO lock between the active_submitters_ increment and
  // decrement, so stop() joining under the lock cannot deadlock with
  // submitters.
  mutable util::Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_
      COCKTAIL_GUARDED_BY(registry_mutex_);

  // Shutdown/drain gate — see the memory-order audit above.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> active_submitters_{0};
  std::atomic<std::uint64_t> pending_{0};
  util::Doorbell drain_bell_;
};

}  // namespace cocktail::serve
