// Fixed-size worker pool for embarrassingly-parallel batches.
//
// Every parallel region of the library — rollout batches, the PPO/DDPG and
// distillation minibatch chunks, the reach and invariant sweeps — runs on
// the one process-wide pool, `ThreadPool::shared()`, whose width
// COCKTAIL_THREADS sets.  Results never depend on that width: each parallel
// unit owns its RNG stream and output slot, and reductions follow the
// fixed chunk tree below.  A call made from a pool worker runs each nested
// `parallel_for` inline, so running a call serially is a matter of where it
// is called from, not of a setting.  The pool is deliberately minimal: a
// mutex-guarded job queue, `submit` for one-off futures, and `parallel_for`
// for index batches in which the calling thread participates (so a pool is
// useful even on a single-core machine and `parallel_for` can never
// deadlock waiting on a saturated queue).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cocktail::util {

/// The shared pool's worker count from a COCKTAIL_THREADS value: null or
/// empty gives 0 (hardware concurrency, as ThreadPool's constructor reads
/// it); the whole string as a decimal integer in [1, 1024] gives that
/// integer.  Anything else — signs, spaces, trailing characters, 0, a value
/// past the range or past `int` — throws std::invalid_argument naming the
/// variable and the value.
[[nodiscard]] int parse_thread_count(const char* value);

class ThreadPool {
 public:
  /// `num_threads` <= 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excludes callers inside parallel_for).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a nullary callable; the future carries its result or
  /// exception.  Throws std::runtime_error after shutdown began and
  /// std::logic_error when called from one of this pool's own workers:
  /// a worker that submits and then waits on the future can deadlock the
  /// pool (every worker blocked on work only a worker could run), so
  /// nested submission is rejected at the source.  Submitting to a
  /// *different* pool remains allowed.
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs f(0), ..., f(n-1) across the workers plus the calling thread and
  /// blocks until every index completed.  Indices are claimed dynamically
  /// (atomic counter), so uneven per-index cost balances automatically.
  /// The first exception thrown by any f(i) is rethrown in the caller after
  /// in-flight indices drain; remaining unclaimed indices are skipped.
  /// Called from one of this pool's own workers (a nested batch), it
  /// degrades to running every index inline on that worker instead of
  /// enqueueing — same results, no queue interaction, no deadlock risk.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f);

  /// True when the calling thread is one of this pool's workers.  The
  /// nested-submission guard: submit() throws and parallel_for() runs
  /// inline when this holds.
  [[nodiscard]] bool inside_worker() const noexcept;

  /// Process-wide pool, lazily constructed, with
  /// parse_thread_count(getenv("COCKTAIL_THREADS")) workers.  A bad value
  /// throws std::invalid_argument from the first call (and again from each
  /// later one) instead of picking a width.
  static ThreadPool& shared();

 private:
  /// Takes mutex_ itself, so the caller must not hold it.
  void enqueue(std::function<void()> job) COCKTAIL_EXCLUDES(mutex_);
  void worker_loop();

  /// Immutable after the constructor returns (joined, never reassigned), so
  /// unguarded size() reads are safe.
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_ COCKTAIL_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar cv_;
  bool stopping_ COCKTAIL_GUARDED_BY(mutex_) = false;
};

// --- deterministic chunked reduction ---------------------------------------
//
// Floating-point addition is not associative, so a reduction whose shape
// depends on the worker count (or on dynamic scheduling) cannot be bitwise
// reproducible.  The recipe used by every parallel reduction in the library:
//   1. split [0, n) into fixed contiguous chunks of `grain` indices — the
//      chunking depends only on (n, grain), never on the worker count;
//   2. give each chunk its own accumulator from `make()` and fold the
//      chunk's indices into it in increasing order with `body(acc, i)`;
//   3. fold the chunk accumulators in increasing chunk order with
//      `merge(into, from)` on the calling thread.
// Only *which thread* runs a chunk varies with scheduling; the reduction
// tree is fixed, so the result is bitwise identical for any worker count,
// including the serial path (`pool == nullptr`), which runs the very same
// chunked tree inline.  Changing `grain` changes the tree and is the one
// knob that legitimately changes low-order bits.

/// The one dispatch rule shared by every chunked runner (chunked_reduce,
/// chunked_for, nn::ChunkedGradReducer): run chunk indices [0, chunks)
/// serially when there is no pool or only one chunk, on the pool otherwise.
/// Centralized so a future change (serial-fallback threshold, nested-pool
/// guard) cannot diverge between reducers.
template <class RunChunk>
void run_chunks(ThreadPool* pool, std::size_t chunks,
                const RunChunk& run_chunk) {
  if (pool == nullptr || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    pool->parallel_for(chunks, run_chunk);
  }
}

/// Runs the recipe above on `pool` (nullptr = serial, same tree).  `body`
/// must not touch shared mutable state; exceptions propagate per
/// ThreadPool::parallel_for semantics.
template <class Make, class Body, class Merge>
auto chunked_reduce(ThreadPool* pool, std::size_t n, std::size_t grain,
                    Make&& make, Body&& body, Merge&& merge)
    -> std::invoke_result_t<Make&> {
  using Acc = std::invoke_result_t<Make&>;
  if (grain == 0) grain = 1;
  if (n == 0) return make();
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<Acc> partial;
  partial.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) partial.push_back(make());
  run_chunks(pool, chunks, [&](std::size_t c) {
    Acc& acc = partial[c];
    const std::size_t hi = std::min(n, (c + 1) * grain);
    for (std::size_t i = c * grain; i < hi; ++i) body(acc, i);
  });
  Acc result = std::move(partial.front());
  for (std::size_t c = 1; c < chunks; ++c) merge(result, partial[c]);
  return result;
}

/// Runs body(i) for i in [0, n) in fixed contiguous chunks of `grain`
/// indices on `pool` (nullptr = serial, same loop).  For pre-passes whose
/// per-index work writes only its own output slot: with disjoint writes
/// there is nothing to reduce, so scheduling cannot affect results no
/// matter the worker count.
template <class Body>
void chunked_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const Body& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  run_chunks(pool, (n + grain - 1) / grain, [&](std::size_t c) {
    const std::size_t hi = std::min(n, (c + 1) * grain);
    for (std::size_t i = c * grain; i < hi; ++i) body(i);
  });
}

}  // namespace cocktail::util
