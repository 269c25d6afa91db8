#include "util/thread_pool.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace cocktail::util {
namespace {

/// Largest COCKTAIL_THREADS value parse_thread_count accepts.
constexpr int kMaxPoolThreads = 1024;

std::size_t resolve_thread_count(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Pool whose worker_loop is running on this thread (nullptr on non-worker
/// threads) — the nested-submission detector.  One level is enough: a
/// worker thread belongs to exactly one pool.
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

int parse_thread_count(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  const std::string_view text(value);
  int parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size() ||
      parsed < 1 || parsed > kMaxPoolThreads)
    throw std::invalid_argument(
        "COCKTAIL_THREADS=\"" + std::string(text) +
        "\": expected a decimal integer in [1, " +
        std::to_string(kMaxPoolThreads) + "]");
  return parsed;
}

ThreadPool::ThreadPool(int num_threads) {
  const std::size_t count = resolve_thread_count(num_threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::inside_worker() const noexcept {
  return tl_worker_pool == this;
}

void ThreadPool::enqueue(std::function<void()> job) {
  // A worker enqueueing into its own pool and waiting on the result is the
  // classic self-deadlock (ROADMAP's "nested-batch" hazard): with every
  // worker blocked the queue never drains.  Reject it at the source; the
  // nested-aware paths (parallel_for, run_chunks) never reach here.
  if (inside_worker())
    throw std::logic_error(
        "ThreadPool: nested submission from a pool worker (use parallel_for, "
        "which runs nested batches inline, or submit to a different pool)");
  {
    MutexLock lock(mutex_);
    if (stopping_)
      throw std::runtime_error("ThreadPool: submit after shutdown");
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mutex_);
      cv_.wait(lock, [this]() COCKTAIL_REQUIRES(mutex_) {
        return stopping_ || !jobs_.empty();
      });
      if (jobs_.empty()) return;  // stopping_ and drained.
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f) {
  if (n == 0) return;

  // Nested batch from one of our own workers: run it inline.  The worker
  // would have driven part of the batch anyway and cannot safely enqueue
  // into its own queue (see enqueue); results are identical because index
  // order never affects them (parallel_for bodies are independent by
  // contract).
  if (inside_worker()) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }

  // Shared by the caller and every enqueued driver; shared_ptr keeps it
  // alive for drivers that wake up after the caller already returned.
  struct State {
    explicit State(std::size_t n) : total(n) {}
    const std::size_t total;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    Mutex m;
    CondVar cv;
    std::exception_ptr error COCKTAIL_GUARDED_BY(m);  // first failure.
  };
  auto state = std::make_shared<State>(n);

  // Marks k indices finished (run or abandoned); wakes the caller on the
  // last one.  `done` is a seq_cst atomic: taking m here only pairs the
  // notify with the caller's predicate re-check, closing the classic
  // lost-wakeup window (pred false -> increment -> notify -> caller
  // sleeps).  With the lock held, the notify cannot land between the
  // caller's pred check and its sleep.
  auto complete = [state](std::size_t k) {
    if (state->done.fetch_add(k) + k == state->total) {
      MutexLock lock(state->m);
      state->cv.notify_all();
    }
  };

  // Each driver claims indices until the batch is exhausted.  `f` stays
  // valid for the drivers' whole lifetime: the caller blocks below until
  // done == total, and after the final done increment no driver touches f.
  auto drive = [state, complete, &f] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1);
      if (i >= state->total) return;
      try {
        f(i);
      } catch (...) {
        {
          MutexLock lock(state->m);
          if (!state->error) state->error = std::current_exception();
        }
        // Stop handing out further indices.  Whatever was never claimed
        // must still be accounted as finished or the caller waits forever;
        // indices already claimed by other drivers are completed by them.
        const std::size_t old = state->next.exchange(state->total);
        if (old < state->total) complete(state->total - old);
      }
      complete(1);
    }
  };

  // One driver per worker (capped at the batch size); the caller drives too.
  const std::size_t drivers = std::min(workers_.size(), n);
  for (std::size_t i = 0; i < drivers; ++i) enqueue(drive);
  drive();

  MutexLock lock(state->m);
  // The predicate reads only the seq_cst `done` atomic, so it needs no
  // REQUIRES annotation; `error` below is guarded and the lock is held.
  state->cv.wait(lock, [&] { return state->done.load() == state->total; });
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::shared() {
  // Read once at shared-pool construction; the library never calls setenv,
  // so the getenv data race clang-tidy worries about cannot occur.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  static ThreadPool pool(parse_thread_count(std::getenv("COCKTAIL_THREADS")));
  return pool;
}

}  // namespace cocktail::util
