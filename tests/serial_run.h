// The serial reference of the worker-invariance tests and of bench_micro's
// `/serial` variants.  A call made on a shared-pool worker runs every
// parallel region of the library inline (ThreadPool::parallel_for's nested
// guard); the same call made from any other thread fans out over the shared
// pool's COCKTAIL_THREADS workers.  Comparing the two pins a result against
// the pool width, and ctest runs the invariance suites at the host's width
// and at COCKTAIL_THREADS=2 and 8.  Gtest-free, so bench_micro can use it.
#pragma once

#include <utility>

#include "util/thread_pool.h"

namespace cocktail::testutil {

/// Runs f() on a shared-pool worker, where every parallel region runs
/// serially, and returns its result (or rethrows its exception).
template <class F>
auto run_serially(F&& f) {
  return util::ThreadPool::shared().submit(std::forward<F>(f)).get();
}

/// The shared pool's worker count, for failure messages.
inline int pool_width() {
  return static_cast<int>(util::ThreadPool::shared().size());
}

}  // namespace cocktail::testutil
