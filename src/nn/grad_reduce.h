// Deterministic parallel accumulation of per-sample gradient work.
//
// Every SGD-style loop in the library (robust distillation, the PPO
// surrogate/value passes, the DDPG critic/actor passes) has the same shape:
// a minibatch of independent per-sample forward/backward contributions summed
// into one parameter-shaped accumulator.  This helper runs that sum on the
// util::chunked_reduce tree — fixed contiguous chunks, each folded in index
// order into its own buffer, buffers merged in increasing chunk order — so
// the bits are identical for any worker count, including the serial path.
// The body receives a whole chunk [begin, end), so a trainer can run it as
// one row tile (nn::Mlp::forward_tile / backward_tile), whose per-element
// accumulation order is the index order the tree requires.
//
// The per-chunk buffers are allocated once (sized for the largest minibatch)
// and reused across reduce() calls: the hot loop does no per-minibatch
// allocation, and reusing buffers cannot change results because every chunk
// is zeroed before it accumulates.
//
// Thread-safety by disjointness (why this type carries no mutex and no
// COCKTAIL_GUARDED_BY): during reduce(), worker w touches exactly the
// chunks_[c] entries that run_chunks hands it, and no chunk is handed to
// two workers; the merge into total_ runs after the pool barrier, on the
// calling thread only.  The reducer itself must not be shared across
// concurrent reduce() calls — each trainer owns one.  This header is part
// of the sanctioned reduction substrate, so tools/lint_determinism.py
// exempts it from the raw-dispatch/FP-accumulation rules it enforces on
// the rest of src/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace cocktail::nn {

/// Reusable fixed-tree reduction over per-sample accumulators.  `Acc` must
/// provide `zero()` and `axpy(double, const Acc&)` (nn::Gradients does;
/// trainers compose structs of Gradients/la::Vec with the same interface).
/// The grain is part of the reduction tree: changing it legitimately changes
/// low-order bits, so it must stay fixed for reproducibility.
template <class Acc>
class ChunkedGradReducer {
 public:
  /// `max_count` is the largest sample count any reduce() call will see
  /// (the minibatch size); `make` builds one zero-shaped accumulator.
  template <class Make>
  ChunkedGradReducer(std::size_t max_count, std::size_t grain, Make&& make)
      : grain_(std::max<std::size_t>(grain, 1)), total_(make()) {
    const std::size_t capacity = (max_count + grain_ - 1) / grain_;
    chunks_.reserve(capacity);
    for (std::size_t c = 0; c < capacity; ++c) chunks_.push_back(make());
  }

  /// Calls body(acc, begin, end) once per fixed chunk [begin, end) of
  /// [0, count) on `pool` (nullptr = serial, identical tree) and returns the
  /// merged total, valid until the next reduce() call.  `body` must fold
  /// the chunk's indices into the zeroed `acc` in increasing index order,
  /// only read shared state, and write nothing but `acc` and its own
  /// thread's scratch.
  template <class Body>
  Acc& reduce(util::ThreadPool* pool, std::size_t count, const Body& body) {
    const std::size_t chunks = (count + grain_ - 1) / grain_;
    if (chunks > chunks_.size())
      throw std::invalid_argument(
          "ChunkedGradReducer::reduce: count exceeds max_count");
    util::run_chunks(pool, chunks, [&](std::size_t c) {
      Acc& acc = chunks_[c];
      acc.zero();
      body(acc, c * grain_, std::min(count, (c + 1) * grain_));
    });
    total_.zero();
    for (std::size_t c = 0; c < chunks; ++c) total_.axpy(1.0, chunks_[c]);
    return total_;
  }

  [[nodiscard]] std::size_t grain() const noexcept { return grain_; }

 private:
  std::size_t grain_;
  std::vector<Acc> chunks_;
  Acc total_;
};

}  // namespace cocktail::nn
