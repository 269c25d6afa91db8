// Uniform-sampling experience replay (Algorithm 1 line 1: replay memory D).
//
// Transitions are stored as flat rows [s | a | r | s' | done] in one
// contiguous buffer — no heap vector per transition — so a sampled row's
// [s | a] prefix copies straight into a critic input tile.
#pragma once

#include <cstddef>
#include <vector>

#include "la/vec.h"
#include "util/rng.h"

namespace cocktail::rl {

/// One transition to store (the buffer keeps it as a flat row).
struct Transition {
  la::Vec state;
  la::Vec action;
  double reward = 0.0;
  la::Vec next_state;
  bool terminal = false;
};

class ReplayBuffer {
 public:
  /// Throws std::invalid_argument when capacity or state_dim is zero.
  ReplayBuffer(std::size_t capacity, std::size_t state_dim,
               std::size_t action_dim);

  /// Appends a transition, evicting the oldest once at capacity.  Throws
  /// std::invalid_argument when a vector's length differs from the
  /// buffer's dimensions.
  void add(const Transition& transition);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Uniform sample with replacement: `batch` row indices, one
  /// Rng::uniform_index(size()) draw each, in order.
  [[nodiscard]] std::vector<std::size_t> sample(std::size_t batch,
                                                util::Rng& rng) const;

  /// Row layout: [s | a | r | s' | done], row_width() doubles; done is 0
  /// or 1.  row(i) is valid for i < size() until the next add().
  [[nodiscard]] std::size_t row_width() const noexcept {
    return 2 * state_dim_ + action_dim_ + 2;
  }
  [[nodiscard]] const double* row(std::size_t i) const {
    return rows_.data() + i * row_width();
  }
  [[nodiscard]] std::size_t reward_offset() const noexcept {
    return state_dim_ + action_dim_;
  }
  [[nodiscard]] std::size_t next_state_offset() const noexcept {
    return reward_offset() + 1;
  }
  [[nodiscard]] std::size_t terminal_offset() const noexcept {
    return next_state_offset() + state_dim_;
  }

  void clear();

 private:
  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t action_dim_;
  std::size_t size_ = 0;
  std::size_t next_ = 0;  ///< ring cursor.
  std::vector<double> rows_;
};

}  // namespace cocktail::rl
