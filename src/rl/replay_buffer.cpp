#include "rl/replay_buffer.h"

#include <algorithm>
#include <stdexcept>

namespace cocktail::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::size_t state_dim,
                           std::size_t action_dim)
    : capacity_(capacity), state_dim_(state_dim), action_dim_(action_dim) {
  if (capacity_ == 0)
    throw std::invalid_argument("ReplayBuffer: capacity must be positive");
  if (state_dim_ == 0)
    throw std::invalid_argument("ReplayBuffer: state_dim must be positive");
  // Reserved, not touched: pages become resident only as rows arrive.
  rows_.reserve(capacity_ * row_width());
}

void ReplayBuffer::add(const Transition& transition) {
  if (transition.state.size() != state_dim_ ||
      transition.next_state.size() != state_dim_ ||
      transition.action.size() != action_dim_)
    throw std::invalid_argument("ReplayBuffer::add: dimension mismatch");
  const std::size_t width = row_width();
  if (size_ < capacity_) {
    rows_.resize(rows_.size() + width);
    ++size_;
  }
  double* out = rows_.data() + next_ * width;
  out = std::copy(transition.state.begin(), transition.state.end(), out);
  out = std::copy(transition.action.begin(), transition.action.end(), out);
  *out++ = transition.reward;
  out = std::copy(transition.next_state.begin(), transition.next_state.end(),
                  out);
  *out = transition.terminal ? 1.0 : 0.0;
  next_ = (next_ + 1) % capacity_;
}

std::vector<std::size_t> ReplayBuffer::sample(std::size_t batch,
                                              util::Rng& rng) const {
  if (empty()) throw std::logic_error("ReplayBuffer::sample: buffer empty");
  std::vector<std::size_t> out;
  out.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i)
    out.push_back(rng.uniform_index(size_));
  return out;
}

void ReplayBuffer::clear() {
  rows_.clear();
  size_ = 0;
  next_ = 0;
}

}  // namespace cocktail::rl
