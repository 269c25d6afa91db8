// Bounded lock-free MPMC submission queue (Vyukov ring).
//
// The serving tier gives every dispatcher thread one of these queues: any
// number of submitter threads push requests, the owning dispatcher pops
// them into micro-batches, and a full ring is the admission controller's
// load-shedding signal (try_push returns false; the caller rejects the
// request with a reason instead of queueing unboundedly).
//
// This is the standard Dmitry Vyukov bounded MPMC algorithm: a power-of-two
// ring of cells, each carrying a sequence number, plus one push ticket and
// one pop ticket.  A producer claims a slot by CAS-incrementing the push
// ticket once the slot's sequence says it is free; a consumer symmetrically
// claims via the pop ticket once the sequence says the slot is full.  The
// queue is linearizable per operation and FIFO per producer (each producer's
// tickets are claimed in its program order).
//
// Memory-order contract (PR 7 policy: no locks, so the justification lives
// here at the declaration and the TSan CI entry checks it empirically):
//
//   cell.sequence   The ONLY publication edge.  A producer stores the
//                   payload into the cell and then store-releases
//                   sequence = ticket + 1; the consumer load-acquires the
//                   sequence before touching the payload, so the payload
//                   write happens-before the payload read.  The consumer's
//                   release store of sequence = ticket + capacity hands the
//                   empty slot back to the next-lap producer the same way.
//   push_/pop_ticket  fetch_add/CAS with relaxed ordering: tickets only
//                   allocate slot indices; they publish nothing.  All
//                   payload ordering rides on cell.sequence (above).
//   empty()/approx_size  Relaxed ticket reads: a monitoring snapshot that
//                   may be stale under concurrency.  It is exact only when
//                   the caller has externally quiesced one side — the
//                   dispatcher shutdown path reads it after the submitter
//                   gate in ControllerServer proves no producer is active,
//                   and it is the ring's sole consumer (see the
//                   shutdown-handshake audit in controller_server.h).
//
// No determinism burden: which requests share a queue (and hence a GEMM
// micro-batch) is scheduling-dependent by design, and the serving contract
// makes every answer bitwise independent of batch composition.  Nothing
// this queue reorders can reach a result.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>

namespace cocktail::serve {

template <typename T>
class MpmcQueue {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2): the
  /// ring mask requires it, and an admission bound is a soft knob — the
  /// exact rounded value is reported by capacity().  Throws
  /// std::invalid_argument when zero or when rounding would overflow.
  explicit MpmcQueue(std::size_t capacity) {
    if (capacity == 0)
      throw std::invalid_argument("MpmcQueue: capacity must be positive");
    std::size_t rounded = 2;
    while (rounded < capacity) {
      if (rounded > (static_cast<std::size_t>(1) << 62))
        throw std::invalid_argument("MpmcQueue: capacity overflows the ring");
      rounded <<= 1;
    }
    mask_ = rounded - 1;
    cells_ = std::make_unique<Cell[]>(rounded);
    for (std::size_t i = 0; i < rounded; ++i)
      cells_[i].sequence.store(i, std::memory_order_relaxed);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Enqueues by move.  Returns false — with `value` untouched — when the
  /// ring is full: the load-shedding signal.  Safe from any number of
  /// threads.
  [[nodiscard]] bool try_push(T&& value) {
    std::size_t ticket = push_ticket_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      if (seq == ticket) {
        if (push_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                               std::memory_order_relaxed))
          break;
        // CAS failure reloaded `ticket`; retry with the newer claim.
      } else if (seq < ticket) {
        // The slot one lap behind is still occupied: the ring is full.
        return false;
      } else {
        ticket = push_ticket_.load(std::memory_order_relaxed);
      }
    }
    Cell& cell = cells_[ticket & mask_];
    cell.value = std::move(value);
    cell.sequence.store(ticket + 1, std::memory_order_release);
    return true;
  }

  /// Dequeues into `out`.  Returns false when the ring is empty.  Safe from
  /// any number of threads (the serving tier uses one consumer per ring,
  /// but the algorithm does not require it).
  [[nodiscard]] bool try_pop(T& out) {
    std::size_t ticket = pop_ticket_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t seq = cell.sequence.load(std::memory_order_acquire);
      if (seq == ticket + 1) {
        if (pop_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                              std::memory_order_relaxed))
          break;
      } else if (seq < ticket + 1) {
        // The slot has not been published for this lap: the ring is empty.
        return false;
      } else {
        ticket = pop_ticket_.load(std::memory_order_relaxed);
      }
    }
    Cell& cell = cells_[ticket & mask_];
    out = std::move(cell.value);
    cell.sequence.store(ticket + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Monitoring snapshot of the queue depth; stale under concurrency (see
  /// the memory-order contract above).  Exact when one side is quiesced.
  [[nodiscard]] std::size_t approx_size() const noexcept {
    const std::size_t push = push_ticket_.load(std::memory_order_relaxed);
    const std::size_t pop = pop_ticket_.load(std::memory_order_relaxed);
    return push >= pop ? push - pop : 0;
  }

  [[nodiscard]] bool empty() const noexcept { return approx_size() == 0; }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  // The tickets live on their own cache lines so producer traffic
  // (push_ticket_) never false-shares with consumer traffic (pop_ticket_).
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> push_ticket_{0};
  alignas(64) std::atomic<std::size_t> pop_ticket_{0};
};

}  // namespace cocktail::serve
