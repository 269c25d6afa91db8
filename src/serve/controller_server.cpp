#include "serve/controller_server.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace cocktail::serve {
namespace {

/// Idle-dispatcher doorbell timeout: the backstop poll period bounding the
/// cost of any theoretically missed wakeup (util::Doorbell).
constexpr std::chrono::microseconds kIdleWait{100};

// Monotonic running max, relaxed per the Entry memory-order audit: the slot
// is a standalone metric, so atomicity (no lost update between the load and
// the CAS — compare_exchange_weak reloads `seen` on failure and the loop
// re-checks `seen < value`) is all that is required; no ordering with other
// memory is implied or needed.
void bump_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Counts a refused request and resolves its promise with the reason.
void reject(Counter* tally, std::promise<la::Vec>& result,
            RejectReason reason) {
  tally->increment();
  result.set_exception(std::make_exception_ptr(RejectedError(reason)));
}

}  // namespace

ControllerServer::ControllerServer(ServeConfig config,
                                   std::shared_ptr<MetricsRegistry> metrics)
    : config_(config),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_shared<MetricsRegistry>()) {
  config_.max_batch = std::max<std::size_t>(config_.max_batch, 1);
  config_.num_dispatchers = std::max<std::size_t>(config_.num_dispatchers, 1);
  config_.queue_capacity = std::max<std::size_t>(config_.queue_capacity, 1);
}

ControllerServer::~ControllerServer() { stop(); }

void ControllerServer::register_controller(
    const std::string& name, std::shared_ptr<const ctrl::NnController> primary,
    ctrl::ControllerPtr fallback, SafetyMonitor monitor) {
  if (primary == nullptr || fallback == nullptr)
    throw std::invalid_argument(
        "ControllerServer: a served controller needs both a primary network "
        "and a fallback expert");
  if (fallback->state_dim() != primary->state_dim() ||
      fallback->control_dim() != primary->control_dim())
    throw std::invalid_argument(
        "ControllerServer: fallback dimensions do not match the primary "
        "network for '" + name + "'");
  auto entry = std::make_unique<Entry>();
  entry->primary = std::move(primary);
  entry->fallback = std::move(fallback);
  entry->monitor = std::move(monitor);
  const std::string prefix = "serve." + name;
  entry->primary_count = metrics_->counter(prefix + ".primary");
  entry->fallback_count = metrics_->counter(prefix + ".fallback");
  entry->batch_count = metrics_->counter(prefix + ".batches");
  entry->accepted = metrics_->counter(prefix + ".accepted");
  entry->shed = metrics_->counter(prefix + ".shed");
  entry->rejected = metrics_->counter(prefix + ".rejected");
  entry->latency = metrics_->histogram(prefix + ".latency_us");
  entry->dispatchers.reserve(config_.num_dispatchers);
  for (std::size_t d = 0; d < config_.num_dispatchers; ++d)
    entry->dispatchers.push_back(
        std::make_unique<Dispatcher>(config_.queue_capacity));

  util::MutexLock lock(registry_mutex_);
  if (stopping_.load())
    throw std::runtime_error(
        "ControllerServer::register_controller after stop()");
  const auto [it, inserted] = entries_.emplace(name, std::move(entry));
  if (!inserted)
    throw std::invalid_argument("ControllerServer: '" + name +
                                "' is already registered");
  // Spawn the dispatchers under registry_mutex_ so stop() — which flips
  // stopping_ and joins under the same lock — either runs before this
  // registration (we threw above) or after the threads exist and will be
  // joined.  Dispatchers never take registry_mutex_, so holding it here
  // cannot deadlock with them.
  Entry* raw = it->second.get();
  for (auto& dispatcher : raw->dispatchers) {
    Dispatcher* self = dispatcher.get();
    self->thread =
        std::thread([this, raw, self] { dispatch_loop(*raw, *self); });
  }
}

ControllerServer::Entry& ControllerServer::find_entry(
    const std::string& name) const {
  util::MutexLock lock(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument("ControllerServer: unknown controller '" +
                                name + "'");
  return *it->second;
}

std::future<la::Vec> ControllerServer::submit(const std::string& name,
                                              la::Vec state) {
  Entry& entry = find_entry(name);
  if (state.size() != entry.primary->state_dim())
    throw std::invalid_argument(
        "ControllerServer::submit: state dimension mismatch for '" + name +
        "'");
  Request request;
  // Routing is decided per request at submission: the certificate either
  // covers this exact state or the fallback answers.  Batch composition can
  // never influence it.
  request.to_fallback = !entry.monitor.certified(state);
  request.state = std::move(state);
  std::future<la::Vec> future = request.result.get_future();

  // Admission gate — see the shutdown-handshake audit in the header.  No
  // lock is held anywhere in this section.
  active_submitters_.fetch_add(1);
  if (stopping_.load()) {
    active_submitters_.fetch_sub(1);
    reject(entry.rejected, request.result, RejectReason::kShutdown);
    return future;
  }
  request.accepted_at = std::chrono::steady_clock::now();
  const std::size_t rings = entry.dispatchers.size();
  const std::size_t home = static_cast<std::size_t>(entry.next_ring.fetch_add(
                               1, std::memory_order_relaxed)) %
                           rings;
  // pending_ rises BEFORE the push so the dispatcher's decrement can never
  // run first and underflow it; backed out below on a shed.
  pending_.fetch_add(1);
  for (std::size_t k = 0; k < rings; ++k) {
    Dispatcher& dispatcher = *entry.dispatchers[(home + k) % rings];
    if (dispatcher.queue.try_push(std::move(request))) {
      entry.accepted->increment();
      active_submitters_.fetch_sub(1);
      dispatcher.bell.ring();
      return future;
    }
  }
  // Every ring is full: shed.  A failed try_push leaves the request
  // untouched and unpublished, so back out the pending count, leave the
  // gate, and resolve the future here.
  pending_.fetch_sub(1);
  active_submitters_.fetch_sub(1);
  reject(entry.shed, request.result, RejectReason::kQueueFull);
  return future;
}

la::Vec ControllerServer::act_reference(const std::string& name,
                                        const la::Vec& state) const {
  const Entry& entry = find_entry(name);
  if (state.size() != entry.primary->state_dim())
    throw std::invalid_argument(
        "ControllerServer::act_reference: state dimension mismatch for '" +
        name + "'");
  if (!entry.monitor.certified(state)) return entry.fallback->act(state);
  return entry.primary->act(state);
}

ServeCounters ControllerServer::counters(const std::string& name) const {
  const Entry& entry = find_entry(name);
  ServeCounters out;
  out.primary = entry.primary_count->value();
  out.fallback = entry.fallback_count->value();
  out.batches = entry.batch_count->value();
  out.max_batch_rows = entry.max_batch_rows.load(std::memory_order_relaxed);
  out.accepted = entry.accepted->value();
  out.shed = entry.shed->value();
  out.rejected = entry.rejected->value();
  return out;
}

void ControllerServer::execute_batch(Entry& entry,
                                     std::vector<Request>& batch) {
  // Certified requests form one GEMM batch in arrival order; fallback
  // requests run one by one (a fallback is an arbitrary Controller with no
  // batch path).  The state is dead once the batch is assembled: move,
  // don't copy.
  std::vector<Request*> rows;
  std::vector<la::Vec> states;
  rows.reserve(batch.size());
  states.reserve(batch.size());
  for (Request& request : batch) {
    if (request.to_fallback) continue;
    rows.push_back(&request);
    states.push_back(std::move(request.state));
  }

  // An all-fallback batch makes no act_batch call and counts no batch.
  if (!rows.empty()) {
    entry.primary_count->add(rows.size());
    entry.batch_count->increment();
    bump_max(entry.max_batch_rows, rows.size());
    try {
      std::vector<la::Vec> actions = entry.primary->act_batch(states);
      for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i]->result.set_value(std::move(actions[i]));
    } catch (...) {
      for (Request* row : rows)
        row->result.set_exception(std::current_exception());
    }
  }

  entry.fallback_count->add(batch.size() - rows.size());
  for (Request& request : batch) {
    if (!request.to_fallback) continue;
    try {
      request.result.set_value(entry.fallback->act(request.state));
    } catch (...) {
      request.result.set_exception(std::current_exception());
    }
  }
}

void ControllerServer::dispatch_loop(Entry& entry, Dispatcher& self) {
  const auto fill = [&](std::vector<Request>& batch) {
    Request request;
    while (batch.size() < config_.max_batch && self.queue.try_pop(request))
      batch.push_back(std::move(request));
  };
  const auto has_work = [&] {
    return stopping_.load() || !self.queue.empty();
  };

  std::vector<Request> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    batch.clear();
    fill(batch);
    if (batch.empty()) {
      // Exit-check read order matters (shutdown-handshake audit in the
      // header): stopping_ first, then active_submitters_ == 0, then a
      // final emptiness check that is now exact because all producers are
      // quiesced and this thread is the ring's sole consumer.
      if (stopping_.load() && active_submitters_.load() == 0 &&
          self.queue.empty())
        return;
      static_cast<void>(self.bell.wait_for(kIdleWait, has_work));
      continue;
    }
    if (!stopping_.load() && config_.max_wait.count() > 0 &&
        batch.size() < config_.max_batch) {
      // Linger briefly: bounded waits buy a fuller GEMM.  A full batch or
      // shutdown cuts the linger short; the deadline bounds it.
      const auto deadline = std::chrono::steady_clock::now() + config_.max_wait;
      while (batch.size() < config_.max_batch && !stopping_.load()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto nap = std::min<std::chrono::steady_clock::duration>(
            deadline - now, kIdleWait);
        static_cast<void>(self.bell.wait_for(nap, has_work));
        fill(batch);
      }
    }
    execute_batch(entry, batch);
    const auto done = std::chrono::steady_clock::now();
    for (const Request& request : batch)
      entry.latency->record_us(elapsed_us(request.accepted_at, done));
    // The futures above are all satisfied; release the pending count and
    // wake drain() if this was the last outstanding work anywhere.
    if (pending_.fetch_sub(batch.size()) == batch.size()) drain_bell_.ring();
  }
}

void ControllerServer::drain() {
  // Timed waits only (Doorbell contract): a wakeup racing the last
  // decrement costs at most one poll period, never a hang.
  while (!drain_bell_.wait_for(std::chrono::milliseconds(1),
                               [&] { return pending_.load() == 0; })) {
  }
}

void ControllerServer::stop() {
  util::MutexLock lock(registry_mutex_);
  stopping_.store(true);
  for (auto& [name, entry] : entries_) {
    for (auto& dispatcher : entry->dispatchers) dispatcher->bell.ring();
  }
  for (auto& [name, entry] : entries_) {
    for (auto& dispatcher : entry->dispatchers) {
      if (dispatcher->thread.joinable()) dispatcher->thread.join();
    }
  }
}

}  // namespace cocktail::serve
