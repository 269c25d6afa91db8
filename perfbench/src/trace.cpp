#include "trace.h"

#include "common.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name = nullptr;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int64_t cpu_ns = 0;  ///< process CPU consumed.
};

/// One thread's spans.  Only its owning thread writes it; readers run after
/// every recording thread has been joined.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Record> records;
  std::vector<std::int32_t> open;  ///< indices of the spans still open.
};

/// Chrome-trace events written per span name; the summary covers all spans.
constexpr std::uint64_t kMaxEventsPerName = 20000;

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& this_thread_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& buffers = registry();
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffers.back()->tid = static_cast<std::uint32_t>(buffers.size());
    t_buffer = buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace trace {

void enable() { g_enabled.store(true, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::map<std::string, SpanStats> summary() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::map<std::string, SpanStats> out;
  for (const auto& buffer : registry()) {
    for (const Record& r : buffer->records) {
      if (r.end_ns < 0) continue;
      SpanStats& stats = out[r.name];
      ++stats.count;
      stats.wall_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      stats.cpu_s += static_cast<double>(r.cpu_ns) * 1e-9;
    }
  }
  return out;
}

std::uint64_t span_count() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t n = 0;
  for (const auto& buffer : registry()) n += buffer->records.size();
  return n;
}

bool write_chrome_json(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = -1;
  for (const auto& buffer : registry())
    for (const Record& r : buffer->records)
      if (origin < 0 || r.start_ns < origin) origin = r.start_ns;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
  bool first = true;
  std::map<const char*, std::uint64_t> written;
  for (const auto& buffer : registry()) {
    for (std::size_t i = 0; i < buffer->records.size(); ++i) {
      const Record& r = buffer->records[i];
      if (r.end_ns < 0 || ++written[r.name] > kMaxEventsPerName) continue;
      std::fputs(first ? "  {\"name\": " : ",\n  {\"name\": ", out);
      first = false;
      write_json_string(out, r.name);
      std::fprintf(out,
                   ", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"cpu_ms\": %.3f}}",
                   buffer->tid, static_cast<double>(r.start_ns - origin) * 1e-3,
                   static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                   r.parent, static_cast<double>(r.cpu_ns) * 1e-6);
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace trace

Span::Span(const char* name) : name_(name), active_(trace::enabled()) {
  if (!active_) return;
  ThreadBuffer& buffer = this_thread_buffer();
  Record record;
  record.name = name_;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.open.push_back(static_cast<std::int32_t>(buffer.records.size()));
  buffer.records.push_back(record);
  start_cpu_ns_ = process_cpu_ns();
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = this_thread_buffer();
  Record& record = buffer.records[static_cast<std::size_t>(buffer.open.back())];
  buffer.open.pop_back();
  record.start_ns = start_ns_;
  record.end_ns = end;
  record.cpu_ns = process_cpu_ns() - start_cpu_ns_;
}

}  // namespace perfbench
