// Benchmark-side tracing: RAII spans opened by the benchmark's own code
// around each public library call it makes, kept in per-thread memory
// buffers and written out once, at exit, as Chrome trace-event JSON.
//
// Spans are recorded only when tracing is switched on (--trace 1); with
// tracing off a Span costs one branch on a global flag.  A span records its
// name, thread, parent (the span open on the same thread when it started),
// steady-clock start/end and process CPU time, from which the per-layer
// wall / CPU times are derived.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();
/// Process-wide CPU time in nanoseconds (all threads).
[[nodiscard]] std::int64_t process_cpu_ns();

struct SpanStats {
  std::uint64_t count = 0;
  double wall_s = 0.0;  ///< summed span durations.
  double cpu_s = 0.0;   ///< summed process CPU time.
};

namespace trace {

/// Switches recording on for the rest of the process.  Call before any
/// span opens.
void enable();
[[nodiscard]] bool enabled();

/// Per-name aggregate over every span recorded so far, in name order.
[[nodiscard]] std::map<std::string, SpanStats> summary();

/// Number of spans recorded so far.
[[nodiscard]] std::uint64_t span_count();

/// Writes every recorded span as Chrome trace-event JSON (viewable in
/// chrome://tracing or the Perfetto UI).  Returns false if the file could
/// not be written.
bool write_chrome_json(const std::string& path);

}  // namespace trace

/// One traced interval.  `name` must be a string literal (spans store the
/// pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  std::int64_t start_ns_ = 0;
  std::int64_t start_cpu_ns_ = 0;
};

}  // namespace perfbench
