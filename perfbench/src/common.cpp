#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "control/nn_controller.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

void write_json_string(std::FILE* out, const std::string& text) {
  std::fputc('"', out);
  for (const char c : text) {
    if (c == '\n') {
      std::fputs("\\n", out);
      continue;
    }
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

namespace {

void print_escaped(const std::string& text) { write_json_string(stdout, text); }

void print_metrics(const std::map<std::string, Metric>& metrics) {
  std::putchar('{');
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) std::fputs(", ", stdout);
    first = false;
    print_escaped(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    print_escaped(metric.unit);
    std::putchar('}');
  }
  std::putchar('}');
}

void print_strings(const std::map<std::string, std::string>& values) {
  std::putchar('{');
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) std::fputs(", ", stdout);
    first = false;
    print_escaped(name);
    std::fputs(": ", stdout);
    print_escaped(value);
  }
  std::putchar('}');
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  checks(1, ok ? 0 : 1, what);
}

void Report::checks(long count, long failed_count, const std::string& what) {
  attempted += count;
  failed += failed_count;
  if (failed_count > 0)
    failures.push_back(what + " (" + std::to_string(failed_count) + " of " +
                       std::to_string(count) + " failed)");
}

void Report::exact_value(const std::string& name, double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  exact[name] = text;
}

void Report::print_json() const {
  std::fputs("{\"end_to_end\": ", stdout);
  print_metrics(end_to_end);
  std::fputs(", \"per_layer\": ", stdout);
  print_metrics(per_layer);
  std::fputs(", \"exact\": ", stdout);
  print_strings(exact);
  std::fputs(", \"info\": ", stdout);
  print_strings(info);
  std::printf(", \"ready_ns\": %lld, \"attempted\": %ld, \"failed\": %ld, "
              "\"failures\": [",
              static_cast<long long>(ready_ns), attempted, failed);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) std::fputs(", ", stdout);
    print_escaped(failures[i]);
  }
  std::fputs("]}\n", stdout);
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB.
  return 0.0;
}

std::string network_digest(const cocktail::ctrl::Controller& c) {
  const auto* nn = dynamic_cast<const cocktail::ctrl::NnController*>(&c);
  if (nn == nullptr) return "none";
  std::ostringstream bytes;
  nn->net().save(bytes);
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64.
  for (const char ch : bytes.str()) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  for (const double scale : nn->out_scale()) {
    const auto* p = reinterpret_cast<const unsigned char*>(&scale);
    for (std::size_t i = 0; i < sizeof(double); ++i) {
      hash ^= p[i];
      hash *= 1099511628211ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, hash);
  return text;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double pool_workers() {
  return static_cast<double>(cocktail::util::ThreadPool::shared().size());
}

}  // namespace perfbench
