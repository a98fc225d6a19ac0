// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark's own code, around calls into the library's public
// functions; each has a name (the layer), start, end, parent span and the
// id of the request or work unit it belongs to. Nothing is written until
// the run ends. With tracing off every call is a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  uint64_t trace_id = 0;  // shared by every span of one request / unit
  uint32_t id = 0;        // 1-based; 0 = none
  uint32_t parent = 0;
  double t0 = 0.0;        // seconds since the tracer's epoch
  double t1 = -1.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Open a span; returns its id (0 when tracing is off).
  uint32_t begin(const std::string& name, uint64_t trace_id, uint32_t parent = 0);
  void end(uint32_t id);

  std::vector<Span> spans() const;
  size_t size() const;
  /// Per layer name: total span time minus the part of each span's interval
  /// covered by its children (seconds), over the spans recorded after the
  /// first `skip` ones.
  std::map<std::string, double> self_seconds(size_t skip = 0) const;
  /// Measured cost of one begin/end pair on the running host (seconds).
  static double record_cost_seconds();
  /// Write every span as one JSON object per line after `header_line`.
  void write_jsonl(const std::string& path, const std::string& header_line) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; `parent` may be 0.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, uint64_t trace_id, uint32_t parent = 0)
      : tracer_(t), id_(t.begin(name, trace_id, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

/// Self-time shares: each layer's self time over the sum of all self times.
std::map<std::string, double> self_shares(const std::map<std::string, double>& self_s);

}  // namespace perfbench
