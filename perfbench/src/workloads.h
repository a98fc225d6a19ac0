// The three workloads and what they share. Each one generates its inputs
// from the seed, sets the program up, drives it for the requested time,
// checks every output, and returns the end-to-end metrics (tracing off) or
// the per-layer metrics (tracing on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "serve/service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace df;  // the library under test

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  Outcome outcome;
  Metrics metrics;
  size_t workload_spans = 0;  // spans recorded while the load ran
  double load_seconds = 0.0;  // wall time of the measured load
};

RunResult run_screen(const RunArgs& args, Tracer& tracer);
RunResult run_serve(const RunArgs& args, Tracer& tracer);
RunResult run_campaign(const RunArgs& args, Tracer& tracer);

/// Entry point of the serve workload's server process (same binary,
/// started with --serve-child).
int serve_child_main(int argc, char** argv);

/// Print one "# "-prefixed detail line to stdout (never the last line).
void detail(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Print the median and tail of `ms` (with the percentile used and the
/// sample count) as a detail line; returns the tail.
Tail report_latency(const char* what, const std::vector<double>& ms);

/// Fold one round's service and pocket-cache counters into the run's.
void add_service_stats(serve::ScoringService& service, serve::ServiceStats* stats,
                       serve::PocketCache::Stats* cache);

/// Per-layer metrics every workload fills from its own service.
void service_layer_metrics(const serve::ServiceStats& stats,
                           const serve::PocketCache::Stats& cache, Metrics& out);

}  // namespace perfbench
