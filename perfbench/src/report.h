// Metric catalog and the result line. The catalog is the single list of
// metric names and units the benchmark reports; BENCHMARK.json at the
// repository root carries the same names and units (the self-tests check
// that they agree). Every workload reports every metric of the catalog
// that matches its mode: end-to-end metrics with tracing off, per-layer
// metrics with tracing on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Layers whose self-time share the traced run reports (as
/// "trace.self_share.<layer>"). Spans recorded under other names count
/// toward the total but are not reported.
const std::vector<std::string>& traced_layers();

using Metrics = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The last line of the benchmark's output. Throws std::runtime_error when
/// a metric of `catalog` is missing from `values` or is not finite —
/// a result that does not name every metric is never printed.
std::string result_line(const Outcome& outcome, const Metrics& values,
                        const std::vector<MetricDef>& catalog);

}  // namespace perfbench
