// Sample statistics for the benchmark: percentiles from raw samples (never
// from bucketed histograms), the tail-percentile rule, the seeded Poisson
// arrival schedule of the open-loop generator, and score comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A tail percentile chosen by the reporting rule: p99 when at least
/// `min_beyond` samples lie beyond it, otherwise the highest whole
/// percentile that has that many samples beyond it. With fewer than
/// 2 * min_beyond samples no percentile at or above p50 qualifies; the
/// median is then reported with `resolved` = false.
struct Tail {
  int percent = 50;
  double value = 0.0;
  size_t n = 0;
  bool resolved = false;
};
Tail tail_percentile(const std::vector<double>& samples, size_t min_beyond = 10);

/// Due times (seconds from phase start, ascending) of a Poisson arrival
/// process at `rate_per_s` over [0, duration_s). A pure function of its
/// arguments: the same seed always yields the same schedule.
std::vector<double> poisson_schedule(uint64_t seed, double rate_per_s, double duration_s);

/// Number of positions where `got` differs from `want` by more than `tol`
/// (tol == 0 demands bitwise equality; a length mismatch counts every
/// missing or extra position).
size_t count_mismatches(const std::vector<float>& got, const std::vector<float>& want, float tol);

}  // namespace perfbench
