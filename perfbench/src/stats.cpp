#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

Tail tail_percentile(const std::vector<double>& samples, size_t min_beyond) {
  Tail t;
  t.n = samples.size();
  if (t.n == 0) return t;
  // Largest whole percent P with n * (100 - P) / 100 >= min_beyond.
  const size_t need = (100 * min_beyond + t.n - 1) / t.n;  // ceil(100 * min_beyond / n)
  const int p = 100 - static_cast<int>(std::min<size_t>(need, 100));
  t.percent = std::min(99, p);
  t.resolved = t.percent >= 50;
  if (!t.resolved) t.percent = 50;
  t.value = quantile(samples, t.percent / 100.0);
  return t;
}

std::vector<double> poisson_schedule(uint64_t seed, double rate_per_s, double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  std::mt19937_64 gen(seed);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap from a 53-bit uniform in [0, 1): the
    // distribution object is implementation-defined, this is not.
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

size_t count_mismatches(const std::vector<float>& got, const std::vector<float>& want, float tol) {
  const size_t n = std::min(got.size(), want.size());
  size_t bad = std::max(got.size(), want.size()) - n;
  for (size_t i = 0; i < n; ++i) {
    if (tol == 0.0f) {
      if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) ++bad;
    } else if (!(std::fabs(got[i] - want[i]) <= tol)) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench
