// Self-tests of the benchmark's own pieces: the percentile rule, the
// Poisson schedule, output verification, span self time, and the result
// line's metric names and units (checked against BENCHMARK.json).
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "fixture.h"
#include "report.h"
#include "serve/scorer.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_ROOT
#define PERFBENCH_ROOT "."
#endif

namespace perfbench {
namespace {

std::vector<double> ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted input
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  const Tail t = tail_percentile(ramp(1000));
  EXPECT_EQ(t.percent, 99);
  EXPECT_TRUE(t.resolved);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_NEAR(t.value, 1.0 + 0.99 * 999.0, 1e-9);
}

TEST(PercentileRule, FallsBackToTheHighestQualifyingPercentile) {
  EXPECT_EQ(tail_percentile(ramp(999)).percent, 98);  // 1% of 999 is < 10 samples
  EXPECT_EQ(tail_percentile(ramp(400)).percent, 97);
  EXPECT_EQ(tail_percentile(ramp(60)).percent, 83);
  EXPECT_EQ(tail_percentile(ramp(20)).percent, 50);
  for (size_t n : {20u, 60u, 400u, 999u, 1000u, 5000u}) {
    const Tail t = tail_percentile(ramp(n));
    const double beyond = static_cast<double>(n) * (100 - t.percent) / 100.0;
    EXPECT_GE(beyond, 10.0) << n;
    EXPECT_LE(t.percent, 99) << n;
  }
}

TEST(PercentileRule, TooFewSamplesReportTheMedianUnresolved) {
  const Tail t = tail_percentile(ramp(12));
  EXPECT_EQ(t.percent, 50);
  EXPECT_FALSE(t.resolved);
  EXPECT_DOUBLE_EQ(t.value, median(ramp(12)));
  EXPECT_EQ(tail_percentile({}).n, 0u);
}

TEST(PercentileRule, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = poisson_schedule(42, 150.0, 3.0);
  const std::vector<double> b = poisson_schedule(42, 150.0, 3.0);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_NE(poisson_schedule(43, 150.0, 3.0), a);
}

TEST(PoissonSchedule, AscendingWithinTheWindowAtTheRequestedRate) {
  const std::vector<double> due = poisson_schedule(7, 200.0, 50.0);
  for (size_t i = 1; i < due.size(); ++i) ASSERT_LT(due[i - 1], due[i]);
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 50.0);
  // 10000 expected arrivals: +-4% is over 4 standard deviations.
  EXPECT_NEAR(static_cast<double>(due.size()) / 50.0, 200.0, 8.0);
}

TEST(Verification, CatchesAPerturbedScore) {
  const std::vector<float> want = {1.0f, -2.5f, 7.25f};
  std::vector<float> got = want;
  EXPECT_EQ(count_mismatches(got, want, 0.0f), 0u);
  got[1] = std::nextafter(got[1], 0.0f);  // one ulp
  EXPECT_EQ(count_mismatches(got, want, 0.0f), 1u);
  EXPECT_EQ(count_mismatches(got, want, 1e-4f), 0u);
  got[2] += 1e-3f;
  EXPECT_EQ(count_mismatches(got, want, 1e-4f), 1u);
  got[0] = std::nanf("");
  EXPECT_EQ(count_mismatches(got, want, 1e-4f), 2u);
  EXPECT_EQ(count_mismatches({1.0f}, want, 0.0f), 2u);  // missing scores count
}

TEST(Verification, ReferenceScoresOfTheServedModelAreReproducible) {
  core::Rng rng(5);
  const std::vector<chem::Atom> pocket = make_receptor(256, rng);
  std::vector<serve::PoseInput> poses;
  for (int i = 0; i < 4; ++i) {
    poses.push_back(serve::PoseInput{pose_of(make_ligand(rng), {}, rng), &pocket, {}});
  }
  std::vector<const serve::PoseInput*> batch;
  for (const serve::PoseInput& p : poses) batch.push_back(&p);
  const std::string artifact = ::testing::TempDir() + "perfbench_test.dfca";
  write_artifact(artifact, batch);
  serve::ModelRegistry reg;
  register_scorer(reg, artifact);
  const std::vector<float> a = reg.make(kScorer)->score(batch);
  std::vector<float> b = reg.make(kScorer)->score(batch);
  EXPECT_EQ(count_mismatches(b, a, 0.0f), 0u);
  b[3] = std::nextafter(b[3], 1e9f);
  EXPECT_EQ(count_mismatches(b, a, 0.0f), 1u);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t(true);
  const uint32_t root = t.begin("root", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    ScopedSpan child(t, "child", 1, root);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  t.end(root);
  const std::map<std::string, double> self = t.self_seconds();
  EXPECT_GE(self.at("child"), 0.029);
  EXPECT_GE(self.at("root"), 0.019);
  EXPECT_LT(self.at("root"), self.at("child"));
  const std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
  EXPECT_NEAR(self_shares(self).at("child") + self_shares(self).at("root"), 1.0, 1e-12);
  EXPECT_EQ(self_shares(Tracer(true).self_seconds()).size(), 0u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer t(false);
  { ScopedSpan s(t, "x", 1); }
  EXPECT_EQ(t.size(), 0u);
}

Metrics all_of(const std::vector<MetricDef>& catalog) {
  Metrics m;
  for (const MetricDef& d : catalog) m[d.name] = 1.5;
  return m;
}

TEST(Output, NamesEveryMetricWithItsUnit) {
  for (const auto* catalog : {&end_to_end_metrics(), &per_layer_metrics()}) {
    Outcome o;
    o.attempted = 3;
    const std::string line = result_line(o, all_of(*catalog), *catalog);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {", 0),
              0u);
    for (const MetricDef& d : *catalog) {
      const std::string entry =
          "\"" + d.name + "\": {\"value\": 1.5, \"unit\": \"" + d.unit + "\"}";
      EXPECT_NE(line.find(entry), std::string::npos) << d.name;
    }
  }
}

TEST(Output, RefusesAResultWithAMissingOrNonFiniteMetric) {
  const std::vector<MetricDef>& catalog = end_to_end_metrics();
  Metrics m = all_of(catalog);
  m.erase("setup_s");
  EXPECT_THROW(result_line({}, m, catalog), std::runtime_error);
  m = all_of(catalog);
  m["poses_per_s"] = std::nan("");
  EXPECT_THROW(result_line({}, m, catalog), std::runtime_error);
}

TEST(Output, CatalogMatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  size_t names = 0;
  for (size_t pos = json.find("\"unit\""); pos != std::string::npos;
       pos = json.find("\"unit\"", pos + 1)) {
    ++names;
  }
  EXPECT_EQ(names, end_to_end_metrics().size() + per_layer_metrics().size());
  for (const auto* catalog : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *catalog) {
      const std::string entry = "\"name\": \"" + d.name + "\", \"unit\": \"" + d.unit + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << d.name;
    }
  }
  const size_t e2e = json.find("\"end_to_end\""), layer = json.find("\"per_layer\"");
  ASSERT_LT(e2e, layer);
  for (const MetricDef& d : end_to_end_metrics()) {
    const size_t at = json.find("\"name\": \"" + d.name + "\"");
    EXPECT_TRUE(at > e2e && at < layer) << d.name << " is not an end-to-end metric";
  }
}

}  // namespace
}  // namespace perfbench
