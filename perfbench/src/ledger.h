// Per-layer ledger of the traced run. Every number is taken from outside
// the library, by timing calls into one layer's public functions on the
// workload's own inputs:
//
//   * layer metrics — model forwards (Fusion and its CNN / SG-CNN
//     branches), GEMM peak and the first conv's GEMM shape, featurizers,
//     the scorer's phase split, wire codec, shard writer, checkpoint,
//     docking and MM/GBSA, artifact load;
//   * a path replay — a sample of the workload's operations re-run stage
//     by stage (wire → pocket → featurize → forward → shard → checkpoint,
//     docking and rescoring for campaign compounds) under spans, whose
//     self times give each layer's share of the path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dock/conveyorlc.h"
#include "fixture.h"
#include "report.h"
#include "serve/scorer.h"
#include "serve/service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// One operation of the workload's path, replayed stage by stage.
struct PathOp {
  uint64_t id = 0;
  const serve::ScoreRequest* wire = nullptr;   // encoded + decoded once
  std::vector<const serve::PoseInput*> poses;  // featurized + forwarded
  int forward_batch = kPosesPerBatch;
  bool write_shard = false;                    // the op's scores as one shard
  bool checkpoint = false;
  const chem::Molecule* dock_ligand = nullptr; // docked against every receptor;
                                               // its poses join `poses`
};

struct LedgerInputs {
  std::string artifact;
  std::vector<const serve::PoseInput*> poses;        // >= kPosesPerBatch
  std::vector<const serve::ScoreRequest*> requests;  // wire samples
  const std::vector<chem::Atom>* receptor = nullptr; // one receptor of the workload
  core::Vec3 site_center;
  std::vector<const chem::Molecule*> dock_ligands;   // raw compounds
  std::vector<dock::ReceptorModel> dock_receptors;
  size_t pocket_cache_targets = 4;
  int checkpoint_units = 64;
  std::vector<PathOp> path;
};

/// Docking settings of the campaign (bench/campaign_common.h).
dock::PipelineConfig campaign_pipeline_config();

/// Fill every per-layer metric except the workload-owned ones (pocket-cache
/// hit ratio, service batch stats and resolve times, client and server
/// counters, load-generator validity, campaign stage shares, trace.*).
/// Path spans go to `tracer` (after whatever it already holds); their
/// self-time shares are written as trace.self_share.<layer>.
void measure_layers(const LedgerInputs& in, Tracer& tracer, Metrics& out);

/// Closed-loop in-process replay: `clients` threads submit `requests`
/// round-robin to `service` for `seconds`; returns submit→resolve latencies
/// (ms). Failed requests are counted in *failed.
std::vector<double> service_resolve_ms(serve::ScoringService& service,
                                       const std::vector<serve::ScoreRequest>& requests,
                                       int clients, double seconds, uint64_t* failed);

/// Median wall time of `reps` calls of fn (milliseconds).
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(std::move(ms));
}

}  // namespace perfbench
