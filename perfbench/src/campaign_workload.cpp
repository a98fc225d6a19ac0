// campaign — the full ScreeningCampaign::run pipeline: ligand prep →
// docking → MM/GBSA rescoring of the top poses → Fusion scoring through an
// ordered-stream ScoringService (restored from the artifact) → shards and
// checkpoints → assay, against the four built-in SARS-CoV-2 targets with
// the docking settings of bench/campaign_common.h. The window is filled
// with back-to-back campaigns over consecutive chunks of one generated
// library; each campaign is one operation.
//
// Checked after every campaign: each compound x target that ligand prep
// did not reject has a finite result, no work unit was exhausted, the
// shard streams scan clean and hold every docked pose, the manifest
// verifies, and the checkpoint reloads with every unit done.
#include <cmath>
#include <filesystem>

#include "chem/conformer.h"
#include "data/compound_library.h"
#include "data/target.h"
#include "host.h"
#include "ledger.h"
#include "screen/campaign.h"
#include "screen/checkpoint.h"
#include "screen/writer.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr int kChunkCompounds = 6;  // compounds per campaign (one operation)
constexpr int kLibrary = 600;       // more than any run gets through
constexpr int kPocketCache = 4;     // one entry per target
constexpr int kRounds = 5;          // fresh service per round; medians over rounds

screen::CampaignConfig campaign_config(uint64_t seed, const std::string& dir) {
  screen::CampaignConfig cfg;
  cfg.job.nodes = 1;
  cfg.job.gpus_per_node = 4;
  cfg.job.batch_size_per_rank = 56;
  cfg.job.poses_per_batch = kPosesPerBatch;
  cfg.job.voxel = voxel_config();
  cfg.job.graph = graph_config();
  cfg.poses_per_job = 256;
  cfg.pipeline = campaign_pipeline_config();
  cfg.threads = 4;
  cfg.seed = seed;
  cfg.output_prefix = dir + "/out";
  cfg.checkpoint_path = dir + "/campaign.ckpt";
  cfg.checkpoint_every_jobs = 4;
  return cfg;
}

/// Failed compound x target rows of one finished campaign (0 = clean).
uint64_t verify_campaign(const screen::CampaignReport& rep, const screen::CampaignConfig& cfg,
                         size_t compounds, size_t targets) {
  uint64_t bad = 0;
  const size_t expected = (compounds - static_cast<size_t>(rep.compounds_rejected)) * targets;
  size_t finite = 0;
  for (const screen::CompoundScreenResult& row : rep.results) {
    finite += std::isfinite(row.fusion_pk) && std::isfinite(row.vina_score) ? 1 : 0;
  }
  if (finite < expected) bad += expected - finite;
  if (rep.units_exhausted != 0) bad += static_cast<uint64_t>(rep.units_exhausted);
  int64_t rows = 0;
  for (const std::string& f : rep.shard_files) {
    const screen::ShardScan scan = screen::scan_shard_stream(f);
    rows += scan.rows();
    bad += scan.damage.size();
  }
  if (rows != rep.poses_generated) ++bad;
  bad += screen::verify_shard_manifest(cfg.output_prefix).size();
  const screen::CampaignCheckpoint ck = screen::load_campaign_checkpoint(cfg.checkpoint_path);
  for (int64_t s : ck.unit_status) bad += s == static_cast<int64_t>(screen::UnitStatus::Done) ? 0 : 1;
  return bad;
}

}  // namespace

RunResult run_campaign(const RunArgs& args, Tracer& tracer) {
  core::Rng rng(args.seed);
  const std::vector<data::Target> targets = data::make_sars_cov2_targets(rng);
  const std::vector<data::LibraryCompound> library =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, kLibrary), rng);
  RunDir dir("campaign");
  const std::string artifact = dir.file("fusion.dfca");

  // Campaign-shaped requests (one compound x target, 4 poses) for the
  // artifact's warm-up batch and the traced run's replays.
  std::vector<chem::Molecule> ligands;
  for (int i = 0; i < 16; ++i) {
    chem::Molecule m = data::materialize(library[static_cast<size_t>(i)]);
    chem::embed_conformer(m, rng);
    ligands.push_back(std::move(m));
  }
  std::vector<serve::ScoreRequest> requests;
  for (size_t i = 0; i < ligands.size(); ++i) {
    const data::Target& t = targets[i % targets.size()];
    serve::ScoreRequest req;
    req.scorer = kScorer;
    for (int p = 0; p < 4; ++p) {
      req.poses.push_back(serve::PoseInput{pose_of(ligands[i], t.site_center, rng), &t.pocket,
                                           t.site_center});
    }
    requests.push_back(std::move(req));
  }
  {
    std::vector<const serve::PoseInput*> warm;
    for (const serve::ScoreRequest& q : requests) {
      for (const serve::PoseInput& p : q.poses) warm.push_back(&p);
    }
    warm.resize(kPosesPerBatch);
    write_artifact(artifact, warm);
  }

  // ---- rounds: each sets a fresh service up (artifact load → replicas
  // warmed on every worker), then runs back-to-back campaigns over
  // consecutive library chunks. Chunk 0 warms the process up and is
  // checked but not measured. ----
  RunResult r;
  std::vector<double> setup_s, rss, round_pps, round_p50, latency_ms, gap_ms;
  double compounds = 0.0, poses = 0.0, busy_s = 0.0;
  double docking_s = 0.0, mmgbsa_s = 0.0, fusion_s = 0.0;
  int last_units = 1;
  serve::ServiceStats stats;
  serve::PocketCache::Stats cache;
  std::unique_ptr<serve::ScoringService> service;
  size_t chunk = 0;
  for (int round = 0; round < kRounds; ++round) {
    service.reset();
    reset_peak_rss();
    const auto t_setup = Clock::now();
    service = start_service(artifact, true, kPocketCache);
    setup_s.push_back(seconds_between(t_setup, Clock::now()));

    std::vector<double> lat;
    double round_poses = 0.0, round_busy = 0.0;
    auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds / kRounds));
    auto prev_end = Clock::now();
    for (bool first = true; first || Clock::now() < deadline; first = false, ++chunk) {
      const size_t lo = (chunk * kChunkCompounds) % (library.size() - kChunkCompounds);
      const std::vector<data::LibraryCompound> part(
          library.begin() + static_cast<long>(lo),
          library.begin() + static_cast<long>(lo + kChunkCompounds));
      const std::string chunk_dir = dir.file("chunk" + std::to_string(chunk));
      fs::create_directories(chunk_dir);
      const screen::CampaignConfig cfg = campaign_config(args.seed * 1000 + chunk, chunk_dir);
      screen::ScreeningCampaign campaign(cfg, targets);
      r.outcome.attempted += part.size() * targets.size();
      const auto t0 = Clock::now();
      gap_ms.push_back(seconds_between(prev_end, t0) * 1e3);
      screen::CampaignReport rep;
      bool ok = true;
      try {
        ScopedSpan span(tracer, "screen.campaign", chunk);
        rep = campaign.run(part, *service, kScorer);
      } catch (const std::exception& e) {
        detail("campaign %zu failed: %s", chunk, e.what());
        r.outcome.failed += part.size() * targets.size();
        r.outcome.correct = false;
        ok = false;
      }
      prev_end = Clock::now();
      const double dt = seconds_between(t0, prev_end);
      const uint64_t bad = ok ? verify_campaign(rep, cfg, part.size(), targets.size()) : 0;
      if (bad != 0) {
        detail("campaign %zu: %llu verification failures", chunk,
               static_cast<unsigned long long>(bad));
        r.outcome.failed += bad;
        r.outcome.correct = false;
      }
      fs::remove_all(chunk_dir);
      if (!ok || (round == 0 && first)) {
        if (round == 0 && first) {  // warm-up chunk: the window opens now
          deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(args.seconds / kRounds));
        }
        continue;
      }
      lat.push_back(dt * 1e3);
      round_busy += dt;
      round_poses += rep.poses_generated;
      compounds += static_cast<double>(part.size());
      docking_s += rep.docking_seconds - rep.mmgbsa_seconds;
      mmgbsa_s += rep.mmgbsa_seconds;
      fusion_s += rep.fusion_seconds;
      last_units = std::max(1, rep.units_total);
    }
    if (lat.empty()) throw std::runtime_error("no campaign finished in a round");
    add_service_stats(*service, &stats, &cache);
    rss.push_back(peak_rss_mb());
    round_pps.push_back(round_poses / round_busy);
    round_p50.push_back(median(lat));
    latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    poses += round_poses;
    busy_s += round_busy;
    detail("round %d: %zu campaigns, %.1f poses/s, campaign p50 %.3f ms, setup %.4f s, "
           "peak RSS %.1f MB",
           round, lat.size(), round_pps.back(), round_p50.back(), setup_s.back(), rss.back());
  }
  detail("campaign: %zu campaigns of %d compounds x %zu targets, %.0f poses in %.3f s "
         "(%.3f compounds/s)",
         latency_ms.size(), kChunkCompounds, targets.size(), poses, busy_s, compounds / busy_s);
  r.load_seconds = busy_s;
  r.workload_spans = tracer.size();

  if (!args.trace) {
    const Tail tail = report_latency("campaign latency", latency_ms);
    r.metrics["poses_per_s"] = median(round_pps);
    r.metrics["p50_ms"] = median(round_p50);
    r.metrics["tail_ms"] = tail.value;
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["peak_rss_mb"] = median(rss);
    detail("poses_per_s, p50_ms, setup_s, peak_rss_mb: medians over %d rounds; tail_ms pooled",
           kRounds);
    return r;
  }

  Metrics& m = r.metrics;
  m["trace.poses_per_s"] = poses / busy_s;
  service_layer_metrics(stats, cache, m);
  m["screen.campaign.docking_share"] = docking_s / busy_s;
  m["screen.campaign.mmgbsa_share"] = mmgbsa_s / busy_s;
  m["screen.campaign.fusion_share"] = fusion_s / busy_s;
  m["serve.client.retries"] = 0;
  m["serve.client.transport_failures"] = 0;
  m["serve.server.protocol_errors"] = 0;
  m["loadgen.p50_ms_low"] = 0;
  m["loadgen.tail_ms_high"] = 0;
  m["loadgen.lag_ms_tail"] = tail_percentile(gap_ms).value;
  m["loadgen.offered_rps"] = static_cast<double>(latency_ms.size()) / busy_s;
  m["loadgen.backlog_end"] = 0;
  m["loadgen.max_rps"] = 0;
  {
    uint64_t failed = 0;
    const std::vector<double> resolve = service_resolve_ms(*service, requests, 2, 0.5, &failed);
    r.outcome.failed += failed;
    m["serve.service.resolve_ms_p50"] = median(resolve);
    m["serve.service.resolve_ms_tail"] = report_latency("in-process resolve", resolve).value;
  }
  service.reset();

  LedgerInputs li;
  li.artifact = artifact;
  for (const serve::ScoreRequest& q : requests) {
    for (const serve::PoseInput& p : q.poses) li.poses.push_back(&p);
  }
  for (const serve::ScoreRequest& q : requests) li.requests.push_back(&q);
  li.receptor = &targets[0].pocket;
  li.site_center = targets[0].site_center;
  std::vector<chem::Molecule> raw;
  for (size_t i = 0; i < 3; ++i) raw.push_back(data::materialize(library[i]));
  for (size_t i = 0; i < 2; ++i) li.dock_ligands.push_back(&raw[i]);
  for (const data::Target& t : targets) li.dock_receptors.push_back(dock::ConveyorLC::prepare_receptor(t.pocket));
  li.pocket_cache_targets = kPocketCache;
  li.checkpoint_units = last_units;
  for (size_t i = 0; i < raw.size(); ++i) {
    PathOp op;
    op.id = (1u << 30) + i;
    op.dock_ligand = &raw[i];
    op.write_shard = true;
    op.checkpoint = i + 1 == raw.size();
    li.path.push_back(std::move(op));
  }
  measure_layers(li, tracer, m);
  return r;
}

}  // namespace perfbench
