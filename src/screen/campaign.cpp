#include "screen/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/parallel.h"
#include "core/threadpool.h"
#include "io/log.h"
#include "screen/checkpoint.h"
#include "screen/controller.h"
#include "screen/plan.h"
#include "screen/writer.h"
#include "serve/service.h"

namespace df::screen {

namespace fs = std::filesystem;

namespace {
constexpr uint64_t kAssayStreamTag = 0x4153534159ULL;  // "ASSAY"

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

CampaignReport ScreeningCampaign::run(const std::vector<data::LibraryCompound>& compounds,
                                      const ModelFactory& make_model) {
  // ModelFactory-era compatibility: wrap the factory as the single scorer of
  // a private ordered-stream service shaped by this campaign's config.
  serve::ModelRegistry registry;
  serve::add_regressor(registry, "campaign", make_model, cfg_.job.voxel, cfg_.job.graph);
  serve::ServiceConfig sc;
  const unsigned hw = std::thread::hardware_concurrency();
  sc.workers = cfg_.threads > 0 ? cfg_.threads : static_cast<int>(hw != 0 ? hw : 1);
  sc.poses_per_batch = cfg_.job.poses_per_batch;
  sc.ordered_stream = true;
  // Each compound's poses against every target sit next to each other in
  // the work list, so micro-batches span targets: share one cache that
  // holds them all rather than rebuild a replica's private one per batch.
  sc.pocket_cache_targets = targets_.size();
  serve::ScoringService service(registry, sc);
  return run(compounds, service, "campaign");
}

CampaignReport ScreeningCampaign::run(const std::vector<data::LibraryCompound>& compounds,
                                      serve::ScoringService& service,
                                      const std::string& scorer) {
  return run_impl(compounds, &service, scorer, nullptr);
}

CampaignReport ScreeningCampaign::run(const std::vector<data::LibraryCompound>& compounds,
                                      ClusterController& cluster) {
  if (cluster.poses_per_batch() <= 0) {
    throw std::invalid_argument(
        "campaign: the cluster controller has no registered nodes — register "
        "at least one ScoreServer before running");
  }
  return run_impl(compounds, nullptr, cluster.scorer(), &cluster);
}

CampaignReport ScreeningCampaign::run_impl(const std::vector<data::LibraryCompound>& compounds,
                                           serve::ScoringService* service,
                                           const std::string& scorer,
                                           ClusterController* cluster) {
  CampaignReport report;
  core::Rng rng(cfg_.seed);

  const bool ordered = service != nullptr ? service->config().ordered_stream : cluster->ordered();
  const int scoring_batch =
      service != nullptr ? service->config().poses_per_batch : cluster->poses_per_batch();
  if (!ordered) {
    io::log_warn(
        "campaign: scoring service is not in ordered-stream mode; reports may "
        "not be bit-reproducible across worker counts or resumes");
  }
  if (!cfg_.checkpoint_path.empty() && cfg_.output_prefix.empty()) {
    throw std::invalid_argument(
        "campaign: checkpoint_path requires output_prefix — completed units are "
        "recovered from the streamed shards on resume");
  }

  // One worker pool for the whole campaign: fusion scoring jobs run their
  // ranks on it, and while it is installed as the compute pool the numeric
  // kernels (gemm, conv lowering, voxel splatting) pick it up for any work
  // issued from the campaign thread.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t pool_threads =
      cfg_.threads > 0 ? static_cast<size_t>(cfg_.threads) : (hw != 0 ? hw : 1);
  core::ThreadPool pool(pool_threads);
  core::ComputePoolGuard pool_guard(&pool);

  struct PoseBookkeeping {
    size_t compound_idx;
    int target_idx;
    int pose_idx;
    float vina;
    float mmgbsa = std::numeric_limits<float>::quiet_NaN();
    float true_pk;
  };
  std::vector<PoseWorkItem> work;
  std::vector<PoseBookkeeping> book;

  // Per-target AMPL surrogate training data.
  std::vector<std::vector<dock::Molecule>> ampl_poses(targets_.size());
  std::vector<std::vector<std::vector<chem::Atom>>> ampl_pockets(targets_.size());
  std::vector<std::vector<float>> ampl_scores(targets_.size());

  // --- docking stage (ConveyorLC CDT2-4) ---
  // Deterministic given the campaign seed, so a resumed process simply
  // re-derives the pose list instead of persisting it.
  auto t0 = std::chrono::steady_clock::now();
  dock::ConveyorLC pipeline(cfg_.pipeline);
  std::vector<dock::ReceptorModel> receptors;
  receptors.reserve(targets_.size());
  for (const data::Target& t : targets_) receptors.push_back(dock::ConveyorLC::prepare_receptor(t.pocket));

  std::vector<bool> rejected(compounds.size(), false);
  for (size_t ci = 0; ci < compounds.size(); ++ci) {
    const chem::Molecule raw = data::materialize(compounds[ci]);
    for (size_t ti = 0; ti < targets_.size(); ++ti) {
      auto res = pipeline.run(raw, receptors[ti], rng);
      if (!res) {
        rejected[ci] = true;
        break;  // prep rejection is compound-wide
      }
      report.mmgbsa_seconds += res->mmgbsa_seconds;
      for (size_t pi = 0; pi < res->poses.size(); ++pi) {
        PoseWorkItem item;
        item.compound_id = static_cast<int64_t>(ci);
        item.target_id = static_cast<int32_t>(ti);
        item.pose_id = static_cast<int32_t>(pi);
        item.ligand = res->conformers[pi];
        item.pocket = &targets_[ti].pocket;
        item.site_center = receptors[ti].site_center;
        work.push_back(std::move(item));

        PoseBookkeeping pb;
        pb.compound_idx = ci;
        pb.target_idx = static_cast<int>(ti);
        pb.pose_idx = static_cast<int>(pi);
        pb.vina = res->poses[pi].score;
        if (pi < res->mmgbsa_scores.size()) {
          pb.mmgbsa = res->mmgbsa_scores[pi];
          ampl_poses[ti].push_back(res->conformers[pi]);
          ampl_pockets[ti].push_back(targets_[ti].pocket);
          ampl_scores[ti].push_back(res->mmgbsa_scores[pi]);
        }
        pb.true_pk = data::oracle_pk(res->conformers[pi], targets_[ti].pocket,
                                     targets_[ti].oracle, nullptr);
        book.push_back(pb);
      }
    }
  }
  report.docking_seconds = seconds_since(t0);
  report.poses_generated = static_cast<int>(work.size());
  report.compounds_rejected = static_cast<int>(std::count(rejected.begin(), rejected.end(), true));

  // --- AMPL surrogates (one per target, like McLoughlin's models) ---
  std::vector<dock::AmplMmGbsaSurrogate> ampl(targets_.size());
  for (size_t ti = 0; ti < targets_.size(); ++ti) {
    if (ampl_scores[ti].size() >= 12) {
      ampl[ti].fit(ampl_poses[ti], ampl_pockets[ti], ampl_scores[ti]);
    }
  }

  // --- rank plan: the §4.3 schedule of work units over the cluster ---
  const RankPlan plan = RankPlan::build(work.size(), cfg_.poses_per_job, cfg_.job, cfg_.cluster);
  report.units_total = static_cast<int>(plan.units.size());
  const uint64_t lib_fp = data::library_fingerprint(compounds);

  std::vector<int64_t> status(plan.units.size(), static_cast<int64_t>(UnitStatus::Pending));
  std::vector<int64_t> attempts(plan.units.size(), 0);
  std::vector<float> fusion_pred(work.size(), 0.0f);

  const bool streaming = !cfg_.output_prefix.empty();
  const int num_shards = cfg_.num_shards > 0 ? cfg_.num_shards : plan.ranks_per_job;

  // --- resume: recover completed units from checkpoint + shards ---
  const bool resuming = !cfg_.checkpoint_path.empty() && fs::exists(cfg_.checkpoint_path);
  if (resuming) {
    const CampaignCheckpoint ck = load_campaign_checkpoint(cfg_.checkpoint_path);
    if (ck.campaign_seed != cfg_.seed || ck.library_fingerprint != lib_fp ||
        ck.total_poses != static_cast<int64_t>(work.size()) ||
        ck.units() != static_cast<int64_t>(plan.units.size()) ||
        ck.poses_per_job != cfg_.poses_per_job || ck.nodes != cfg_.job.nodes ||
        ck.gpus_per_node != cfg_.job.gpus_per_node || ck.num_shards != num_shards ||
        ck.scoring_batch != scoring_batch) {
      throw std::runtime_error(
          "campaign: checkpoint does not match this campaign (seed, library, plan, "
          "job geometry or scoring batch size changed): " + cfg_.checkpoint_path);
    }
    status = ck.unit_status;
    attempts = ck.unit_attempts;
    // Units the dead process had in flight restart from attempt 0 on their
    // original streams; their partial attempt history replays identically.
    for (size_t u = 0; u < status.size(); ++u) {
      if (status[u] == static_cast<int64_t>(UnitStatus::Pending)) attempts[u] = 0;
    }
    // Reconcile shards with the checkpoint: drop torn tails and any block
    // the checkpoint does not vouch for (written after the last save).
    for (int s = 0; s < num_shards; ++s) {
      const std::string path = shard_stream_path(cfg_.output_prefix, s);
      if (!fs::exists(path)) continue;
      compact_shard_stream(path, [&](uint64_t unit) {
        return unit < status.size() && status[unit] == static_cast<int64_t>(UnitStatus::Done);
      });
    }
    // Recover predictions for vouched-for units; anything missing re-runs.
    std::vector<bool> recovered(plan.units.size(), false);
    for (int s = 0; s < num_shards; ++s) {
      const ShardScan scan = scan_shard_stream(shard_stream_path(cfg_.output_prefix, s));
      for (const ShardBlock& b : scan.blocks) {
        if (b.unit_id >= plan.units.size()) continue;
        const WorkUnit& unit = plan.units[b.unit_id];
        if (b.rows() != unit.poses()) continue;  // malformed: force re-run
        std::copy(b.predictions.begin(), b.predictions.end(),
                  fusion_pred.begin() + static_cast<long>(unit.pose_begin));
        recovered[b.unit_id] = true;
      }
    }
    for (size_t u = 0; u < status.size(); ++u) {
      if (status[u] == static_cast<int64_t>(UnitStatus::Done) && !recovered[u]) {
        io::log_warn("campaign resume: unit " + std::to_string(u) +
                     " lost its shard block; re-running");
        status[u] = static_cast<int64_t>(UnitStatus::Pending);
        attempts[u] = 0;
      }
      if (status[u] != static_cast<int64_t>(UnitStatus::Pending)) ++report.units_resumed;
    }
  } else if (streaming) {
    // Fresh start: clear any stale shards so old blocks cannot leak into
    // this campaign's output.
    for (int s = 0; s < num_shards; ++s) {
      std::error_code ec;
      fs::remove(shard_stream_path(cfg_.output_prefix, s), ec);
    }
    std::error_code ec;
    fs::remove(shard_manifest_path(cfg_.output_prefix), ec);
  }

  // --- fusion scoring stage: fault-tolerant jobs over the plan ---
  t0 = std::chrono::steady_clock::now();
  StochasticFaultInjector default_injector;
  FaultInjector* injector = cfg_.fault_injector;
  if (injector == nullptr && cfg_.job.inject_failures) injector = &default_injector;

  std::vector<std::unique_ptr<ShardStream>> streams(static_cast<size_t>(num_shards));
  const auto stream_for = [&](uint32_t unit_id) -> ShardStream& {
    const size_t s = unit_id % static_cast<size_t>(num_shards);
    if (!streams[s]) {
      streams[s] = std::make_unique<ShardStream>(shard_stream_path(cfg_.output_prefix,
                                                                   static_cast<int>(s)));
    }
    return *streams[s];
  };

  int64_t attempts_this_run = 0;
  int completed_since_ckpt = 0;
  ShardStream* last_write = nullptr;
  const auto save_ckpt = [&] {
    CampaignCheckpoint ck;
    ck.campaign_seed = cfg_.seed;
    ck.library_fingerprint = lib_fp;
    ck.total_poses = static_cast<int64_t>(work.size());
    ck.poses_per_job = cfg_.poses_per_job;
    ck.nodes = cfg_.job.nodes;
    ck.gpus_per_node = cfg_.job.gpus_per_node;
    ck.num_shards = num_shards;
    ck.scoring_batch = scoring_batch;
    ck.unit_status = status;
    ck.unit_attempts = attempts;
    save_campaign_checkpoint(ck, cfg_.checkpoint_path);
    completed_since_ckpt = 0;
    ++report.checkpoints_written;
  };
  const auto kill_check = [&] {
    if (cfg_.kill_after_attempts < 0 || attempts_this_run < cfg_.kill_after_attempts) return;
    if (cfg_.kill_mid_write && last_write != nullptr) {
      // Die with a half-appended block on disk: the torn tail must be
      // detected and discarded by the resume scan.
      last_write->close();
      tear_shard_tail(last_write->path(), 6);
    }
    throw CampaignKilled("campaign killed after " + std::to_string(attempts_this_run) +
                         " job attempts (simulated)");
  };

  const auto exhaust_unit = [&](const WorkUnit& unit) {
    status[unit.id] = static_cast<int64_t>(UnitStatus::Exhausted);
    ++completed_since_ckpt;
    io::log_warn("campaign: unit " + std::to_string(unit.id) + " exhausted its " +
                 std::to_string(cfg_.max_job_retries) + " retries; poses unscored");
  };
  const auto complete_unit = [&](const WorkUnit& unit, const float* predictions) {
    // Results arrive in chunk order (serial: ranks take contiguous slices
    // and the allgather concatenates in rank order; distributed: the node
    // scores the whole chunk in request order).
    std::copy(predictions, predictions + unit.poses(),
              fusion_pred.begin() + static_cast<long>(unit.pose_begin));
    if (streaming) {
      ShardBlock block;
      block.unit_id = unit.id;
      for (size_t i = unit.pose_begin; i < unit.pose_end; ++i) {
        block.compound_ids.push_back(work[i].compound_id);
        block.target_ids.push_back(work[i].target_id);
        block.pose_ids.push_back(work[i].pose_id);
      }
      block.predictions.assign(predictions, predictions + unit.poses());
      ShardStream& stream = stream_for(unit.id);
      stream.append(block);
      last_write = &stream;
    }
    status[unit.id] = static_cast<int64_t>(UnitStatus::Done);
    ++completed_since_ckpt;
    if (!cfg_.checkpoint_path.empty() && completed_since_ckpt >= cfg_.checkpoint_every_jobs) {
      save_ckpt();
    }
    kill_check();
  };

  if (service != nullptr) {
    for (const WorkUnit& unit : plan.units) {
      if (status[unit.id] != static_cast<int64_t>(UnitStatus::Pending)) continue;
      const std::vector<PoseWorkItem> chunk(work.begin() + static_cast<long>(unit.pose_begin),
                                            work.begin() + static_cast<long>(unit.pose_end));
      for (int attempt = 0; attempt <= cfg_.max_job_retries; ++attempt) {
        JobConfig jc = cfg_.job;
        jc.pool = &pool;
        jc.seed = unit_seed(cfg_.seed, unit.id, attempt);
        if (injector != nullptr) {
          jc.inject_failures = false;
          jc.doomed_rank = injector->doomed_rank(cfg_.seed, unit.id, attempt, jc.nodes, unit.ranks);
        }
        FusionScoringJob job(jc);
        const JobReport jr = job.run(chunk, *service, scorer);
        ++attempts[unit.id];
        ++attempts_this_run;
        if (jr.failed) {
          kill_check();
          continue;  // resubmit: "another job takes its place"
        }
        complete_unit(unit, jr.predictions.data());
        break;
      }
      if (status[unit.id] == static_cast<int64_t>(UnitStatus::Pending)) exhaust_unit(unit);
    }
  } else {
    // --- distributed scoring over the cluster controller ---
    // The logical fault schedule is a pure function of (seed, unit, attempt),
    // so it resolves without scoring: advance each unit's attempt cursor past
    // its doomed attempts — bookkept exactly like failed in-process jobs —
    // and ship only the first clean attempt to the cluster. Physical node
    // deaths re-dispatch inside the controller without touching the cursor,
    // which is why the report stays bit-identical to the serial run.
    //
    // If anything throws out of this branch (CampaignKilled from the kill
    // harness, a stopped controller), the cluster is stopped before the
    // exception escapes: submitted poses borrow this campaign's pocket
    // storage, so dispatchers must not outlive this frame, and abandoning
    // the queue means a resumed run needs a fresh controller — stale
    // verdicts from the aborted run can never leak into it.
    try {
    std::vector<int> next_attempt(plan.units.size(), 0);
    const auto advance_to_clean_attempt = [&](const WorkUnit& unit) -> bool {
      int& cursor = next_attempt[unit.id];
      while (cursor <= cfg_.max_job_retries) {
        const int doomed = injector != nullptr
                               ? injector->doomed_rank(cfg_.seed, unit.id, cursor,
                                                       cfg_.job.nodes, unit.ranks)
                               : -1;
        if (doomed < 0) return true;
        ++cursor;
        ++attempts[unit.id];
        ++attempts_this_run;
        kill_check();
      }
      return false;
    };
    const auto submit_unit = [&](const WorkUnit& unit) {
      std::vector<serve::PoseInput> poses;
      poses.reserve(unit.poses());
      for (size_t i = unit.pose_begin; i < unit.pose_end; ++i) {
        serve::PoseInput pose;
        pose.ligand = work[i].ligand;
        pose.pocket = work[i].pocket;
        pose.site_center = work[i].site_center;
        poses.push_back(std::move(pose));
      }
      cluster->submit_unit(unit.id, std::move(poses));
    };

    size_t outstanding = 0;
    for (const WorkUnit& unit : plan.units) {
      if (status[unit.id] != static_cast<int64_t>(UnitStatus::Pending)) continue;
      if (!advance_to_clean_attempt(unit)) {
        exhaust_unit(unit);
        continue;
      }
      submit_unit(unit);
      ++outstanding;
    }
    while (outstanding > 0) {
      const UnitResult r = cluster->wait_unit();
      --outstanding;
      const WorkUnit& unit = plan.units[r.unit_id];
      ++attempts[unit.id];
      ++attempts_this_run;
      if (!r.ok) {
        // A typed scorer failure on the clean attempt — the distributed
        // analog of jr.failed: bookkeep it and resubmit on the next clean
        // attempt, if the unit has retries left.
        kill_check();
        ++next_attempt[unit.id];
        if (advance_to_clean_attempt(unit)) {
          submit_unit(unit);
          ++outstanding;
        } else {
          exhaust_unit(unit);
        }
        continue;
      }
      complete_unit(unit, r.scores.data());
    }
    } catch (...) {
      cluster->stop();
      throw;
    }
  }
  report.fusion_seconds = seconds_since(t0);

  // --- finalize durable state ---
  if (!cfg_.checkpoint_path.empty()) save_ckpt();
  if (streaming) {
    for (auto& s : streams) {
      if (s) s->close();
    }
    // Open every shard once so short campaigns still produce the full shard
    // set the manifest promises.
    for (int s = 0; s < num_shards; ++s) {
      const std::string path = shard_stream_path(cfg_.output_prefix, s);
      if (!fs::exists(path)) ShardStream(path).close();
      report.shard_files.push_back(path);
    }
    write_shard_manifest(cfg_.output_prefix, num_shards);
  }

  // Job counters derive from the per-unit attempt cursors, so a resumed
  // campaign reports the same totals as an uninterrupted one.
  for (size_t u = 0; u < plan.units.size(); ++u) {
    report.jobs_run += static_cast<int>(attempts[u]);
    if (status[u] == static_cast<int64_t>(UnitStatus::Done)) {
      report.jobs_failed += static_cast<int>(attempts[u]) - 1;
    } else if (status[u] == static_cast<int64_t>(UnitStatus::Exhausted)) {
      report.jobs_failed += static_cast<int>(attempts[u]);
      ++report.units_exhausted;
    }
  }

  // --- aggregation: strongest prediction across poses per compound/site ---
  std::map<std::pair<size_t, int>, CompoundScreenResult> agg;
  for (size_t i = 0; i < book.size(); ++i) {
    const PoseBookkeeping& pb = book[i];
    auto key = std::make_pair(pb.compound_idx, pb.target_idx);
    auto [it, inserted] = agg.try_emplace(key);
    CompoundScreenResult& r = it->second;
    if (inserted) {
      r.compound_id = compounds[pb.compound_idx].id;
      r.target_index = pb.target_idx;
      r.fusion_pk = -1e30f;
      r.vina_score = 1e30f;
      r.mmgbsa_score = 1e30f;
      r.ampl_mmgbsa_score = 1e30f;
      r.true_pk = -1e30f;
    }
    r.poses += 1;
    r.fusion_pk = std::max(r.fusion_pk, fusion_pred[i]);
    r.vina_score = std::min(r.vina_score, pb.vina);
    if (!std::isnan(pb.mmgbsa)) r.mmgbsa_score = std::min(r.mmgbsa_score, pb.mmgbsa);
    r.true_pk = std::max(r.true_pk, pb.true_pk);
    if (ampl[static_cast<size_t>(pb.target_idx)].trained()) {
      const float a = ampl[static_cast<size_t>(pb.target_idx)].predict(
          work[i].ligand, targets_[static_cast<size_t>(pb.target_idx)].pocket);
      r.ampl_mmgbsa_score = std::min(r.ampl_mmgbsa_score, a);
    }
  }

  // --- simulated experimental prosecution ---
  // Assay noise streams key on (compound, target), not on how many draws
  // earlier stages consumed — the readouts survive kill/resume and thread
  // count changes bit-for-bit.
  for (auto& [key, r] : agg) {
    const data::Target& t = targets_[static_cast<size_t>(r.target_index)];
    core::Rng assay_rng(core::derive_stream(
        cfg_.seed, kAssayStreamTag,
        key.first * targets_.size() + static_cast<size_t>(key.second)));
    r.percent_inhibition =
        data::percent_inhibition(r.true_pk, t.assay_concentration_uM, assay_rng, cfg_.assay);
    report.results.push_back(std::move(r));
  }
  return report;
}

}  // namespace df::screen
