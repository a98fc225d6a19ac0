#include "ledger.h"

#include <atomic>
#include <filesystem>
#include <list>
#include <mutex>
#include <thread>

#include "chem/cell_list.h"
#include "compile/model_compiler.h"
#include "core/gemm.h"
#include "dock/docking.h"
#include "dock/mmgbsa.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "screen/checkpoint.h"
#include "screen/writer.h"
#include "serve/wire.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

struct PocketFeatures {
  const std::vector<chem::Atom>* pocket = nullptr;
  core::Vec3 center;
  core::Tensor grid;
  chem::CellList cells;
};

/// The scorer's featurization, rebuilt from the chem layer's public API:
/// pocket grid + crop cell list per receptor (an LRU of `capacity`, like
/// serve::PocketCache), then per pose the ligand splat grafted onto the
/// pocket grid and the spatial graph.
class Featurizer {
 public:
  explicit Featurizer(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)), vox_(voxel_config()), graph_(graph_config()) {}

  const PocketFeatures& pocket(const serve::PoseInput& p, Tracer* t = nullptr,
                               uint64_t trace_id = 0, uint32_t parent = 0) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->pocket == p.pocket && it->center.x == p.site_center.x &&
          it->center.y == p.site_center.y && it->center.z == p.site_center.z) {
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front();
      }
    }
    PocketFeatures f;
    f.pocket = p.pocket;
    f.center = p.site_center;
    {
      const uint32_t s = t ? t->begin("chem.voxelize_pocket", trace_id, parent) : 0;
      f.grid = vox_.voxelize_pocket(*p.pocket, p.site_center);
      if (t) t->end(s);
    }
    {
      const uint32_t s = t ? t->begin("chem.cell_list", trace_id, parent) : 0;
      build_cells(*p.pocket, f.cells);
      if (t) t->end(s);
    }
    lru_.push_front(std::move(f));
    if (lru_.size() > capacity_) lru_.pop_back();
    return lru_.front();
  }

  void build_cells(const std::vector<chem::Atom>& pocket, chem::CellList& cells) const {
    std::vector<core::Vec3> pos;
    pos.reserve(pocket.size());
    for (const chem::Atom& a : pocket) pos.push_back(a.pos);
    cells.build(pos.data(), static_cast<int32_t>(pos.size()), graph_.config().noncovalent_threshold);
  }

  core::Tensor voxel(const serve::PoseInput& p, const PocketFeatures& f) const {
    return vox_.voxelize_ligand_onto(p.ligand, *p.pocket, f.grid, p.site_center);
  }
  graph::SpatialGraph graph(const serve::PoseInput& p, const PocketFeatures& f) const {
    return graph_.featurize(p.ligand, *p.pocket, &f.cells);
  }
  data::Sample sample(const serve::PoseInput& p) {
    const PocketFeatures& f = pocket(p);
    data::Sample s;
    s.voxel = voxel(p, f);
    s.graph = graph(p, f);
    return s;
  }
  const chem::Voxelizer& voxelizer() const { return vox_; }

 private:
  size_t capacity_;
  chem::Voxelizer vox_;
  chem::GraphFeaturizer graph_;
  std::list<PocketFeatures> lru_;
};

std::vector<const data::Sample*> pointers(const std::vector<data::Sample>& v) {
  std::vector<const data::Sample*> out;
  for (const data::Sample& s : v) out.push_back(&s);
  return out;
}

double sgemm_gflops(int64_t m, int64_t n, int64_t k, int calls) {
  std::vector<float> a(static_cast<size_t>(m * k), 0.5f), b(static_cast<size_t>(k * n), 0.25f),
      c(static_cast<size_t>(m * n));
  core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);  // warm
  const double ms = median_ms(5, [&] {
    for (int i = 0; i < calls; ++i) {
      core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);
    }
  });
  return 2.0 * static_cast<double>(m * n * k) * calls / (ms * 1e-3) * 1e-9;
}

/// Conv + dense GEMM FLOPs of one pose through `model` (GFLOP), from layer
/// shapes. Graph message passing is not counted.
double fusion_gflop_per_pose(models::Regressor& model) {
  const compile::StructureWalk walk = compile::walk_structure(model);
  double flop = 0.0;
  int64_t d = kGridDim;
  for (size_t i = 0; i < walk.conv.size(); ++i) {
    const nn::Conv3d& c = *walk.conv[i];
    // In the 3D-CNN trunk a 2x max-pool sits in front of the conv that
    // widens the channel count (every other conv keeps it).
    if (i > 0 && c.in_channels() != c.out_channels()) d /= 2;
    d = nn::Conv3d::out_size(d, c.kernel(), c.stride(), c.padding());
    const double k3 = static_cast<double>(c.kernel() * c.kernel() * c.kernel());
    flop += 2.0 * static_cast<double>(c.out_channels() * c.in_channels()) * k3 *
            static_cast<double>(d * d * d);
  }
  for (const nn::Dense* l : walk.dense) {
    flop += 2.0 * static_cast<double>(l->in_features() * l->out_features());
  }
  return flop * 1e-9;
}

void measure_models(const LedgerInputs& in, Featurizer& feat, Metrics& out,
                    std::vector<float>* scores) {
  compile::CompiledModel compiled;
  out["compile.artifact_load_ms"] =
      median_ms(5, [&] { compiled = compile::load_compiled(in.artifact); });
  models::Regressor& model = *compiled.model;
  // The restored model hides its branches behind the eval-only facade, so
  // the branch forwards run on the same model compiled in place.
  std::unique_ptr<models::FusionModel> fusion = make_fusion_model();
  compile::ModelCompiler().compile(*fusion);

  std::vector<data::Sample> samples;
  for (int i = 0; i < kPosesPerBatch; ++i) {
    samples.push_back(feat.sample(*in.poses[static_cast<size_t>(i) % in.poses.size()]));
  }
  const std::vector<const data::Sample*> b32 = pointers(samples);
  const std::vector<const data::Sample*> b1 = {b32.front()};
  *scores = model.predict_batch(b32);
  out["models.fusion.forward_ms_b32"] = median_ms(9, [&] { model.predict_batch(b32); });
  out["models.fusion.forward_ms_b1"] = median_ms(31, [&] { model.predict_batch(b1); });
  fusion->cnn_head().predict_batch(b32);
  out["models.cnn3d.forward_ms_b32"] =
      median_ms(9, [&] { fusion->cnn_head().predict_batch(b32); });
  fusion->sg_head().predict_batch(b32);
  out["models.sgcnn.forward_ms_b32"] = median_ms(9, [&] { fusion->sg_head().predict_batch(b32); });

  const double gflop = fusion_gflop_per_pose(model);
  const double peak = sgemm_gflops(512, 512, 512, 2);
  out["models.fusion.gflop_per_pose"] = gflop;
  out["models.fusion.gflops"] = gflop * kPosesPerBatch / (out["models.fusion.forward_ms_b32"] * 1e-3);
  out["core.sgemm.peak_gflops"] = peak;
  out["models.fusion.roofline_frac"] = out["models.fusion.gflops"] / peak;

  // The first conv's lowered GEMM: M = filters, K = in_channels * k^3,
  // N = output voxels of one sample.
  const compile::StructureWalk walk = compile::walk_structure(model);
  const nn::Conv3d& c1 = *walk.conv.front();
  const int64_t d = nn::Conv3d::out_size(kGridDim, c1.kernel(), c1.stride(), c1.padding());
  out["core.sgemm.conv1_gflops"] =
      sgemm_gflops(c1.out_channels(), d * d * d,
                   c1.in_channels() * c1.kernel() * c1.kernel() * c1.kernel(), 64);
}

void measure_featurizers(const LedgerInputs& in, Featurizer& feat, Metrics& out) {
  const chem::Voxelizer& vox = feat.voxelizer();
  out["chem.voxelize_pocket_ms"] =
      median_ms(5, [&] { vox.voxelize_pocket(*in.receptor, in.site_center); });
  chem::CellList cells;
  out["chem.cell_list_build_ms"] = median_ms(5, [&] { feat.build_cells(*in.receptor, cells); });

  const size_t n = std::min<size_t>(in.poses.size(), 64);
  for (size_t i = 0; i < n; ++i) feat.pocket(*in.poses[i]);  // warm pocket features
  out["chem.voxelize_ligand_ms_per_pose"] = median_ms(3, [&] {
    for (size_t i = 0; i < n; ++i) feat.voxel(*in.poses[i], feat.pocket(*in.poses[i]));
  }) / static_cast<double>(n);
  out["chem.graph_featurize_ms_per_pose"] = median_ms(3, [&] {
    for (size_t i = 0; i < n; ++i) feat.graph(*in.poses[i], feat.pocket(*in.poses[i]));
  }) / static_cast<double>(n);
}

void measure_scorer(const LedgerInputs& in, Metrics& out) {
  serve::ModelRegistry reg;
  register_scorer(reg, in.artifact);
  std::unique_ptr<serve::Scorer> scorer = reg.make(kScorer);
  auto* rs = dynamic_cast<serve::RegressorScorer*>(scorer.get());
  if (rs == nullptr) throw std::runtime_error("scorer is not a RegressorScorer");
  rs->set_pocket_cache(std::make_shared<serve::PocketCache>(in.pocket_cache_targets));
  auto batch_at = [&](size_t b) {
    std::vector<const serve::PoseInput*> batch;
    for (size_t i = 0; i < kPosesPerBatch; ++i) {
      batch.push_back(in.poses[(b * kPosesPerBatch + i) % in.poses.size()]);
    }
    return batch;
  };
  rs->score(batch_at(0));
  const auto s0 = rs->phase_stats();
  constexpr size_t kBatches = 6;
  for (size_t b = 1; b <= kBatches; ++b) rs->score(batch_at(b));
  const auto s1 = rs->phase_stats();
  const double batches = static_cast<double>(s1.batches - s0.batches);
  out["serve.scorer.featurize_ms_per_batch"] =
      (s1.featurize_seconds - s0.featurize_seconds) / batches * 1e3;
  out["serve.scorer.forward_ms_per_batch"] =
      (s1.forward_seconds - s0.forward_seconds) / batches * 1e3;
}

void measure_wire(const LedgerInputs& in, Metrics& out) {
  std::vector<double> enc_us, dec_us;
  double bytes = 0.0;
  uint64_t id = 1;
  for (const serve::ScoreRequest* req : in.requests) {
    std::string encoded;
    auto t0 = Clock::now();
    encoded = serve::wire::pack_request(*req, id++).encode();
    enc_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    t0 = Clock::now();
    const auto decoded = serve::wire::ScoreRequestPayload::decode(encoded);
    dec_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (decoded.poses.size() != req->poses.size()) throw std::runtime_error("wire round trip lost poses");
    bytes += static_cast<double>(encoded.size());
  }
  out["serve.wire.encode_us"] = median(enc_us);
  out["serve.wire.decode_us"] = median(dec_us);
  out["serve.wire.request_bytes"] = bytes / static_cast<double>(in.requests.size());
}

void write_rows(const std::string& prefix, const std::vector<float>& scores) {
  const size_t n = scores.size();
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
  screen::write_sharded_results(prefix, 1, ids, std::vector<int64_t>(n, 0), ids, scores);
}

void measure_output(const LedgerInputs& in, const std::vector<float>& scores, Metrics& out) {
  RunDir dir("ledger");
  constexpr size_t kRows = 256;
  std::vector<float> rows(kRows);
  for (size_t i = 0; i < kRows; ++i) rows[i] = scores[i % scores.size()];
  const std::string prefix = dir.file("unit");
  const double ms = median_ms(5, [&] { write_rows(prefix, rows); });
  out["screen.writer.ms_per_kpose"] = ms * 1000.0 / kRows;
  out["screen.writer.bytes_per_pose"] =
      static_cast<double>(fs::file_size(prefix + ".rank0.h5lt")) / kRows;

  screen::CampaignCheckpoint ck;
  ck.campaign_seed = 1;
  ck.total_poses = static_cast<int64_t>(in.checkpoint_units) * 256;
  ck.poses_per_job = 256;
  ck.nodes = 1;
  ck.gpus_per_node = 4;
  ck.num_shards = 4;
  ck.scoring_batch = kPosesPerBatch;
  ck.unit_status.assign(static_cast<size_t>(in.checkpoint_units), 1);
  ck.unit_attempts.assign(static_cast<size_t>(in.checkpoint_units), 1);
  out["screen.checkpoint.ms"] =
      median_ms(5, [&] { screen::save_campaign_checkpoint(ck, dir.file("campaign.ckpt")); });
}

void measure_docking(const LedgerInputs& in, Metrics& out) {
  const dock::PipelineConfig cfg = campaign_pipeline_config();
  const dock::ConveyorLC pipeline(cfg);
  const dock::DockingEngine engine(cfg.docking);
  std::vector<double> pipeline_ms, mmgbsa_ms;
  double evals = 0.0, dock_s = 0.0;
  core::Rng rng(11);
  for (const chem::Molecule* lig : in.dock_ligands) {
    for (const dock::ReceptorModel& rec : in.dock_receptors) {
      auto t0 = Clock::now();
      const auto res = pipeline.run(*lig, rec, rng);
      pipeline_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      if (!res) continue;  // ligand prep rejected the compound
      t0 = Clock::now();
      const dock::DockingResult dr = engine.dock(res->ligand.mol, rec.pocket, rec.site_center, rng);
      dock_s += seconds_between(t0, Clock::now());
      evals += dr.total_evaluations;
      for (size_t i = 0; i < res->conformers.size() && i < 2; ++i) {
        t0 = Clock::now();
        dock::mmgbsa_score(res->conformers[i], rec.pocket, cfg.mmgbsa);
        mmgbsa_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
    }
  }
  out["dock.conveyorlc_ms_per_compound_target"] = median(pipeline_ms);
  out["dock.docking_evals_per_s"] = dock_s > 0.0 ? evals / dock_s : 0.0;
  out["dock.mmgbsa_ms_per_pose"] = median(mmgbsa_ms);
}

/// Re-run the workload's sampled operations stage by stage under spans.
void replay_path(const LedgerInputs& in, Tracer& t, Metrics& out) {
  Featurizer feat(in.pocket_cache_targets);
  compile::CompiledModel compiled = compile::load_compiled(in.artifact);
  models::Regressor& model = *compiled.model;
  dock::PipelineConfig dock_cfg = campaign_pipeline_config();
  const int rescore_top_n = dock_cfg.rescore_top_n;
  dock_cfg.run_mmgbsa = false;  // rescoring gets its own span below
  const dock::ConveyorLC pipeline(dock_cfg);
  core::Rng rng(13);
  RunDir dir("path");
  std::vector<int64_t> ckpt_status(static_cast<size_t>(in.checkpoint_units), 1);
  const size_t first_span = t.size();

  for (const PathOp& op : in.path) {
    ScopedSpan span(t, "path.op", op.id);
    if (op.wire != nullptr) {
      ScopedSpan s(t, "serve.wire", op.id, span.id());
      const std::string bytes = serve::wire::pack_request(*op.wire, op.id).encode();
      serve::wire::ScoreRequestPayload::decode(bytes);
    }
    std::vector<const serve::PoseInput*> poses = op.poses;
    std::list<serve::PoseInput> docked;
    if (op.dock_ligand != nullptr) {
      for (const dock::ReceptorModel& rec : in.dock_receptors) {
        std::optional<dock::PipelineResult> res;
        {
          ScopedSpan s(t, "dock.docking", op.id, span.id());
          res = pipeline.run(*op.dock_ligand, rec, rng);
        }
        if (!res) break;
        {
          ScopedSpan s(t, "dock.mmgbsa", op.id, span.id());
          for (size_t i = 0; i < res->conformers.size() && i < static_cast<size_t>(rescore_top_n); ++i) {
            dock::mmgbsa_score(res->conformers[i], rec.pocket, dock_cfg.mmgbsa);
          }
        }
        for (const chem::Molecule& conf : res->conformers) {
          docked.push_back(serve::PoseInput{conf, &rec.pocket, rec.site_center});
          poses.push_back(&docked.back());
        }
      }
    }
    std::vector<data::Sample> samples(poses.size());
    for (size_t i = 0; i < poses.size(); ++i) {
      const PocketFeatures& f = feat.pocket(*poses[i], &t, op.id, span.id());
      {
        ScopedSpan s(t, "chem.voxelize_ligand", op.id, span.id());
        samples[i].voxel = feat.voxel(*poses[i], f);
      }
      ScopedSpan s(t, "chem.graph", op.id, span.id());
      samples[i].graph = feat.graph(*poses[i], f);
    }
    std::vector<float> scores;
    for (size_t b = 0; b < samples.size(); b += static_cast<size_t>(op.forward_batch)) {
      std::vector<const data::Sample*> batch;
      for (size_t i = b; i < std::min(samples.size(), b + op.forward_batch); ++i) {
        batch.push_back(&samples[i]);
      }
      ScopedSpan s(t, "models.forward", op.id, span.id());
      const std::vector<float> part = model.predict_batch(batch);
      scores.insert(scores.end(), part.begin(), part.end());
    }
    if (op.write_shard && !scores.empty()) {
      ScopedSpan s(t, "screen.writer", op.id, span.id());
      write_rows(dir.file("op" + std::to_string(op.id)), scores);
    }
    if (op.checkpoint) {
      ScopedSpan s(t, "screen.checkpoint", op.id, span.id());
      screen::CampaignCheckpoint ck;
      ck.unit_status = ckpt_status;
      ck.unit_attempts = ckpt_status;
      screen::save_campaign_checkpoint(ck, dir.file("path.ckpt"));
    }
  }
  const std::map<std::string, double> shares = self_shares(t.self_seconds(first_span));
  for (const std::string& layer : traced_layers()) {
    const auto it = shares.find(layer);
    out["trace.self_share." + layer] = it == shares.end() ? 0.0 : it->second;
  }
}

}  // namespace

dock::PipelineConfig campaign_pipeline_config() {
  dock::PipelineConfig cfg;
  cfg.docking.num_runs = 4;
  cfg.docking.steps_per_run = 50;
  cfg.docking.max_poses = 4;
  cfg.rescore_top_n = 2;
  return cfg;
}

void measure_layers(const LedgerInputs& in, Tracer& tracer, Metrics& out) {
  Featurizer feat(in.pocket_cache_targets + in.poses.size());
  std::vector<float> scores;
  measure_models(in, feat, out, &scores);
  measure_featurizers(in, feat, out);
  measure_scorer(in, out);
  measure_wire(in, out);
  measure_output(in, scores, out);
  measure_docking(in, out);
  replay_path(in, tracer, out);
}

std::vector<double> service_resolve_ms(serve::ScoringService& service,
                                       const std::vector<serve::ScoreRequest>& requests,
                                       int clients, double seconds, uint64_t* failed) {
  std::mutex mu;
  std::vector<double> ms;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> bad{0};
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < deadline) {
        serve::ScoreRequest req = requests[next.fetch_add(1) % requests.size()];
        const auto t0 = Clock::now();
        const serve::ScoreResponse resp = service.submit(std::move(req)).get();
        const double dt = seconds_between(t0, Clock::now()) * 1e3;
        if (resp.error != serve::ScoreError::kNone) bad.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        ms.push_back(dt);
      }
    });
  }
  for (auto& th : threads) th.join();
  *failed += bad.load();
  return ms;
}

}  // namespace perfbench
