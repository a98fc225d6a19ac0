#include "fixture.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "chem/conformer.h"
#include "compile/model_compiler.h"
#include "models/cnn3d.h"
#include "models/sgcnn.h"
#include "serve/scorer.h"

namespace fs = std::filesystem;

namespace perfbench {

chem::VoxelConfig voxel_config() {
  chem::VoxelConfig v;
  v.grid_dim = kGridDim;
  return v;
}

chem::GraphFeaturizerConfig graph_config() { return {}; }

std::unique_ptr<models::FusionModel> make_fusion_model() {
  core::Rng rng(kModelSeed);
  models::Cnn3dConfig cc;
  cc.in_channels = voxel_config().channels();
  cc.grid_dim = kGridDim;
  cc.conv_filters1 = 32;
  cc.conv_filters2 = 64;
  cc.dense_nodes = 128;
  models::SgcnnConfig sc;
  sc.covalent_k = 6;
  sc.covalent_gather_width = 24;
  sc.noncovalent_gather_width = 128;
  auto cnn = std::make_shared<models::Cnn3d>(cc, rng);
  auto sg = std::make_shared<models::Sgcnn>(sc, rng);
  models::FusionConfig fc;
  fc.kind = models::FusionKind::Coherent;
  return std::make_unique<models::FusionModel>(fc, std::move(cnn), std::move(sg), rng);
}

void write_artifact(const std::string& path,
                    const std::vector<const serve::PoseInput*>& warm_batch) {
  serve::RegressorScorer donor(kScorer, make_fusion_model(), voxel_config(), graph_config());
  for (int i = 0; i < 2; ++i) donor.score(warm_batch);
  const auto budgets = donor.workspace_capacities();
  auto model = make_fusion_model();
  compile::save_compiled(*model, path, kPosesPerBatch,
                         {static_cast<int64_t>(budgets.forward_floats),
                          static_cast<int64_t>(budgets.feat_floats)});
}

void register_scorer(serve::ModelRegistry& registry, const std::string& artifact) {
  serve::add_compiled(registry, kScorer, artifact, voxel_config(), graph_config());
}

std::unique_ptr<serve::ScoringService> start_service(const std::string& artifact,
                                                     bool ordered_stream,
                                                     size_t pocket_cache_targets) {
  serve::ModelRegistry reg;  // the service keeps its own snapshot
  register_scorer(reg, artifact);
  serve::ServiceConfig sc;
  sc.workers = kServiceWorkers;
  sc.poses_per_batch = kPosesPerBatch;
  sc.ordered_stream = ordered_stream;
  sc.pipeline_depth = kPipelineDepth;
  sc.pocket_cache_targets = pocket_cache_targets;
  auto service = std::make_unique<serve::ScoringService>(reg, sc);
  service->warmup(kScorer);
  return service;
}

std::vector<std::vector<float>> reference_scores(
    const std::string& artifact, const std::vector<const std::vector<serve::PoseInput>*>& lists) {
  serve::ModelRegistry reg;
  register_scorer(reg, artifact);
  std::vector<std::vector<float>> ref(lists.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::unique_ptr<serve::Scorer> scorer = reg.make(kScorer);
      for (size_t l = next.fetch_add(1); l < lists.size(); l = next.fetch_add(1)) {
        const std::vector<serve::PoseInput>& poses = *lists[l];
        for (size_t b = 0; b < poses.size(); b += kPosesPerBatch) {
          std::vector<const serve::PoseInput*> chunk;
          for (size_t i = b; i < std::min(poses.size(), b + kPosesPerBatch); ++i) {
            chunk.push_back(&poses[i]);
          }
          const std::vector<float> part = scorer->score(chunk);
          ref[l].insert(ref[l].end(), part.begin(), part.end());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return ref;
}

std::vector<chem::Atom> make_receptor(int atoms, core::Rng& rng) {
  // Uniform ball at protein heavy-atom density (~0.055 atoms / A^3).
  const float radius =
      std::cbrt(3.0f * static_cast<float>(atoms) / (4.0f * 3.14159265f * 0.055f));
  std::vector<chem::Atom> pocket;
  pocket.reserve(static_cast<size_t>(atoms));
  for (int i = 0; i < atoms; ++i) {
    core::Vec3 dir{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)};
    const float len = std::max(1e-6f, dir.norm());
    const float r = radius * std::cbrt(rng.uniform());
    chem::Atom a;
    a.pos = core::Vec3{dir.x / len * r, dir.y / len * r, dir.z / len * r};
    const float u = rng.uniform();
    if (u < 0.10f) {
      a.element = rng.bernoulli(0.5) ? chem::Element::N : chem::Element::O;
      a.formal_charge = a.element == chem::Element::N ? 1 : -1;
    } else if (u < 0.60f) {
      a.element = chem::Element::C;
    } else {
      const float v = rng.uniform();
      a.element = v < 0.4f ? chem::Element::O : (v < 0.8f ? chem::Element::N : chem::Element::S);
      a.implicit_h = rng.bernoulli(0.5) ? 1 : 0;
    }
    pocket.push_back(a);
  }
  return pocket;
}

chem::Molecule make_ligand(core::Rng& rng) {
  chem::Molecule lig = chem::generate_molecule({}, rng);
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  return lig;
}

chem::Molecule pose_of(const chem::Molecule& ligand, const core::Vec3& center, core::Rng& rng) {
  chem::Molecule m = ligand;
  const core::Vec3 c = m.centroid();
  core::Vec3 axis{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)};
  if (axis.norm() < 1e-6f) axis = core::Vec3{0.0f, 0.0f, 1.0f};
  m.rotate(c, axis * (1.0f / axis.norm()), rng.uniform() * 6.2831853f);
  const core::Vec3 offset{rng.uniform() * 3.0f - 1.5f, rng.uniform() * 3.0f - 1.5f,
                          rng.uniform() * 3.0f - 1.5f};
  m.translate(center + offset - m.centroid());
  return m;
}

RunDir::RunDir(const std::string& tag) {
  path_ = ".bench_out/" + tag + "-" + std::to_string(::getpid());
  fs::remove_all(path_);
  fs::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string trace_dir() {
  fs::create_directories(".bench_out");
  return ".bench_out";
}

}  // namespace perfbench
