// Serving hot-path pins for the zero-allocation engine:
//   * fused GEMM epilogues (bias + activation on the hot micro-tile) agree
//     with the unfused gemm -> bias -> activation sequence,
//   * the batched block-diagonal SG-CNN / fusion forward is bitwise equal
//     to the per-pose path for randomized graphs, including single-atom
//     ligands and empty pockets,
//   * a RegressorScorer's workspace arenas can be rewound and reused across
//     hundreds of batches without drifting a single bit,
//   * a warmed steady-state score() performs zero tensor heap allocations
//     (core::alloc_count() pins the Tensor/Workspace instrumentation hook).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "core/gemm.h"
#include "core/rng.h"
#include "core/workspace.h"
#include "data/target.h"
#include "models/fusion.h"
#include "serve/scorer.h"

namespace df {
namespace {

using core::Epilogue;
using core::EpilogueAct;
using core::Rng;
using core::Tensor;

// ---- fixtures -----------------------------------------------------------

chem::VoxelConfig tiny_voxel() {
  chem::VoxelConfig cfg;
  cfg.grid_dim = 8;
  return cfg;
}

models::SgcnnConfig tiny_sg_cfg() {
  models::SgcnnConfig cfg;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  cfg.covalent_gather_width = 12;
  cfg.noncovalent_gather_width = 16;
  return cfg;
}

models::Cnn3dConfig tiny_cnn_cfg() {
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.conv_filters1 = 4;
  cfg.conv_filters2 = 8;
  cfg.dense_nodes = 16;
  return cfg;
}

std::unique_ptr<models::FusionModel> make_fusion(uint64_t seed = 43) {
  Rng rng(seed);
  auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(), rng);
  auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  fcfg.fusion_nodes = 12;
  return std::make_unique<models::FusionModel>(fcfg, cnn, sg, rng);
}

/// Random spatial graph with `n` nodes (ligand nodes first).
graph::SpatialGraph random_graph(Rng& rng, int n, int n_ligand, int feature_dim) {
  graph::SpatialGraph g;
  g.node_features = Tensor::randn({n, feature_dim}, rng);
  g.num_ligand_nodes = n_ligand;
  for (int e = 0; e < 3 * n; ++e) {
    const auto a = static_cast<int32_t>(rng.randint(0, n - 1));
    const auto b = static_cast<int32_t>(rng.randint(0, n - 1));
    if (rng.uniform() < 0.4) g.covalent.add_undirected(a, b);
    else g.noncovalent.add_undirected(a, b);
  }
  return g;
}

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket, Rng& rng) {
  std::vector<serve::PoseInput> poses;
  for (int i = 0; i < n; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    serve::PoseInput p;
    p.ligand = std::move(lig);
    p.pocket = pocket;
    poses.push_back(std::move(p));
  }
  return poses;
}

// ---- workspace arena ----------------------------------------------------

TEST(Workspace, BumpAllocAndReset) {
  core::Workspace ws(/*initial_floats=*/64);
  float* a = ws.alloc(10);
  float* b = ws.alloc(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  const size_t used = ws.in_use();
  EXPECT_GT(used, 0u);
  ws.reset();
  EXPECT_EQ(ws.in_use(), 0u);
  // Reset hands the same bytes out again.
  EXPECT_EQ(ws.alloc(10), a);
}

TEST(Workspace, CheckpointRestoreReleasesTail) {
  core::Workspace ws(64);
  ws.alloc(16);
  const auto cp = ws.checkpoint();
  float* t = ws.alloc(1 << 12);  // forces block growth
  ASSERT_NE(t, nullptr);
  const size_t grown = ws.in_use();
  ws.restore(cp);
  EXPECT_LT(ws.in_use(), grown);
  EXPECT_GT(ws.capacity(), 0u);
}

TEST(Workspace, BindRoutesTensorStorageToArena) {
  core::Workspace ws;
  EXPECT_EQ(core::Workspace::current(), nullptr);
  const uint64_t before = core::alloc_count();
  {
    core::Workspace::Bind bind(ws);
    EXPECT_EQ(core::Workspace::current(), &ws);
    // Warm the arena (may grow once), then further tensors are free.
    { Tensor warm({64, 64}); }
    const uint64_t after_warm = core::alloc_count();
    Tensor t({16, 16});
    EXPECT_TRUE(t.borrowed());
    Tensor u = t * 2.0f;  // copies also draw from the arena
    EXPECT_TRUE(u.borrowed());
    EXPECT_EQ(core::alloc_count(), after_warm);
  }
  EXPECT_EQ(core::Workspace::current(), nullptr);
  Tensor heap({4});
  EXPECT_FALSE(heap.borrowed());
  EXPECT_GT(core::alloc_count(), before);
}

// ---- fused epilogue =====  gemm + bias + activation ---------------------

TEST(FusedEpilogue, MatchesUnfusedReferenceAcrossShapesAndActs) {
  Rng rng(7);
  const struct {
    int64_t m, n, k;
  } shapes[] = {{1, 12, 12}, {33, 24, 38}, {8, 64, 500}, {70, 48, 192}, {5, 100, 40}};
  const EpilogueAct acts[] = {EpilogueAct::kNone,      EpilogueAct::kReLU,
                              EpilogueAct::kLeakyReLU, EpilogueAct::kSELU,
                              EpilogueAct::kSigmoid,   EpilogueAct::kTanh};
  for (const auto& s : shapes) {
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor bias = Tensor::randn({s.n}, rng);
    for (EpilogueAct act : acts) {
      Epilogue ep;
      ep.act = act;
      ep.bias_col = bias.data();
      Tensor fused({s.m, s.n});
      core::sgemm(false, false, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, fused.data(), s.n,
                  false, &ep);
      // Unfused reference on the same kernel: plain gemm, then bias, then
      // the same activation applied through a 1-row epilogue-only pass
      // (k=0 gemm), which exercises the scalar reference implementation.
      Tensor ref({s.m, s.n});
      core::sgemm(false, false, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, ref.data(), s.n);
      Epilogue tail = ep;
      core::sgemm(false, false, s.m, s.n, 0, a.data(), s.k, b.data(), s.n, ref.data(), s.n,
                  /*accumulate=*/true, &tail);
      for (int64_t i = 0; i < fused.numel(); ++i) {
        EXPECT_NEAR(fused[i], ref[i], 2e-6f)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " act=" << static_cast<int>(act);
      }
      // And against the naive triple loop with the same epilogue semantics.
      Tensor naive({s.m, s.n});
      core::sgemm_naive(false, false, s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, naive.data(),
                        s.n, false, &ep);
      for (int64_t i = 0; i < fused.numel(); ++i) {
        EXPECT_NEAR(fused[i], naive[i], 5e-4f) << "naive mismatch act=" << static_cast<int>(act);
      }
    }
  }
}

TEST(FusedEpilogue, RowBiasAndAccumulate) {
  Rng rng(11);
  const int64_t m = 9, n = 40, k = 77;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor rbias = Tensor::randn({m}, rng);
  Tensor base = Tensor::randn({m, n}, rng);

  Epilogue ep;
  ep.act = EpilogueAct::kReLU;
  ep.bias_row = rbias.data();
  Tensor fused = base;
  core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, fused.data(), n,
              /*accumulate=*/true, &ep);

  Tensor ref = base;
  core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, ref.data(), n, /*accumulate=*/true);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      const float v = ref.at(i, j) + rbias[i];
      ref.at(i, j) = v > 0.0f ? v : 0.0f;
    }
  for (int64_t i = 0; i < fused.numel(); ++i) EXPECT_EQ(fused[i], ref[i]);
}

// ---- batched block-diagonal SG-CNN / fusion ≡ per pose ------------------

TEST(PackGraphs, LayoutAndErrors) {
  Rng rng(3);
  graph::SpatialGraph a = random_graph(rng, 5, 3, 7);
  graph::SpatialGraph b = random_graph(rng, 2, 1, 7);
  const auto packed = graph::pack_graphs({&a, &b});
  EXPECT_EQ(packed.num_graphs(), 2);
  EXPECT_EQ(packed.total_nodes(), 7);
  EXPECT_EQ(packed.node_offset, (std::vector<int64_t>{0, 5, 7}));
  EXPECT_EQ(packed.ligand_counts, (std::vector<int64_t>{3, 1}));
  EXPECT_EQ(packed.covalent.size() + packed.noncovalent.size(),
            a.covalent.size() + a.noncovalent.size() + b.covalent.size() + b.noncovalent.size());
  // Second graph's rows follow the first, edges shifted by its offset.
  EXPECT_EQ(packed.node_features.at(5, 0), b.node_features.at(0, 0));
  for (size_t e = 0; e < packed.covalent.size(); ++e) {
    EXPECT_LT(packed.covalent.src[e], 7);
    EXPECT_GE(packed.covalent.src[e], 0);
  }

  EXPECT_THROW(graph::pack_graphs({}), std::invalid_argument);
  graph::SpatialGraph empty;
  EXPECT_THROW(graph::pack_graphs({&empty}), std::invalid_argument);
}

TEST(BatchedGraph, SgcnnBatchBitwiseEqualsPerPose) {
  Rng rng(21);
  models::SgcnnConfig cfg = tiny_sg_cfg();
  cfg.node_features = 9;
  Rng mrng(77);
  models::Sgcnn model(cfg, mrng);
  model.set_training(false);

  // Randomized sizes plus the edge cases: a single-atom ligand graph (no
  // edges) and a ligand-only graph (empty pocket => all nodes are ligand).
  std::vector<graph::SpatialGraph> graphs;
  for (int i = 0; i < 9; ++i) {
    const int n = 2 + static_cast<int>(rng.randint(0, 30));
    graphs.push_back(random_graph(rng, n, std::max(1, n / 2), 9));
  }
  graphs.push_back(random_graph(rng, 1, 1, 9));  // single atom, no edges
  {
    graph::SpatialGraph lig_only = random_graph(rng, 6, 6, 9);  // empty pocket
    graphs.push_back(std::move(lig_only));
  }

  std::vector<data::Sample> samples(graphs.size());
  std::vector<const data::Sample*> batch;
  for (size_t i = 0; i < graphs.size(); ++i) {
    samples[i].graph = graphs[i];
    batch.push_back(&samples[i]);
  }

  std::vector<float> single;
  for (const auto& s : samples) single.push_back(model.predict(s));
  const std::vector<float> batched = model.predict_batch(batch);
  ASSERT_EQ(batched.size(), single.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(batched[i], single[i]) << "pose " << i << " diverged (must be bitwise)";
  }

  EXPECT_TRUE(model.predict_batch({}).empty());
}

TEST(BatchedGraph, FusionBatchBitwiseEqualsPerPoseOnRealFeaturization) {
  Rng rng(22);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const std::vector<chem::Atom> empty_pocket;
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat{chem::GraphFeaturizerConfig{}};

  std::vector<data::Sample> samples;
  for (int i = 0; i < 7; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    // Every other pose scores against an empty pocket.
    const std::vector<chem::Atom>& pk = (i % 2 == 0) ? pocket : empty_pocket;
    data::Sample s;
    s.voxel = vox.voxelize(lig, pk, {});
    s.graph = feat.featurize(lig, pk);
    samples.push_back(std::move(s));
  }
  std::vector<const data::Sample*> batch;
  for (const auto& s : samples) batch.push_back(&s);

  auto fusion = make_fusion();
  fusion->set_training(false);
  std::vector<float> single;
  for (const auto& s : samples) single.push_back(fusion->predict(s));
  const std::vector<float> batched = fusion->predict_batch(batch);
  ASSERT_EQ(batched.size(), single.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(batched[i], single[i]) << "pose " << i << " diverged (must be bitwise)";
  }
}

// ---- pocket grid reuse --------------------------------------------------

TEST(Voxelizer, PocketGridGraftBitwiseEqualsJointVoxelization) {
  Rng rng(5);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel());
  const Tensor pocket_grid = vox.voxelize_pocket(pocket, {});
  for (int i = 0; i < 4; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    const Tensor joint = vox.voxelize(lig, pocket, {});
    const Tensor grafted = vox.voxelize_ligand_onto(lig, pocket, pocket_grid, {});
    ASSERT_EQ(joint.shape(), grafted.shape());
    EXPECT_EQ(std::memcmp(joint.data(), grafted.data(),
                          static_cast<size_t>(joint.numel()) * sizeof(float)),
              0);
  }
}

// ---- scorer: workspace reuse + zero allocations -------------------------

TEST(ScorerHotPath, WorkspaceReuseIsBitwiseStableOver100Batches) {
  Rng rng(33);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(6, &pocket, rng);
  std::vector<const serve::PoseInput*> ptrs;
  for (const auto& p : poses) ptrs.push_back(&p);

  serve::RegressorScorer scorer("fusion", make_fusion(), tiny_voxel(), {});
  const std::vector<float> first = scorer.score(ptrs);
  ASSERT_EQ(first.size(), ptrs.size());
  for (int rep = 0; rep < 100; ++rep) {
    const std::vector<float> again = scorer.score(ptrs);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(again[i], first[i]) << "rep " << rep << " pose " << i;
    }
  }
  EXPECT_EQ(scorer.phase_stats().batches, 101u);
  EXPECT_EQ(scorer.phase_stats().poses, 101u * ptrs.size());
}

TEST(ScorerHotPath, SteadyStateScoreMakesZeroTensorHeapAllocations) {
  Rng rng(34);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(8, &pocket, rng);
  std::vector<const serve::PoseInput*> ptrs;
  for (const auto& p : poses) ptrs.push_back(&p);

  // No cache attached: the replica's private pocket cache must hit on the
  // same pocket and keep steady state heap-free.
  serve::RegressorScorer scorer("fusion", make_fusion(), tiny_voxel(), {});
  // Warmup sizes the arenas; afterwards every tensor in featurize +
  // forward lives in workspace memory.
  for (int i = 0; i < 3; ++i) scorer.score(ptrs);
  const uint64_t before = core::alloc_count();
  const std::vector<float> out = scorer.score(ptrs);
  EXPECT_EQ(core::alloc_count(), before) << "steady-state score() touched the heap for tensor data";
  ASSERT_EQ(out.size(), ptrs.size());
}

}  // namespace
}  // namespace df
