// Pipelined scoring hot path + cross-request pocket cache pins:
//   * the pocket-aware voxel graft (voxelize_ligand_onto) is bitwise
//     identical to joint voxelization at feature-set v1 and v2,
//   * GraphFeaturizer::featurize against a pre-built crop CellList equals
//     the self-built path bitwise,
//   * PocketCache: verified hits return the same entry, LRU eviction and
//     config-change invalidation are observable in stats, held entries
//     survive eviction,
//   * RegressorScorer's stage pipeline is bitwise identical to sequential
//     score() at every depth, and through an ordered-stream ScoringService
//     at every (workers, depth, cache) combination,
//   * cache hit == cache miss bitwise at feature-set v1 AND v2,
//   * a service serving a pipelined and a pipeline-less scorer side by side
//     resolves every request exactly as it does at depth 0, failures
//     included,
//   * featurize-stage errors surface at collect() as typed exceptions and
//     leave the pipeline usable,
//   * a warmed pipeline at depth 2 scores with zero tensor heap
//     allocations while stages overlap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chem/cell_list.h"
#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "core/rng.h"
#include "core/workspace.h"
#include "data/target.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "serve/pocket_cache.h"
#include "serve/registry.h"
#include "serve/scorer.h"
#include "serve/service.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

// ---- fixtures -----------------------------------------------------------

chem::VoxelConfig tiny_voxel(int fsv = 1) {
  chem::VoxelConfig cfg;
  cfg.grid_dim = 8;
  cfg.feature_set_version = fsv;
  return cfg;
}

chem::GraphFeaturizerConfig tiny_graph(int fsv = 1) {
  chem::GraphFeaturizerConfig cfg;
  cfg.feature_set_version = fsv;
  return cfg;
}

models::Cnn3dConfig tiny_cnn_cfg(int in_channels) {
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.in_channels = in_channels;
  cfg.conv_filters1 = 4;
  cfg.conv_filters2 = 8;
  cfg.dense_nodes = 16;
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

std::unique_ptr<models::FusionModel> make_fusion(int voxel_channels, uint64_t seed = 43) {
  Rng rng(seed);
  auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(voxel_channels), rng);
  auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  fcfg.fusion_nodes = 12;
  return std::make_unique<models::FusionModel>(fcfg, cnn, sg, rng);
}

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket, Rng& rng) {
  std::vector<serve::PoseInput> poses;
  poses.reserve(static_cast<size_t>(n));
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

std::vector<const serve::PoseInput*> ptrs_of(const std::vector<serve::PoseInput>& poses) {
  std::vector<const serve::PoseInput*> out;
  out.reserve(poses.size());
  for (const auto& p : poses) out.push_back(&p);
  return out;
}

void expect_bitwise(const std::vector<float>& got, const std::vector<float>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ on floats is exact — bitwise for finite values.
    EXPECT_EQ(got[i], want[i]) << what << " pose " << i;
  }
}

// ---- v2 pocket-aware voxel graft ----------------------------------------

TEST(PocketGraft, V2GraftBitwiseEqualsJointVoxelization) {
  Rng rng(71);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel(2));
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
              0)
        << "v2 graft diverged from joint voxelization, ligand " << i;
  }

  // At v1 the graft must reproduce the joint voxelization too.
  const chem::Voxelizer vox1(tiny_voxel(1));
  const Tensor grid1 = vox1.voxelize_pocket(pocket, {});
  chem::Molecule lig = chem::generate_molecule({}, rng);
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  const Tensor a = vox1.voxelize(lig, pocket, {});
  const Tensor b = vox1.voxelize_ligand_onto(lig, pocket, grid1, {});
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)), 0);
}

TEST(PocketGraft, PrebuiltCropCellsBitwiseEqualsSelfBuilt) {
  Rng rng(72);
  const auto pocket = data::make_pocket({4.5f, 80, 0.6f, 0.5f, 0.1f}, rng);
  std::vector<core::Vec3> pos;
  pos.reserve(pocket.size());
  for (const chem::Atom& a : pocket) pos.push_back(a.pos);

  for (int fsv : {1, 2}) {
    const chem::GraphFeaturizer feat(tiny_graph(fsv));
    chem::CellList cells;
    cells.build(pos.data(), static_cast<int32_t>(pos.size()),
                feat.config().noncovalent_threshold);
    for (int i = 0; i < 3; ++i) {
      chem::Molecule lig = chem::generate_molecule({}, rng);
      chem::embed_conformer(lig, rng);
      lig.translate(core::Vec3{} - lig.centroid());
      const graph::SpatialGraph self = feat.featurize(lig, pocket);
      const graph::SpatialGraph pre = feat.featurize(lig, pocket, &cells);
      ASSERT_EQ(self.num_nodes(), pre.num_nodes()) << "fsv " << fsv;
      ASSERT_EQ(self.node_features.shape(), pre.node_features.shape());
      EXPECT_EQ(std::memcmp(self.node_features.data(), pre.node_features.data(),
                            static_cast<size_t>(self.node_features.numel()) * sizeof(float)),
                0)
          << "fsv " << fsv << " ligand " << i;
      EXPECT_EQ(self.covalent.src, pre.covalent.src);
      EXPECT_EQ(self.covalent.dst, pre.covalent.dst);
      EXPECT_EQ(self.noncovalent.src, pre.noncovalent.src);
      EXPECT_EQ(self.noncovalent.dst, pre.noncovalent.dst);
    }
  }
}

// ---- pocket cache -------------------------------------------------------

TEST(PocketCacheTest, VerifiedHitsReturnTheSameEntry) {
  Rng rng(73);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
  const auto e1 = cache.lookup(pocket, {}, vox, feat);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto e2 = cache.lookup(pocket, {}, vox, feat);
  EXPECT_EQ(e1.get(), e2.get()) << "hit minted a new entry";
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached grid is the protein-only voxelization, bitwise, and owns
  // its storage on the heap (it must survive arena rewinds).
  const Tensor want = vox.voxelize_pocket(pocket, {});
  ASSERT_EQ(e1->grid.shape(), want.shape());
  EXPECT_EQ(std::memcmp(e1->grid.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
  EXPECT_FALSE(e1->grid.borrowed());
  EXPECT_TRUE(e1->crop_cells.built());

  // A different site center is a different entry.
  const auto e3 = cache.lookup(pocket, {1.0f, 0.0f, 0.0f}, vox, feat);
  EXPECT_NE(e1.get(), e3.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PocketCacheTest, LruEvictionAndConfigInvalidation) {
  Rng ra(74), rb(75), rc(76);
  const auto pa = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, ra);
  const auto pb = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rb);
  const auto pc = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rc);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(2);
  cache.lookup(pa, {}, vox, feat);
  const auto held_b = cache.lookup(pb, {}, vox, feat);
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B is the LRU victim, then insert C.
  cache.lookup(pa, {}, vox, feat);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.lookup(pc, {}, vox, feat);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted receptor misses (rebuild), the survivors hit.
  const uint64_t misses_before = cache.stats().misses;
  cache.lookup(pb, {}, vox, feat);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);

  // A held shared_ptr outlives its entry's eviction.
  ASSERT_NE(held_b, nullptr);
  EXPECT_GT(held_b->grid.numel(), 0);
  EXPECT_EQ(held_b->atoms.size(), pb.size());

  // Any featurization-config change is a different key — that IS the
  // invalidation semantics: feature-set version...
  serve::PocketCache fresh(4);
  fresh.lookup(pa, {}, vox, feat);
  const chem::Voxelizer vox_v2(tiny_voxel(2));
  const chem::GraphFeaturizer feat_v2(tiny_graph(2));
  fresh.lookup(pa, {}, vox_v2, feat_v2);
  EXPECT_EQ(fresh.stats().misses, 2u);
  EXPECT_EQ(fresh.stats().hits, 0u);
  // ... and any grid knob.
  chem::VoxelConfig wide = tiny_voxel();
  wide.grid_dim = 12;
  fresh.lookup(pa, {}, chem::Voxelizer(wide), feat);
  EXPECT_EQ(fresh.stats().misses, 3u);
  EXPECT_EQ(fresh.stats().hits, 0u);
}

TEST(PocketCacheTest, ReservedGridStorageBuildsTheFirstMissHeapFree) {
  Rng ra(78), rb(79);
  const auto pa = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, ra);
  const auto pb = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rb);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(1);
  cache.reserve_grid(vox.config());
  const uint64_t reserved = core::alloc_count();
  cache.reserve_grid(vox.config());  // storage already set aside: no-op
  EXPECT_EQ(core::alloc_count(), reserved);

  // The first miss fills the reserved storage, bitwise equal to the heap
  // build, and the entry keeps it alive.
  const auto ea = cache.lookup(pa, {}, vox, feat);
  EXPECT_EQ(core::alloc_count(), reserved) << "first miss touched the heap for the grid";
  ASSERT_NE(ea->storage, nullptr);
  EXPECT_TRUE(ea->grid.borrowed());
  const Tensor want_a = vox.voxelize_pocket(pa, {});
  ASSERT_EQ(ea->grid.shape(), want_a.shape());
  EXPECT_EQ(std::memcmp(ea->grid.data(), want_a.data(),
                        static_cast<size_t>(want_a.numel()) * sizeof(float)),
            0);

  // The storage is spent: the next miss heap-owns its grid, and the
  // evicted entry stays valid for its holder.
  const auto eb = cache.lookup(pb, {}, vox, feat);
  EXPECT_EQ(eb->storage, nullptr);
  EXPECT_FALSE(eb->grid.borrowed());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(std::memcmp(ea->grid.data(), want_a.data(),
                        static_cast<size_t>(want_a.numel()) * sizeof(float)),
            0);
}

TEST(PocketCacheTest, ConcurrentLookupsBuildOnceAndAgree) {
  Rng rng(77);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(4);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const serve::PocketCache::Entry>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[static_cast<size_t>(t)] = cache.lookup(pocket, {}, vox, feat); });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get()) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().misses, 1u) << "the build ran more than once";
}

// ---- pipelined scorer ≡ sequential, bitwise -----------------------------

TEST(PipelinedScorer, BitwiseEqualsSequentialAcrossDepths) {
  Rng rng(81);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kBatches = 6;
  std::vector<std::vector<serve::PoseInput>> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(make_poses(5, &pocket, rng));

  // Baseline: plain sequential score() on a fresh replica.
  std::vector<std::vector<float>> want;
  {
    serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                  tiny_graph());
    for (const auto& b : batches) want.push_back(scorer.score(ptrs_of(b)));
  }

  for (int depth : {1, 2, 4}) {
    serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                  tiny_graph());
    scorer.set_pipeline_depth(depth);
    serve::ScorerPipeline* pipe = scorer.pipeline();
    ASSERT_NE(pipe, nullptr);
    EXPECT_EQ(pipe->depth(), depth);

    const std::string tag = "depth=" + std::to_string(depth);
    std::vector<std::vector<float>> got;
    for (const auto& b : batches) {
      if (pipe->in_flight() == static_cast<size_t>(depth)) got.push_back(pipe->collect());
      pipe->submit(ptrs_of(b));
    }
    while (pipe->in_flight() > 0) got.push_back(pipe->collect());
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (int b = 0; b < kBatches; ++b) {
      expect_bitwise(got[static_cast<size_t>(b)], want[static_cast<size_t>(b)],
                     tag + " batch " + std::to_string(b));
    }

    // The drained replica's sequential path is untouched by pipelining.
    expect_bitwise(scorer.score(ptrs_of(batches[0])), want[0], tag + " post-drain score()");
    // Stats account every batch exactly once, at collect time.
    EXPECT_EQ(scorer.phase_stats().batches, static_cast<uint64_t>(kBatches + 1)) << tag;

    // Depth 0 tears the pipeline down.
    scorer.set_pipeline_depth(0);
    EXPECT_EQ(scorer.pipeline(), nullptr) << tag;
  }
}

TEST(PipelinedScorer, CacheHitBitwiseEqualsMissAtBothFeatureSetVersions) {
  Rng rng(82);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  for (int fsv : {1, 2}) {
    const chem::VoxelConfig voxel = tiny_voxel(fsv);
    std::vector<std::vector<serve::PoseInput>> batches;
    for (int b = 0; b < 3; ++b) batches.push_back(make_poses(5, &pocket, rng));

    serve::RegressorScorer plain("fusion", make_fusion(voxel.channels()), voxel, tiny_graph(fsv));
    serve::RegressorScorer cached("fusion", make_fusion(voxel.channels()), voxel, tiny_graph(fsv));
    auto cache = std::make_shared<serve::PocketCache>(4);
    cached.set_pocket_cache(cache);

    for (int b = 0; b < 3; ++b) {
      const auto want = plain.score(ptrs_of(batches[static_cast<size_t>(b)]));
      const auto got = cached.score(ptrs_of(batches[static_cast<size_t>(b)]));
      expect_bitwise(got, want, "fsv=" + std::to_string(fsv) + " batch " + std::to_string(b));
    }
    // One build, then every batch reuses it: one lookup per batch.
    EXPECT_EQ(cache->stats().misses, 1u) << "fsv " << fsv;
    EXPECT_EQ(cache->stats().hits, 2u) << "fsv " << fsv;
  }
}

TEST(PipelinedScorer, ErrorsSurfaceAtCollectAndThePipelineSurvives) {
  Rng rng(83);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto good = make_poses(4, &pocket, rng);
  auto bad = make_poses(2, &pocket, rng);
  bad[1].pocket = nullptr;  // the classic client bug

  serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                tiny_graph());
  const auto want = scorer.score(ptrs_of(good));

  scorer.set_pipeline_depth(2);
  serve::ScorerPipeline* pipe = scorer.pipeline();
  ASSERT_NE(pipe, nullptr);
  EXPECT_THROW(pipe->collect(), std::logic_error);  // nothing in flight

  pipe->submit(ptrs_of(bad));
  pipe->submit(ptrs_of(good));
  // score() must refuse to race in-flight pipelined batches.
  EXPECT_THROW(scorer.score(ptrs_of(good)), std::logic_error);
  EXPECT_THROW(pipe->collect(), std::invalid_argument);  // the null pocket, rethrown
  // The failed slot is released; the next batch is unaffected.
  expect_bitwise(pipe->collect(), want, "batch after a failed one");
  EXPECT_EQ(pipe->in_flight(), 0u);
}

TEST(PipelinedScorer, SteadyStateZeroTensorHeapAllocationsAtDepth2) {
  Rng rng(84);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(8, &pocket, rng);
  const auto ptrs = ptrs_of(poses);

  serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                tiny_graph());
  auto cache = std::make_shared<serve::PocketCache>(4);
  scorer.set_pocket_cache(cache);
  scorer.set_pipeline_depth(2);
  serve::ScorerPipeline* pipe = scorer.pipeline();
  ASSERT_NE(pipe, nullptr);

  // Warm every ring slot (and the cache entry) so all arenas are sized.
  for (int round = 0; round < 4; ++round) {
    pipe->submit(ptrs);
    pipe->submit(ptrs);
    pipe->collect();
    pipe->collect();
  }

  // Steady state with stages genuinely overlapping: keep the ring full so
  // the stage thread featurizes batch N+1 while collect() forwards N.
  const uint64_t before = core::alloc_count();
  std::vector<float> out;
  pipe->submit(ptrs);
  pipe->submit(ptrs);
  for (int round = 0; round < 6; ++round) {
    out = pipe->collect();
    pipe->submit(ptrs);
  }
  out = pipe->collect();
  out = pipe->collect();
  EXPECT_EQ(core::alloc_count(), before)
      << "steady-state pipelined scoring touched the heap for tensor data";
  ASSERT_EQ(out.size(), ptrs.size());
}

// ---- through the service ------------------------------------------------

TEST(PipelinedService, OrderedStreamBitwiseAcrossDepthWorkersAndCache) {
  Rng rng(85);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kClients = 3;
  std::vector<std::vector<serve::PoseInput>> client_poses;
  for (int c = 0; c < kClients; ++c) client_poses.push_back(make_poses(10, &pocket, rng));

  struct Config {
    int workers;
    int depth;
    size_t cache_targets;
  };
  const auto run_config = [&](const Config& cc) {
    serve::ModelRegistry reg;
    serve::add_regressor(
        reg, "fusion",
        [] {
          Rng mrng(43);
          auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(tiny_voxel().channels()), mrng);
          auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), mrng);
          models::FusionConfig fcfg;
          fcfg.kind = models::FusionKind::Mid;
          fcfg.model_specific_layers = true;
          fcfg.fusion_nodes = 12;
          return std::make_unique<models::FusionModel>(fcfg, cnn, sg, mrng);
        },
        tiny_voxel(), tiny_graph());
    serve::ServiceConfig sc;
    sc.workers = cc.workers;
    sc.poses_per_batch = 4;  // 10-pose requests split 4/4/2
    sc.ordered_stream = true;
    sc.pipeline_depth = cc.depth;
    sc.pocket_cache_targets = cc.cache_targets;
    serve::ScoringService service(reg, sc);
    std::vector<std::vector<float>> scores(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ScoreRequest req;
        req.scorer = "fusion";
        req.client = "client" + std::to_string(c);
        req.poses = client_poses[static_cast<size_t>(c)];
        scores[static_cast<size_t>(c)] = service.score(std::move(req)).scores;
      });
    }
    for (auto& t : clients) t.join();
    return scores;
  };

  const auto baseline = run_config({1, 0, 0});
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(baseline[static_cast<size_t>(c)].size(), 10u);
  }
  const Config configs[] = {
      {1, 2, 4},  // pipelined + cached, single worker
      {4, 2, 4},  // pipelined + cached, parallel workers
      {2, 4, 0},  // deep pipeline, no cache
      {1, 0, 4},  // cache only, sequential
  };
  for (const Config& cc : configs) {
    const auto got = run_config(cc);
    const std::string tag = "workers=" + std::to_string(cc.workers) +
                            " depth=" + std::to_string(cc.depth) +
                            " cache=" + std::to_string(cc.cache_targets);
    for (int c = 0; c < kClients; ++c) {
      expect_bitwise(got[static_cast<size_t>(c)], baseline[static_cast<size_t>(c)],
                     tag + " client " + std::to_string(c));
    }
  }
}

TEST(PipelinedService, TypedErrorsAndDrainWithBatchesInFlight) {
  Rng rng(86);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg;
  serve::add_regressor(
      reg, "fusion",
      [] {
        Rng mrng(43);
        auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(tiny_voxel().channels()), mrng);
        auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), mrng);
        models::FusionConfig fcfg;
        fcfg.kind = models::FusionKind::Mid;
        return std::make_unique<models::FusionModel>(fcfg, cnn, sg, mrng);
      },
      tiny_voxel(), tiny_graph());
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.ordered_stream = true;
  sc.pipeline_depth = 2;
  sc.pocket_cache_targets = 2;
  serve::ScoringService service(reg, sc);

  // A featurize-stage failure maps to the same typed error as sequential.
  {
    serve::ScoreRequest req;
    req.scorer = "fusion";
    req.poses = make_poses(6, &pocket, rng);
    req.poses[5].pocket = nullptr;
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kScorerFailure);
    EXPECT_TRUE(resp.scores.empty());
  }
  // And a good request right after scores normally (the worker's pipeline
  // survived the failed batch).
  {
    serve::ScoreRequest req;
    req.scorer = "fusion";
    req.poses = make_poses(6, &pocket, rng);
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kNone);
    EXPECT_EQ(resp.scores.size(), 6u);
  }
  // drain() must wait out in-flight pipelined batches too.
  service.drain();
  service.shutdown();
}

// ---- mixed backends through the one worker dispatch path ----------------

// Holds the worker in its first score() until opened, so a test can queue a
// whole workload before any of it is dispatched.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;
};

class GateScorer : public serve::Scorer {
 public:
  explicit GateScorer(Gate& gate) : gate_(gate) {}
  std::string name() const override { return "gate"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    std::unique_lock<std::mutex> lock(gate_.mu);
    gate_.entered = true;
    gate_.cv.notify_all();
    gate_.cv.wait(lock, [&] { return gate_.open; });
    return std::vector<float>(poses.size(), 0.0f);
  }

 private:
  Gate& gate_;
};

class ThrowingScorer : public serve::Scorer {
 public:
  std::string name() const override { return "boom"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& /*poses*/) override {
    throw std::runtime_error("boom: scorer failure");
  }
};

// Throws an exception whose what() is empty.
class SilentThrowScorer : public serve::Scorer {
 public:
  std::string name() const override { return "silent"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& /*poses*/) override {
    throw std::runtime_error("");
  }
};

struct MixedRequest {
  std::string scorer;
  std::vector<serve::PoseInput> poses;
};

struct MixedRun {
  std::vector<serve::ScoreResponse> responses;  // in plan order
  serve::ServiceStats stats;
};

// Two clients submit `plan` alternately (client i % 2 sends request i),
// taking turns so the queue order is the plan order, while the one gated
// worker is held; then the gate opens and every request resolves.
MixedRun run_mixed(const std::vector<MixedRequest>& plan, bool ordered, int depth) {
  Gate gate;
  serve::ModelRegistry reg;
  serve::add_regressor(reg, "fusion", [] { return make_fusion(tiny_voxel().channels()); },
                       tiny_voxel(), tiny_graph());
  reg.add("vina_pk", [] { return std::make_unique<serve::VinaPkScorer>(); });
  reg.add("boom", [] { return std::make_unique<ThrowingScorer>(); });
  reg.add("gate", [&gate] { return std::make_unique<GateScorer>(gate); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.ordered_stream = ordered;
  sc.flush_deadline_ms = 0.05;
  sc.pipeline_depth = depth;
  serve::ScoringService service(reg, sc);

  Rng rng(88);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ScoreRequest gate_req;
  gate_req.scorer = "gate";
  gate_req.poses = make_poses(1, &pocket, rng);
  std::future<serve::ScoreResponse> gate_done = service.submit(std::move(gate_req));
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&] { return gate.entered; });
  }

  std::vector<std::future<serve::ScoreResponse>> futures(plan.size());
  std::atomic<size_t> turn{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < plan.size(); i += 2) {
        while (turn.load() != i) std::this_thread::yield();
        serve::ScoreRequest req;
        req.scorer = plan[i].scorer;
        req.client = "client" + std::to_string(c);
        req.poses = plan[i].poses;
        futures[i] = service.submit(std::move(req));
        turn.store(i + 1);
      }
    });
  }
  for (auto& t : clients) t.join();
  // Every queued head is now older than the flush window, so the batcher
  // picks in queue order and batch composition is fixed by the plan alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();

  MixedRun run;
  EXPECT_EQ(gate_done.get().error, serve::ScoreError::kNone);
  for (auto& f : futures) run.responses.push_back(f.get());
  run.stats = service.stats();
  return run;
}

TEST(PipelinedService, MixedBackendsResolveAsAtDepthZero) {
  Rng rng(87);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const char* const scorers[] = {"fusion", "vina_pk", "fusion", "boom",   "vina_pk", "fusion",
                                 "fusion", "vina_pk", "boom",   "fusion", "vina_pk", "fusion"};
  const int sizes[] = {3, 2, 5, 1, 4, 3, 2, 6, 1, 3, 2, 4};
  std::vector<MixedRequest> plan;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    plan.push_back({scorers[i], make_poses(sizes[i], &pocket, rng)});
  }

  for (bool ordered : {true, false}) {
    const std::string mode = ordered ? "ordered-stream" : "coalescing";
    const MixedRun want = run_mixed(plan, ordered, 0);
    const MixedRun got = run_mixed(plan, ordered, 2);
    ASSERT_EQ(got.responses.size(), plan.size()) << mode;
    for (size_t i = 0; i < plan.size(); ++i) {
      const std::string tag = mode + " request " + std::to_string(i) + " (" + plan[i].scorer + ")";
      if (plan[i].scorer == "boom") {
        EXPECT_EQ(got.responses[i].error, serve::ScoreError::kScorerFailure) << tag;
        EXPECT_TRUE(got.responses[i].scores.empty()) << tag;
      } else {
        EXPECT_EQ(got.responses[i].error, serve::ScoreError::kNone) << tag;
        EXPECT_EQ(got.responses[i].scores.size(), plan[i].poses.size()) << tag;
      }
      EXPECT_EQ(got.responses[i].error, want.responses[i].error) << tag;
      expect_bitwise(got.responses[i].scores, want.responses[i].scores, tag);
    }
    EXPECT_EQ(got.stats.batches, want.stats.batches) << mode;
    EXPECT_EQ(got.stats.coalesced_batches, want.stats.coalesced_batches) << mode;
    if (!ordered) {
      EXPECT_GT(got.stats.coalesced_batches, 0u) << "no cross-client batch formed";
    }
    // Every resolved request, the gate's and the failed ones included.
    EXPECT_EQ(got.stats.latency.count(), plan.size() + 1) << mode;
    EXPECT_EQ(want.stats.latency.count(), plan.size() + 1) << mode;
  }
}

TEST(PipelinedService, EmptyMessageFailuresResolveAsScorerFailure) {
  // A scorer or a replica factory may throw with an empty what(); the
  // batch must still fail typed, never pass as an empty success.
  Rng rng(88);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg;
  reg.add("silent", [] { return std::make_unique<SilentThrowScorer>(); });
  reg.add("unbuildable", []() -> std::unique_ptr<serve::Scorer> {
    throw std::runtime_error("");
  });
  reg.add("vina_pk", [] { return std::make_unique<serve::VinaPkScorer>(); });
  for (int depth : {0, 2}) {
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.poses_per_batch = 4;
    sc.pipeline_depth = depth;
    serve::ScoringService service(reg, sc);
    for (const char* name : {"silent", "unbuildable"}) {
      const std::string tag = std::string(name) + " depth=" + std::to_string(depth);
      serve::ScoreRequest req;
      req.scorer = name;
      req.poses = make_poses(3, &pocket, rng);
      const serve::ScoreResponse resp = service.score(std::move(req));
      EXPECT_EQ(resp.error, serve::ScoreError::kScorerFailure) << tag;
      EXPECT_TRUE(resp.scores.empty()) << tag;
      EXPECT_NE(resp.message.find(name), std::string::npos) << tag << ": " << resp.message;
    }
    // The worker survives both and keeps serving.
    serve::ScoreRequest req;
    req.scorer = "vina_pk";
    req.poses = make_poses(3, &pocket, rng);
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kNone) << "depth=" << depth;
    EXPECT_EQ(resp.scores.size(), 3u);
  }
}

}  // namespace
}  // namespace df
