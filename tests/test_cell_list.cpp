// Neighbor-search pins for the chem::CellList engine (ROADMAP item 4):
//   * gather() is a sorted superset of the in-radius set; knearest() matches
//     the full (distance, index) sort exactly, ties included,
//   * the cell-list and brute-force featurizer paths produce bitwise
//     identical graphs — node features, both edge lists, crop order — across
//     random geometries and cutoff boundary cases (atom exactly at the
//     threshold, far off-grid atoms, empty pocket, single atom),
//   * all MM-GBSA terms (LJ, GB with a finite cutoff, SA, electrostatics)
//     and the full mmgbsa_score pipeline are bitwise identical on both
//     paths, and elec_energy reproduces score_terms().electrostatic bit for
//     bit (the minimizer-objective bugfix rests on this),
//   * outputs are bitwise independent of compute-pool thread count,
//   * the pocket crop breaks distance ties by index (symmetric pockets),
//   * feature_set_version wiring: v1 stays bitwise-pinned next to v2, v2
//     adds the H-bond channels/degrees, and mismatched versions are
//     rejected by the scorer and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chem/cell_list.h"
#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "chem/hbond.h"
#include "chem/smiles.h"
#include "chem/voxelizer.h"
#include "compile/model_compiler.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "data/target.h"
#include "dock/mmgbsa.h"
#include "dock/scoring.h"
#include "models/cnn3d.h"
#include "serve/registry.h"
#include "serve/scorer.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;
using core::Vec3;

std::vector<Vec3> random_points(Rng& rng, int n, float extent) {
  std::vector<Vec3> pts(static_cast<size_t>(n));
  for (Vec3& p : pts) {
    p = {(rng.uniform() - 0.5f) * extent, (rng.uniform() - 0.5f) * extent,
         (rng.uniform() - 0.5f) * extent};
  }
  return pts;
}

chem::Molecule random_ligand(Rng& rng) {
  chem::Molecule m = chem::generate_molecule({}, rng);
  chem::embed_conformer(m, rng);
  return m;
}

std::vector<chem::Atom> random_pocket(Rng& rng, int n, float radius = 7.0f) {
  data::PocketConfig pc;
  pc.num_atoms = n;
  pc.radius = radius;
  return data::make_pocket(pc, rng);
}

void expect_tensor_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)));
}

void expect_graph_bitwise(const graph::SpatialGraph& a, const graph::SpatialGraph& b) {
  EXPECT_EQ(a.num_ligand_nodes, b.num_ligand_nodes);
  expect_tensor_bitwise(a.node_features, b.node_features);
  EXPECT_EQ(a.covalent.src, b.covalent.src);
  EXPECT_EQ(a.covalent.dst, b.covalent.dst);
  EXPECT_EQ(a.noncovalent.src, b.noncovalent.src);
  EXPECT_EQ(a.noncovalent.dst, b.noncovalent.dst);
  EXPECT_EQ(a.noncovalent_features.empty(), b.noncovalent_features.empty());
  if (!a.noncovalent_features.empty()) {
    expect_tensor_bitwise(a.noncovalent_features, b.noncovalent_features);
  }
}

// ---- CellList unit pins --------------------------------------------------

TEST(CellList, GatherIsSortedSupersetOfRadius) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<Vec3> pts = random_points(rng, 200, 30.0f);
    chem::CellList cells;
    const float r = 5.0f;
    cells.build(pts.data(), static_cast<int32_t>(pts.size()), r);
    std::vector<int32_t> got;
    for (int probe = 0; probe < 20; ++probe) {
      const Vec3 p = {(rng.uniform() - 0.5f) * 40.0f, (rng.uniform() - 0.5f) * 40.0f,
                      (rng.uniform() - 0.5f) * 40.0f};
      cells.gather(p, got);
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
      for (size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].dist(p) <= r) {
          EXPECT_TRUE(std::binary_search(got.begin(), got.end(), static_cast<int32_t>(i)))
              << "atom " << i << " within radius missing from gather";
        }
      }
    }
  }
}

TEST(CellList, KNearestMatchesFullSortWithIndexTieBreak) {
  Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<Vec3> pts = random_points(rng, 150, 25.0f);
    chem::CellList cells;
    cells.build(pts.data(), static_cast<int32_t>(pts.size()), 4.0f);
    const Vec3 p = {(rng.uniform() - 0.5f) * 25.0f, (rng.uniform() - 0.5f) * 25.0f,
                    (rng.uniform() - 0.5f) * 25.0f};
    for (int k : {1, 7, 64, 150}) {
      std::vector<int32_t> got;
      cells.knearest(p, k, got);
      std::vector<std::pair<float, int32_t>> ref(pts.size());
      for (size_t i = 0; i < pts.size(); ++i) ref[i] = {pts[i].dist(p), static_cast<int32_t>(i)};
      std::sort(ref.begin(), ref.end());
      ASSERT_EQ(got.size(), static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)].second);
    }
  }
}

TEST(CellList, EmptyAndSingleAtom) {
  chem::CellList cells;
  cells.build(nullptr, 0, 3.0f);
  std::vector<int32_t> got{99};
  cells.gather({0, 0, 0}, got);
  EXPECT_TRUE(got.empty());
  cells.knearest({0, 0, 0}, 4, got);
  EXPECT_TRUE(got.empty());

  const Vec3 one{1, 2, 3};
  cells.build(&one, 1, 3.0f);
  cells.gather({1, 2, 3}, got);
  EXPECT_EQ(got, (std::vector<int32_t>{0}));
  cells.knearest({100, 100, 100}, 5, got);  // probe far off-grid, k > n
  EXPECT_EQ(got, (std::vector<int32_t>{0}));
  EXPECT_THROW(cells.build(&one, 1, 0.0f), std::invalid_argument);
}

// ---- featurizer: cell list vs brute force --------------------------------

chem::GraphFeaturizerConfig brute(chem::GraphFeaturizerConfig cfg) {
  cfg.use_cell_list = false;
  return cfg;
}

TEST(CellListFeaturize, GraphBitwiseAcrossRandomGeometries) {
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    chem::Molecule lig = random_ligand(rng);
    const std::vector<chem::Atom> pocket = random_pocket(rng, 40 + trial * 60);
    for (int v : {1, 2}) {
      chem::GraphFeaturizerConfig cfg;
      cfg.feature_set_version = v;
      cfg.cell_list_min_atoms = 0;  // test sizes sit below the perf threshold
      const graph::SpatialGraph a = chem::GraphFeaturizer(cfg).featurize(lig, pocket);
      const graph::SpatialGraph b = chem::GraphFeaturizer(brute(cfg)).featurize(lig, pocket);
      expect_graph_bitwise(a, b);
    }
  }
}

TEST(CellListFeaturize, CutoffBoundaryAndDegenerateGeometries) {
  Rng rng(22);
  chem::Molecule lig = random_ligand(rng);
  lig.translate(Vec3{} - lig.centroid());
  chem::GraphFeaturizerConfig cfg;
  cfg.cell_list_min_atoms = 0;  // force the engine at these tiny sizes

  // Pocket atoms exactly at the two thresholds from a ligand atom, plus
  // far off-grid outliers and a coincident-position pair.
  const Vec3 a0 = lig.atoms()[0].pos;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, a0 + Vec3{cfg.noncovalent_threshold, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, a0 + Vec3{0, cfg.covalent_threshold, 0}, 0, false, 1});
  pocket.push_back({chem::Element::C, a0 + Vec3{0, 0, 500.0f}});   // far off-grid
  pocket.push_back({chem::Element::C, a0 - Vec3{400.0f, 0, 0}});   // far off-grid
  pocket.push_back({chem::Element::S, a0 + Vec3{3.0f, 0, 0}});
  pocket.push_back({chem::Element::S, a0 + Vec3{3.0f, 0, 0}});     // coincident pair
  for (int v : {1, 2}) {
    chem::GraphFeaturizerConfig vcfg = cfg;
    vcfg.feature_set_version = v;
    expect_graph_bitwise(chem::GraphFeaturizer(vcfg).featurize(lig, pocket),
                         chem::GraphFeaturizer(brute(vcfg)).featurize(lig, pocket));
  }

  // Empty pocket and single-atom pocket.
  expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, {}),
                       chem::GraphFeaturizer(brute(cfg)).featurize(lig, {}));
  std::vector<chem::Atom> single{chem::Atom{chem::Element::O, a0 + Vec3{4, 0, 0}, 0, false, 1}};
  expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, single),
                       chem::GraphFeaturizer(brute(cfg)).featurize(lig, single));
}

TEST(CellListFeaturize, SymmetricPocketCropBreaksTiesByIndex) {
  // Eight pocket atoms all at the same distance from the ligand centroid:
  // the crop must keep the lowest indices, on both paths. The first four
  // are oxygens, the mirrored four nitrogens — element one-hots reveal
  // which made the cut.
  chem::Molecule lig;
  lig.add_atom(chem::Element::C, {0, 0, 0});
  const float d = 4.0f;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, {d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::O, {0, d, 0}, 0, false, 1});
  pocket.push_back({chem::Element::O, {0, 0, d}, 0, false, 1});
  pocket.push_back({chem::Element::O, {-d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {0, -d, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {0, 0, -d}, 0, false, 1});
  pocket.push_back({chem::Element::N, {d, 0, 0}, 0, false, 1});
  pocket.push_back({chem::Element::N, {-d, 0, 0}, 0, false, 1});

  chem::GraphFeaturizerConfig cfg;
  cfg.max_pocket_atoms = 4;
  for (bool use_cells : {true, false}) {
    chem::GraphFeaturizerConfig c = cfg;
    c.use_cell_list = use_cells;
    c.cell_list_min_atoms = 0;
    const graph::SpatialGraph g = chem::GraphFeaturizer(c).featurize(lig, pocket);
    ASSERT_EQ(g.num_nodes(), 1 + 4);
    const int64_t o_col = chem::element_index(chem::Element::O);
    const int64_t n_col = chem::element_index(chem::Element::N);
    for (int64_t row = 1; row < 5; ++row) {
      EXPECT_EQ(g.node_features.at(row, o_col), 1.0f) << "tie-break must keep indices 0-3";
      EXPECT_EQ(g.node_features.at(row, n_col), 0.0f);
    }
  }
  expect_graph_bitwise(chem::GraphFeaturizer(cfg).featurize(lig, pocket),
                       chem::GraphFeaturizer(brute(cfg)).featurize(lig, pocket));
}

// ---- MM-GBSA terms: cell list vs brute force -----------------------------

TEST(CellListMmGbsa, AllTermsBitwiseAcrossRandomGeometries) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    chem::Molecule lig = random_ligand(rng);
    const std::vector<chem::Atom> pocket = random_pocket(rng, 60 + trial * 80);
    dock::MmGbsaConfig cell_cfg;
    cell_cfg.gb_cutoff = 7.0f;  // finite cutoff so GB exercises the cell route
    cell_cfg.cell_list_min_atoms = 0;  // force the engine at test sizes
    dock::MmGbsaConfig brute_cfg = cell_cfg;
    brute_cfg.use_cell_list = false;

    EXPECT_EQ(dock::lj_energy(lig, pocket, cell_cfg), dock::lj_energy(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::gb_polar(lig, pocket, cell_cfg), dock::gb_polar(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::sa_nonpolar(lig, pocket, cell_cfg), dock::sa_nonpolar(lig, pocket, brute_cfg));
    EXPECT_EQ(dock::elec_energy(lig, pocket, cell_cfg), dock::elec_energy(lig, pocket, brute_cfg));
    // Full pipeline (minimizer + all terms) stays bitwise equal too.
    EXPECT_EQ(dock::mmgbsa_score(lig, pocket, cell_cfg),
              dock::mmgbsa_score(lig, pocket, brute_cfg));

    // Default config: GB keeps the historical cutoff-free sum; the cell
    // route must leave it untouched.
    dock::MmGbsaConfig default_brute;
    default_brute.use_cell_list = false;
    EXPECT_EQ(dock::gb_polar(lig, pocket, {}), dock::gb_polar(lig, pocket, default_brute));
  }
}

TEST(CellListMmGbsa, ElecEnergyMatchesScoreTermsBitwise) {
  // The minimizer-objective bugfix adds electrostatics via elec_energy;
  // this pins it to the canonical score_terms accumulation bit for bit.
  Rng rng(32);
  for (int trial = 0; trial < 4; ++trial) {
    chem::MoleculeGenConfig mc;
    mc.charge_probability = 0.5f;  // make charged-charged pairs common
    chem::Molecule lig = chem::generate_molecule(mc, rng);
    chem::embed_conformer(lig, rng);
    data::PocketConfig pc;
    pc.charged_frac = 0.5f;
    const std::vector<chem::Atom> pocket = data::make_pocket(pc, rng);
    for (bool cells : {true, false}) {
      dock::MmGbsaConfig cfg;
      cfg.use_cell_list = cells;
      cfg.cell_list_min_atoms = 0;
      EXPECT_EQ(dock::elec_energy(lig, pocket, cfg),
                dock::score_terms(lig, pocket).electrostatic);
    }
  }
}

TEST(CellListMmGbsa, EmptyPocketAndSingleAtom) {
  Rng rng(33);
  chem::Molecule lig = random_ligand(rng);
  EXPECT_EQ(dock::lj_energy(lig, {}, {}), 0.0f);
  EXPECT_EQ(dock::elec_energy(lig, {}, {}), 0.0f);
  std::vector<chem::Atom> single{chem::Atom{chem::Element::O, lig.atoms()[0].pos + Vec3{3, 0, 0}, 0, false, 1}};
  dock::MmGbsaConfig bcfg;
  bcfg.use_cell_list = false;
  dock::MmGbsaConfig ccfg;
  ccfg.cell_list_min_atoms = 0;  // force the engine even for one atom
  EXPECT_EQ(dock::lj_energy(lig, single, ccfg), dock::lj_energy(lig, single, bcfg));
  EXPECT_EQ(dock::sa_nonpolar(lig, single, ccfg), dock::sa_nonpolar(lig, single, bcfg));
}

// ---- thread-count determinism --------------------------------------------

TEST(CellListDeterminism, OutputsBitwiseIdenticalUnderComputePool) {
  Rng rng(41);
  chem::Molecule lig = random_ligand(rng);
  const std::vector<chem::Atom> pocket = random_pocket(rng, 120);

  chem::GraphFeaturizerConfig gcfg;
  gcfg.cell_list_min_atoms = 0;  // keep the engine in play for this check
  chem::VoxelConfig vcfg;
  dock::MmGbsaConfig mcfg;
  mcfg.cell_list_min_atoms = 0;
  const graph::SpatialGraph g_serial = chem::GraphFeaturizer(gcfg).featurize(lig, pocket);
  const Tensor v_serial = chem::Voxelizer(vcfg).voxelize(lig, pocket, {});
  const float mm_serial = dock::mmgbsa_score(lig, pocket, mcfg);

  core::ThreadPool pool(8);
  core::ComputePoolGuard guard(&pool);
  const graph::SpatialGraph g_pool = chem::GraphFeaturizer(gcfg).featurize(lig, pocket);
  const Tensor v_pool = chem::Voxelizer(vcfg).voxelize(lig, pocket, {});
  const float mm_pool = dock::mmgbsa_score(lig, pocket, mcfg);

  expect_graph_bitwise(g_serial, g_pool);
  expect_tensor_bitwise(v_serial, v_pool);
  EXPECT_EQ(mm_serial, mm_pool);
}

// ---- feature_set_version wiring ------------------------------------------

TEST(FeatureSetVersion, V1StaysBitwisePinnedNextToV2) {
  Rng rng(51);
  chem::Molecule lig = random_ligand(rng);
  const std::vector<chem::Atom> pocket = random_pocket(rng, 60);

  // Voxel: v2 widens each block by one channel; the 8 historical channels
  // must be bitwise unchanged (per-channel splat sequences are identical).
  chem::VoxelConfig v1, v2;
  v2.feature_set_version = 2;
  ASSERT_EQ(v1.channels(), 2 * chem::kVoxelChannelsPerBlock);
  ASSERT_EQ(v2.channels(), 2 * (chem::kVoxelChannelsPerBlock + 1));
  const Tensor g1 = chem::Voxelizer(v1).voxelize(lig, pocket, {});
  const Tensor g2 = chem::Voxelizer(v2).voxelize(lig, pocket, {});
  const int64_t vox = static_cast<int64_t>(v1.grid_dim) * v1.grid_dim * v1.grid_dim;
  for (int block = 0; block < 2; ++block) {
    for (int ch = 0; ch < chem::kVoxelChannelsPerBlock; ++ch) {
      const float* p1 = g1.data() + (static_cast<int64_t>(block) * v1.channels_per_block() + ch) * vox;
      const float* p2 = g2.data() + (static_cast<int64_t>(block) * v2.channels_per_block() + ch) * vox;
      EXPECT_EQ(0, std::memcmp(p1, p2, static_cast<size_t>(vox) * sizeof(float)))
          << "historical channel " << ch << " block " << block << " drifted under v2";
    }
  }

  // Graph: v1 carries no edge-feature tensor and zero pocket degrees.
  chem::GraphFeaturizerConfig gc1;
  const graph::SpatialGraph sg1 = chem::GraphFeaturizer(gc1).featurize(lig, pocket);
  EXPECT_TRUE(sg1.noncovalent_features.empty());
  const int64_t deg_col = chem::kNumElements + 0;
  for (int64_t r = sg1.num_ligand_nodes; r < sg1.num_nodes(); ++r) {
    EXPECT_EQ(sg1.node_features.at(r, deg_col), 0.0f);
  }
}

TEST(FeatureSetVersion, V2AddsHBondChannelsAndPocketDegrees) {
  // Donor-N ligand atom 3.0 A from an acceptor O, with a carbon neighbor
  // behind it (angle ~180 deg): a textbook interface H-bond. Two pocket
  // atoms sit within the covalent threshold of each other -> pseudo-bond
  // degree 1 each under v2.
  chem::Molecule lig;
  const int32_t c = lig.add_atom(chem::Element::C, {-1.4f, 0, 0});
  const int32_t n = lig.add_atom(chem::Element::N, {0, 0, 0});
  lig.add_bond(c, n);
  lig.atoms()[static_cast<size_t>(n)].implicit_h = 2;
  std::vector<chem::Atom> pocket;
  pocket.push_back({chem::Element::O, {3.0f, 0, 0}, 0, false, 0});
  pocket.push_back({chem::Element::O, {3.0f, 1.5f, 0}, 0, false, 0});

  const std::vector<chem::HBond> hbonds = chem::find_hbonds(lig, pocket);
  ASSERT_FALSE(hbonds.empty());
  EXPECT_EQ(hbonds[0].ligand_atom, n);
  EXPECT_EQ(hbonds[0].pocket_atom, 0);

  chem::GraphFeaturizerConfig gc2;
  gc2.feature_set_version = 2;
  const graph::SpatialGraph sg2 = chem::GraphFeaturizer(gc2).featurize(lig, pocket);
  ASSERT_FALSE(sg2.noncovalent_features.empty());
  ASSERT_EQ(sg2.noncovalent_features.dim(0), static_cast<int64_t>(sg2.noncovalent.size()));
  ASSERT_EQ(sg2.noncovalent_features.dim(1), chem::kGraphEdgeFeaturesV2);
  // Some interface edge must carry the H-bond flag, and every distance
  // channel lies in (0, 1].
  bool saw_hbond_edge = false;
  for (int64_t e = 0; e < sg2.noncovalent_features.dim(0); ++e) {
    const float dn = sg2.noncovalent_features.at(e, 0);
    EXPECT_GT(dn, 0.0f);
    EXPECT_LE(dn, 1.0f);
    if (sg2.noncovalent_features.at(e, 1) == 1.0f) saw_hbond_edge = true;
  }
  EXPECT_TRUE(saw_hbond_edge);
  // Pocket atoms 0 and 1 are 1.5 A apart (< covalent threshold): degree 1.
  const int64_t deg_col = chem::kNumElements + 0;
  EXPECT_EQ(sg2.node_features.at(2, deg_col), 0.25f);  // degree 1 / 4
  EXPECT_EQ(sg2.node_features.at(3, deg_col), 0.25f);

  // Voxel: the v2 H-bond channel holds mass.
  chem::VoxelConfig v2;
  v2.feature_set_version = 2;
  chem::Voxelizer vox(v2);
  const Tensor grid = vox.voxelize(lig, pocket, {});
  const int64_t voxels = static_cast<int64_t>(v2.grid_dim) * v2.grid_dim * v2.grid_dim;
  float hb_mass = 0.0f;
  const float* hb = grid.data() + static_cast<int64_t>(chem::kVoxelHBondChannel) * voxels;
  for (int64_t i = 0; i < voxels; ++i) hb_mass += hb[i];
  EXPECT_GT(hb_mass, 0.0f);
}

TEST(FeatureSetVersion, ScorerAndRegistryRejectMismatches) {
  chem::VoxelConfig v1;
  chem::GraphFeaturizerConfig g2;
  g2.feature_set_version = 2;
  Rng rng(61);
  models::Cnn3dConfig cc;
  cc.grid_dim = v1.grid_dim;
  cc.in_channels = v1.channels();
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  EXPECT_THROW(serve::RegressorScorer("mismatch", std::make_unique<models::Cnn3d>(cc, rng), v1, g2),
               std::invalid_argument);

  // Artifact round trip: a v2-trained artifact refuses v1 serving configs
  // and accepts matching v2 ones.
  const std::string path =
      (std::filesystem::temp_directory_path() / "df_fsv_artifact.dfc").string();
  chem::VoxelConfig v2 = v1;
  v2.feature_set_version = 2;
  cc.in_channels = v2.channels();
  models::Cnn3d donor(cc, rng);
  compile::save_compiled(donor, path, /*poses_per_batch=*/0, {}, /*feature_set_version=*/2);
  const compile::CompiledModel cm = compile::load_compiled(path);
  EXPECT_EQ(cm.feature_set_version, 2);

  serve::ModelRegistry reg;
  chem::GraphFeaturizerConfig g1;
  EXPECT_THROW(serve::add_compiled(reg, "v2_model", path, v1, g1), std::invalid_argument);
  serve::add_compiled(reg, "v2_model", path, v2, g2);
  EXPECT_TRUE(reg.contains("v2_model"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace df
