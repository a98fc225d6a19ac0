// Shared set-up of every workload: the scoring model (Coherent Fusion at
// the paper's layer widths, seeded and untrained), its compiled artifact,
// the service shape, and the generators of the inputs the program sees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chem/graph_featurizer.h"
#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "core/rng.h"
#include "models/fusion.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace perfbench {

using namespace df;  // the library under test

constexpr const char* kScorer = "fusion";
constexpr int kGridDim = 8;             // bench voxel grid (bench/bench_common.h)
constexpr int kPosesPerBatch = 32;      // service micro-batch
constexpr int kServiceWorkers = 2;      // every scoring service runs 2 workers
constexpr int kPipelineDepth = 2;
constexpr uint64_t kModelSeed = 2021;   // weights never depend on the workload seed
constexpr int kReceptorAtoms = 2048;    // binding-site-scale receptor crop

chem::VoxelConfig voxel_config();
chem::GraphFeaturizerConfig graph_config();

/// Coherent Fusion with Table 2/3 widths: CNN 32/64 filters and a 128-wide
/// dense layer, SG-CNN covalent k=6 and gather widths 24/128.
std::unique_ptr<models::FusionModel> make_fusion_model();

/// Compile the model and write its artifact to `path`. A donor replica is
/// warmed on `warm_batch` first so the artifact carries workspace budgets.
void write_artifact(const std::string& path,
                    const std::vector<const serve::PoseInput*>& warm_batch);

/// Register the artifact under kScorer (the production replica path).
void register_scorer(serve::ModelRegistry& registry, const std::string& artifact);

/// A scoring service restored from the artifact with every worker's replica
/// built: the set-up each workload times.
std::unique_ptr<serve::ScoringService> start_service(const std::string& artifact,
                                                     bool ordered_stream,
                                                     size_t pocket_cache_targets);

/// Sequential reference: each pose list scored by Scorer::score in the
/// service's ordered-stream chunks (kPosesPerBatch), on fresh replicas
/// (four threads, one replica each).
std::vector<std::vector<float>> reference_scores(
    const std::string& artifact, const std::vector<const std::vector<serve::PoseInput>*>& lists);

/// Protein-density cloud of `atoms` heavy atoms centred on the origin.
std::vector<chem::Atom> make_receptor(int atoms, core::Rng& rng);
/// A drug-like ligand with a 3-D conformer, centroid at the origin.
chem::Molecule make_ligand(core::Rng& rng);
/// A rigid random pose of `ligand`: rotated about its centroid and placed
/// within 1.5 A of `center`.
chem::Molecule pose_of(const chem::Molecule& ligand, const core::Vec3& center, core::Rng& rng);

/// Scratch directory for a run's files (shards, artifact), created under
/// .bench_out/ in the working directory and removed with everything in it
/// when the object dies.
class RunDir {
 public:
  explicit RunDir(const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Directory that keeps the traced runs' span files (.bench_out/).
std::string trace_dir();

}  // namespace perfbench
