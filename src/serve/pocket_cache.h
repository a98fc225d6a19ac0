// Pocket cache — per-target amortization of protein-side featurization
// work, the one pocket-amortization mechanism of the scoring path.
//
// A screening campaign scores thousands of poses against a handful of
// receptors. Every RegressorScorer featurizes through a PocketCache: the
// service shares one across its replicas (ServiceConfig::
// pocket_cache_targets), and a replica without a shared cache owns a
// private single-target one. The cache is an LRU keyed by pocket content
// holding (a) the protein-only voxel grid, grafted per pose via
// Voxelizer::voxelize_ligand_onto — bitwise equal to joint voxelization at
// every feature-set version — and (b) the pocket-side CellList the graph
// featurizer's k-nearest crop queries (GraphFeaturizer::featurize's
// crop_cells overload).
//
// Keys are a 64-bit FNV-1a hash over the full pocket content (every atom
// field bit-exactly), the grid center, the complete VoxelConfig and the
// crop cell size; a hit additionally verifies the stored content byte for
// byte, so a hash collision degrades to a rebuild, never a wrong grid.
// Changing feature_set_version or any grid knob therefore misses — that IS
// the invalidation semantics.
//
// Entries are returned as shared_ptr<const Entry>: eviction drops the
// cache's reference, never a reader's, so replicas may keep using an entry
// that was just evicted. An entry's grid must survive every caller's arena
// reset, so it is never carved from an ambient arena: it heap-owns its
// storage (Workspace::Unbind during the build), or, when reserve_grid() set
// storage aside, borrows from that arena, which the entry then owns.
// All queries on a built entry are const and thread-safe; the cache itself
// is mutex-guarded and shared across service workers.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chem/cell_list.h"
#include "chem/graph_featurizer.h"
#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace df::serve {

class PocketCache {
 public:
  struct Entry {
    // Stored for exact-content verification on hash hit.
    std::vector<chem::Atom> atoms;
    core::Vec3 center;
    chem::VoxelConfig voxel_cfg;
    float crop_cell_size = 0.0f;

    // The cached work products. `storage` backs `grid` when the build used
    // the reserved grid arena; otherwise it is null and `grid` heap-owns.
    std::unique_ptr<core::Workspace> storage;
    core::Tensor grid;          // protein-only voxel grid
    chem::CellList crop_cells;  // over atoms' positions; unbuilt when pocket empty
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `max_targets` caps live entries (LRU eviction beyond it); clamped to
  /// at least 1.
  explicit PocketCache(size_t max_targets);

  /// Fetch or build the entry for (pocket, center) under the two
  /// featurizer configs. A build runs inside the cache lock, so concurrent
  /// first requests for the same receptor build it exactly once.
  std::shared_ptr<const Entry> lookup(const std::vector<chem::Atom>& pocket,
                                      const core::Vec3& center,
                                      const chem::Voxelizer& voxelizer,
                                      const chem::GraphFeaturizer& featurizer);

  /// Set aside (untouched) storage for one grid under `vc`, which the next
  /// miss builds its grid in instead of the heap. A replica restored from a
  /// compiled artifact calls this with its arenas, so its very first batch
  /// touches the heap for no tensor data (RegressorScorer::
  /// reserve_workspaces). No-op while storage is already set aside.
  void reserve_grid(const chem::VoxelConfig& vc);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return max_targets_; }

 private:
  using LruList = std::list<std::pair<uint64_t, std::shared_ptr<const Entry>>>;

  size_t max_targets_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<uint64_t, LruList::iterator> by_key_;
  std::unique_ptr<core::Workspace> spare_;  // reserve_grid(); taken by the next miss
  Stats stats_;
};

}  // namespace df::serve
