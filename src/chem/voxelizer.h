// Voxelized representation of a protein–ligand complex — the 3D-CNN's input
// (paper Fig. 1, left branch). Atoms are splatted into a cubic grid centred
// on the pocket with per-channel Gaussian densities; ligand and protein
// atoms occupy disjoint channel blocks so the network can tell them apart,
// matching the FAST featurization.
#pragma once

#include <vector>

#include "chem/hbond.h"
#include "chem/molecule.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace df::chem {

using core::Tensor;

/// Per-block channels (applied once for ligand atoms, once for protein):
///   0 carbon, 1 nitrogen, 2 oxygen, 3 other-heavy,
///   4 hydrophobic, 5 H-bond donor, 6 H-bond acceptor, 7 charged.
inline constexpr int kVoxelChannelsPerBlock = 8;
/// feature_set_version >= 2 appends one more channel per block: Gaussian
/// density weighted by the atom's interface H-bond partner count under the
/// chem/hbond.h geometric criteria (distance + heavy-atom angle).
inline constexpr int kVoxelHBondChannel = 8;

struct VoxelConfig {
  int grid_dim = 16;        // voxels per axis
  float resolution = 1.25f; // Angstrom per voxel => 20 A box by default
  float sigma_scale = 0.5f; // Gaussian sigma = vdw_radius * sigma_scale
  float cutoff_sigmas = 2.0f;
  /// Feature-set contract version. 1 = today's 8-channel blocks,
  /// bitwise-pinned so existing models keep scoring identically. 2 appends
  /// the interface H-bond channel to each block (see kVoxelHBondChannel).
  int feature_set_version = 1;
  /// v2 H-bond channel geometry.
  HBondConfig hbond;

  int channels_per_block() const {
    return kVoxelChannelsPerBlock + (feature_set_version >= 2 ? 1 : 0);
  }
  int channels() const { return 2 * channels_per_block(); }
  float box_extent() const { return static_cast<float>(grid_dim) * resolution; }
};

class Voxelizer {
 public:
  explicit Voxelizer(VoxelConfig cfg = {}) : cfg_(cfg) {}

  /// Produce a (1, C, G, G, G) tensor centred on `center` (normally the
  /// pocket centroid). Grid z-slices are filled independently and fan out
  /// over the shared compute pool (core/parallel.h) when one is installed;
  /// output is bitwise identical either way.
  Tensor voxelize(const Molecule& ligand, const std::vector<Atom>& pocket,
                  const core::Vec3& center) const;

  /// Pocket-only grid (ligand block channels left zero) for reuse across
  /// the many poses docked into one pocket via voxelize_ligand_onto.
  Tensor voxelize_pocket(const std::vector<Atom>& pocket, const core::Vec3& center) const;

  /// Splat only the ligand, then graft `pocket_grid`'s protein-block
  /// channels in; `pocket` must be the atom list `pocket_grid` was built
  /// from. Ligand and protein occupy disjoint channel blocks, so at v1 the
  /// graft alone is bitwise identical to voxelize(ligand, pocket, center)
  /// at a fraction of the splat work. At v2 the ligand couples to the
  /// pocket through the H-bond channel: the interface H-bonds are computed
  /// once, the ligand splats with its partner weights, and only the
  /// pocket-side H-bond deposits (zero in a ligand-free pocket grid) are
  /// splatted on top of the graft — each channel still accumulates its
  /// atoms in ascending-index order, so the result stays bitwise identical
  /// to voxelize(). The pocket cache (serve/pocket_cache.h) uses this to
  /// amortize pocket splatting across requests.
  Tensor voxelize_ligand_onto(const Molecule& ligand, const std::vector<Atom>& pocket,
                              const Tensor& pocket_grid, const core::Vec3& center) const;

  const VoxelConfig& config() const { return cfg_; }

 private:
  VoxelConfig cfg_;
};

/// Training-time augmentation (paper §3.3.1): independently rotate the
/// complex 90° about X, Y, Z each with probability `prob` before
/// voxelization. Returns rotated copies; graph features are unaffected.
void random_rotation_augment(Molecule& ligand, std::vector<Atom>& pocket, const core::Vec3& center,
                             core::Rng& rng, float prob = 0.10f);

}  // namespace df::chem
