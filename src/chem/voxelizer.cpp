#include "chem/voxelizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/simd_math.h"

#include "core/parallel.h"

namespace df::chem {

namespace {
int channel_for_atom(const Atom& a, int block, int cpb) {
  int c;
  switch (a.element) {
    case Element::C: c = 0; break;
    case Element::N: c = 1; break;
    case Element::O: c = 2; break;
    default: c = 3; break;
  }
  return block * cpb + c;
}

// One (channel, weight) deposit for one atom with all per-atom geometry
// precomputed, so the grid can be filled one z-slice at a time (slices are
// disjoint, which makes the fill safely parallel without atomics) without
// re-deriving sigma/cutoff/box bounds per slice.
struct SplatOp {
  core::Vec3 rel;   // atom position relative to the grid center
  float cutoff2;    // squared Gaussian cutoff radius
  float inv2s2;     // 1 / (2 sigma^2)
  float weight;
  int channel;
  int xlo, xhi, ylo, yhi, zlo, zhi;  // inclusive voxel box, clipped to grid
};

// The splat is exp-bound (one Gaussian per in-cutoff voxel), so the x rows
// run 16 lanes at a time through the shared vectorized exp
// (core/simd_math.h); out-of-range or beyond-cutoff lanes contribute an
// exact +0.0f. Accumulation per cell keeps the per-op order of the caller,
// so serial and sliced-parallel fills stay bitwise identical.
void splat_slice(core::Tensor& grid, const SplatOp& op, int G, float res, float half, int z) {
  float* base = grid.data() + (static_cast<int64_t>(op.channel) * G + z) * G * G;
  const float vz = (static_cast<float>(z) + 0.5f) * res - half;
  const float dz = vz - op.rel.z;
#if defined(DF_SIMD_MATH_VECTOR)
  using core::simd::vf16;
  const float dz2 = dz * dz;
  for (int y = op.ylo; y <= op.yhi; ++y) {
    const float vy = (static_cast<float>(y) + 0.5f) * res - half;
    const float dy = vy - op.rel.y;
    const float dyz2 = dy * dy + dz2;
    float* row = base + static_cast<int64_t>(y) * G;
    for (int x0 = op.xlo; x0 <= op.xhi; x0 += 16) {
      const vf16 fx =
          (core::simd::splat(static_cast<float>(x0)) + core::simd::iota16() +
           core::simd::splat(0.5f)) * core::simd::splat(res) - core::simd::splat(half);
      const vf16 dx = fx - core::simd::splat(op.rel.x);
      const vf16 d2 = dx * dx + core::simd::splat(dyz2);
      vf16 w = core::simd::splat(op.weight) *
               core::simd::vexp16(-d2 * core::simd::splat(op.inv2s2));
      w = d2 > core::simd::splat(op.cutoff2) ? vf16{} : w;
      alignas(64) float buf[16];
      std::memcpy(buf, &w, sizeof(buf));
      const int count = std::min(16, op.xhi - x0 + 1);
      for (int c = 0; c < count; ++c) row[x0 + c] += buf[c];
    }
  }
#else
  for (int y = op.ylo; y <= op.yhi; ++y) {
    const float vy = (static_cast<float>(y) + 0.5f) * res - half;
    const float dy = vy - op.rel.y;
    for (int x = op.xlo; x <= op.xhi; ++x) {
      const float vx = (static_cast<float>(x) + 0.5f) * res - half;
      const float dx = vx - op.rel.x;
      const float d2 = dx * dx + dy * dy + dz * dz;
      if (d2 > op.cutoff2) continue;
      base[static_cast<int64_t>(y) * G + x] += op.weight * core::simd::exp_scalar(-d2 * op.inv2s2);
    }
  }
#endif
}

// Expand one atom into its per-channel deposits. Each atom pushes at most
// one op per channel, so per-channel accumulation order equals atom push
// order — the invariant every graft/amortization path below leans on.
void expand_atom(const VoxelConfig& cfg, const Atom& a, int block, float hb_count,
                 const core::Vec3& center, std::vector<SplatOp>& ops) {
  const int G = cfg.grid_dim;
  const float res = cfg.resolution;
  const float half = cfg.box_extent() * 0.5f;
  const int cpb = cfg.channels_per_block();
  const ElementInfo& info = element_info(a.element);
  const float sigma = info.vdw_radius * cfg.sigma_scale;
  const float cutoff = sigma * cfg.cutoff_sigmas;
  SplatOp op;
  op.rel = a.pos - center;
  op.cutoff2 = cutoff * cutoff;
  op.inv2s2 = 1.0f / (2.0f * sigma * sigma);
  const int r = static_cast<int>(std::ceil(cutoff / res));
  const int cx = static_cast<int>(std::floor((op.rel.x + half) / res));
  const int cy = static_cast<int>(std::floor((op.rel.y + half) / res));
  const int cz = static_cast<int>(std::floor((op.rel.z + half) / res));
  op.xlo = std::max(0, cx - r);
  op.xhi = std::min(G - 1, cx + r);
  op.ylo = std::max(0, cy - r);
  op.yhi = std::min(G - 1, cy + r);
  op.zlo = std::max(0, cz - r);
  op.zhi = std::min(G - 1, cz + r);
  if (op.xlo > op.xhi || op.ylo > op.yhi || op.zlo > op.zhi) return;  // fully off-grid

  auto push = [&](int channel, float weight) {
    op.channel = channel;
    op.weight = weight;
    ops.push_back(op);
  };
  push(channel_for_atom(a, block, cpb), 1.0f);
  const int pharm = block * cpb;
  if (info.hydrophobic) push(pharm + 4, 1.0f);
  if (info.hbond_donor_heavy && a.implicit_h > 0) push(pharm + 5, 1.0f);
  if (info.hbond_acceptor) push(pharm + 6, 1.0f);
  if (a.formal_charge != 0) push(pharm + 7, static_cast<float>(std::abs(a.formal_charge)));
  if (hb_count > 0.0f) push(pharm + kVoxelHBondChannel, hb_count);
}

// Apply `ops` to the grid. Bucket ops by z-slice (CSR layout) so each slice
// walks only the ops that actually touch it instead of scanning the full
// list. The fill appends in op order, so every slice still applies its ops
// in the same sequence as a full scan — bitwise-identical accumulation at
// any compute-pool width (slices write disjoint memory). The scratch is
// thread_local: voxelize is hot in serving and must not pay a heap round
// trip per pose.
void fill_ops(Tensor& view, const std::vector<SplatOp>& ops, const VoxelConfig& cfg) {
  const int G = cfg.grid_dim;
  const float res = cfg.resolution;
  const float half = cfg.box_extent() * 0.5f;
  static thread_local std::vector<int32_t> slice_start;  // size G+1
  static thread_local std::vector<int32_t> slice_ops;    // op indices, CSR
  slice_start.assign(static_cast<size_t>(G) + 1, 0);
  for (const SplatOp& op : ops) {
    for (int z = op.zlo; z <= op.zhi; ++z) ++slice_start[static_cast<size_t>(z) + 1];
  }
  for (int z = 0; z < G; ++z) slice_start[static_cast<size_t>(z) + 1] += slice_start[static_cast<size_t>(z)];
  slice_ops.resize(static_cast<size_t>(slice_start[static_cast<size_t>(G)]));
  {
    static thread_local std::vector<int32_t> cursor;
    cursor.assign(slice_start.begin(), slice_start.end() - 1);
    for (size_t oi = 0; oi < ops.size(); ++oi) {
      for (int z = ops[oi].zlo; z <= ops[oi].zhi; ++z) {
        slice_ops[static_cast<size_t>(cursor[static_cast<size_t>(z)]++)] = static_cast<int32_t>(oi);
      }
    }
  }

  // Workers must see the caller's buckets, not their own thread_locals —
  // hand them raw pointers, never the thread_local names.
  const int32_t* const sstart = slice_start.data();
  const int32_t* const sops = slice_ops.data();
  const SplatOp* const opsp = ops.data();
  core::parallel_for_auto(static_cast<size_t>(G), 4, [&, sstart, sops, opsp](size_t zi) {
    const int z = static_cast<int>(zi);
    for (int32_t i = sstart[zi]; i < sstart[zi + 1]; ++i) {
      splat_slice(view, opsp[static_cast<size_t>(sops[i])], G, res, half, z);
    }
  });
}
}  // namespace

Tensor Voxelizer::voxelize(const Molecule& ligand, const std::vector<Atom>& pocket,
                           const core::Vec3& center) const {
  // The (1, C, G, G, G) flat layout is identical to (C, G, G, G), so the
  // splats index it directly — no reshape copy on the way out.
  Tensor view({1, cfg_.channels(), cfg_.grid_dim, cfg_.grid_dim, cfg_.grid_dim});

  // Expand atoms into per-channel deposits once (geometry included), then
  // fill the grid slice-parallel. Op scratch is reused across calls.
  static thread_local std::vector<SplatOp> ops;
  ops.clear();
  ops.reserve((ligand.atoms().size() + pocket.size()) * 2);

  // v2: per-atom interface H-bond partner counts feed the extra channel.
  // Counted once up front; v1 skips this entirely, so its op list — and
  // the grid it produces — is byte-for-byte the historical one.
  static thread_local std::vector<float> lig_hb, poc_hb;
  if (cfg_.feature_set_version >= 2) {
    lig_hb.assign(ligand.atoms().size(), 0.0f);
    poc_hb.assign(pocket.size(), 0.0f);
    for (const HBond& hb : find_hbonds(ligand, pocket, cfg_.hbond)) {
      lig_hb[static_cast<size_t>(hb.ligand_atom)] += 1.0f;
      poc_hb[static_cast<size_t>(hb.pocket_atom)] += 1.0f;
    }
  }
  const bool v2 = cfg_.feature_set_version >= 2;
  for (size_t i = 0; i < ligand.atoms().size(); ++i) {
    expand_atom(cfg_, ligand.atoms()[i], /*block=*/0, v2 ? lig_hb[i] : 0.0f, center, ops);
  }
  for (size_t i = 0; i < pocket.size(); ++i) {
    expand_atom(cfg_, pocket[i], /*block=*/1, v2 ? poc_hb[i] : 0.0f, center, ops);
  }
  fill_ops(view, ops, cfg_);
  return view;
}

Tensor Voxelizer::voxelize_pocket(const std::vector<Atom>& pocket,
                                  const core::Vec3& center) const {
  return voxelize(Molecule(), pocket, center);
}

Tensor Voxelizer::voxelize_ligand_onto(const Molecule& ligand, const std::vector<Atom>& pocket,
                                       const Tensor& pocket_grid, const core::Vec3& center) const {
  const int G = cfg_.grid_dim;
  const int cpb = cfg_.channels_per_block();
  const int64_t block = static_cast<int64_t>(cpb) * G * G * G;
  if (cfg_.feature_set_version < 2) {
    Tensor grid = voxelize(ligand, {}, center);
    // Channel blocks are disjoint: ligand splats live in block 0, pocket in
    // block 1, so grafting the cached pocket block reproduces the joint
    // voxelization bit for bit.
    std::memcpy(grid.data() + block, pocket_grid.data() + block,
                static_cast<size_t>(block) * sizeof(float));
    return grid;
  }

  // v2: the ligand couples to the pocket only through the per-block H-bond
  // channel, so the graft still works — it just has to re-derive the H-bond
  // deposits for this ligand. Base pocket channels are ligand-independent
  // (identical ops in the joint and ligand-free builds), and a ligand-free
  // pocket grid has no interface H-bonds, so its H-bond channel is zero:
  // splatting this ligand's pocket-side H-bond deposits on top of the graft
  // reproduces the joint accumulation. Per-channel op order stays
  // ascending-atom-index in every piece, matching voxelize() bit for bit.
  static thread_local std::vector<float> lig_hb, poc_hb;
  lig_hb.assign(ligand.atoms().size(), 0.0f);
  poc_hb.assign(pocket.size(), 0.0f);
  for (const HBond& hb : find_hbonds(ligand, pocket, cfg_.hbond)) {
    lig_hb[static_cast<size_t>(hb.ligand_atom)] += 1.0f;
    poc_hb[static_cast<size_t>(hb.pocket_atom)] += 1.0f;
  }

  Tensor grid({1, cfg_.channels(), G, G, G});
  static thread_local std::vector<SplatOp> ops;
  ops.clear();
  ops.reserve(ligand.atoms().size() * 2);
  for (size_t i = 0; i < ligand.atoms().size(); ++i) {
    expand_atom(cfg_, ligand.atoms()[i], /*block=*/0, lig_hb[i], center, ops);
  }
  fill_ops(grid, ops, cfg_);
  std::memcpy(grid.data() + block, pocket_grid.data() + block,
              static_cast<size_t>(block) * sizeof(float));

  // Pocket-side H-bond deposits only; the base-channel ops expand_atom also
  // emits are already present via the graft, so drop them (stable filter —
  // the surviving ops keep their ascending-atom order).
  const int hb_channel = cpb + kVoxelHBondChannel;
  ops.clear();
  for (size_t i = 0; i < pocket.size(); ++i) {
    if (poc_hb[i] <= 0.0f) continue;
    expand_atom(cfg_, pocket[i], /*block=*/1, poc_hb[i], center, ops);
  }
  ops.erase(std::remove_if(ops.begin(), ops.end(),
                           [&](const SplatOp& op) { return op.channel != hb_channel; }),
            ops.end());
  fill_ops(grid, ops, cfg_);
  return grid;
}

void random_rotation_augment(Molecule& ligand, std::vector<Atom>& pocket, const core::Vec3& center,
                             core::Rng& rng, float prob) {
  const core::Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (const core::Vec3& axis : axes) {
    if (rng.uniform() >= prob) continue;
    const float theta = static_cast<float>(rng.randint(1, 3)) * 1.5707963f;  // 90/180/270 deg
    ligand.rotate(center, axis, theta);
    for (Atom& a : pocket) {
      a.pos = center + core::rotate_axis_angle(a.pos - center, axis, theta);
    }
  }
}

}  // namespace df::chem
