// Equivalence pins for the blocked inference engine: sgemm vs the naive
// reference (all transpose variants, odd shapes, 1-8 threads), vol2col
// Conv3d forward/backward vs the direct 7-loop reference, the Conv3d eval
// routes (occupancy-skipping and grouped lowering) memcmp-equal to the
// per-sample dense route, the ligand-only graph gather memcmp-equal to
// gating every node, parallel voxelizer/maxpool vs serial, batched predict
// vs per-pose predict, and ThreadPool exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "chem/voxelizer.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "data/target.h"
#include "graph/gather.h"
#include "models/fusion.h"
#include "nn/conv3d.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

constexpr float kTol = 1e-4f;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

std::vector<float> random_buf(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

void check_gemm_case(bool ta, bool tb, int64_t m, int64_t n, int64_t k, Rng& rng) {
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;
  const std::vector<float> A = random_buf((ta ? k : m) * lda, rng);
  const std::vector<float> B = random_buf((tb ? n : k) * ldb, rng);
  std::vector<float> C(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> C_ref = random_buf(m * n, rng);  // accumulate seed
  std::vector<float> C_acc = C_ref;

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C.data(), n);
  std::vector<float> R(static_cast<size_t>(m * n), 0.0f);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, R.data(), n);
  for (size_t i = 0; i < C.size(); ++i) {
    ASSERT_NEAR(C[i], R[i], kTol) << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                                  << " k=" << k << " i=" << i;
  }

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_acc.data(), n, /*accumulate=*/true);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_ref.data(), n, true);
  for (size_t i = 0; i < C_acc.size(); ++i) ASSERT_NEAR(C_acc[i], C_ref[i], kTol);
}

TEST(Gemm, MatchesNaiveAcrossShapesAndTransposes) {
  Rng rng(11);
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},   {7, 17, 33},
                               {13, 1, 29}, {1, 31, 13},  {97, 65, 51}, {128, 96, 64},
                               {65, 130, 257}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) check_gemm_case(ta, tb, s[0], s[1], s[2], rng);
    }
  }
}

TEST(Gemm, KZeroClearsOrKeepsC) {
  std::vector<float> C = {1, 2, 3, 4};
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2, /*accumulate=*/true);
  EXPECT_EQ(C[0], 1.0f);
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2);
  for (float v : C) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, MatchesNaiveOnEveryPoolSize) {
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(23 + threads);
    // Big enough to cross the parallel threshold and span several MC blocks.
    check_gemm_case(false, false, 201, 150, 67, rng);
    check_gemm_case(true, false, 150, 201, 67, rng);
    check_gemm_case(false, true, 97, 203, 129, rng);
  }
}

TEST(Tensor, MatmulVariantsMatchNaive) {
  Rng rng(7);
  Tensor a = Tensor::randn({9, 14}, rng);
  Tensor b = Tensor::randn({14, 11}, rng);
  Tensor c = a.matmul(b);
  Tensor r({9, 11});
  core::sgemm_naive(false, false, 9, 11, 14, a.data(), 14, b.data(), 11, r.data(), 11);
  EXPECT_LE(max_abs_diff(c, r), kTol);

  Tensor at = a.transposed2d();
  EXPECT_LE(max_abs_diff(at.matmul_tn(b), r), kTol);
  Tensor bt = b.transposed2d();
  EXPECT_LE(max_abs_diff(a.matmul_nt(bt), r), kTol);
}

// ---- Conv3d vol2col vs direct reference ----

struct ConvCase {
  int64_t B, cin, cout, D, H, W, k, stride, pad;
};

void check_conv_case(const ConvCase& cc, Rng& rng) {
  nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
  auto params = conv.parameters();  // [w, b]
  const Tensor& w = params[0]->value;
  const Tensor& b = params[1]->value;

  Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
  conv.set_training(true);
  Tensor y = conv.forward(x);
  Tensor y_ref = nn::conv3d_forward_naive(x, w, b, cc.stride, cc.pad);
  ASSERT_LE(max_abs_diff(y, y_ref), kTol) << "fwd k=" << cc.k << " s=" << cc.stride
                                          << " p=" << cc.pad;

  Tensor g = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  Tensor gx = conv.backward(g);
  Tensor gw_ref(w.shape()), gb_ref(b.shape());
  Tensor gx_ref = nn::conv3d_backward_naive(x, w, g, gw_ref, gb_ref, cc.stride, cc.pad);
  EXPECT_LE(max_abs_diff(gx, gx_ref), kTol);
  // Weight/bias grads accumulate over B*Do*Ho*Wo products, so their scale
  // (and the float reorder error) grows with the output volume — compare at
  // kTol relative to the reference magnitude.
  const float gw_scale = std::max(1.0f, std::fabs(gw_ref.max() - gw_ref.min()));
  EXPECT_LE(max_abs_diff(params[0]->grad, gw_ref), kTol * gw_scale);
  const float gb_scale = std::max(1.0f, std::fabs(gb_ref.max() - gb_ref.min()));
  EXPECT_LE(max_abs_diff(params[1]->grad, gb_ref), kTol * gb_scale);
}

TEST(Conv3dFast, MatchesNaiveAcrossShapes) {
  Rng rng(31);
  const ConvCase cases[] = {
      {1, 1, 1, 4, 4, 4, 2, 1, 0},  {2, 3, 5, 7, 6, 5, 3, 1, 1},  {1, 4, 3, 8, 8, 8, 3, 2, 1},
      {2, 2, 4, 9, 7, 8, 5, 2, 2},  {1, 5, 2, 6, 9, 7, 3, 1, 2},  {3, 3, 3, 5, 5, 5, 2, 2, 0},
      {1, 16, 8, 8, 8, 8, 5, 2, 2},
  };
  for (const ConvCase& cc : cases) check_conv_case(cc, rng);
}

TEST(Conv3dFast, MatchesNaiveOnEveryPoolSize) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(41 + threads);
    check_conv_case({4, 3, 6, 7, 7, 7, 3, 1, 1}, rng);
    check_conv_case({2, 4, 4, 8, 6, 9, 5, 2, 2}, rng);
  }
}

// ---- Conv3d eval routes: occupancy-skipping and grouped lowering ----

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Input with `density` of its entries nonzero (uniform in [-1, 1]).
Tensor sparse_input(const std::vector<int64_t>& shape, float density, Rng& rng) {
  Tensor x(shape);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (rng.uniform(0.0f, 1.0f) < density) x[i] = rng.uniform(-1.0f, 1.0f);
  }
  return x;
}

// An eval layer on the skip route and its never-prepacked twin with the
// same weights: the twin runs the raw sgemm, which is bitwise the prepacked
// dense route, so it is the dense reference.
struct SkipAndDense {
  std::unique_ptr<nn::Conv3d> skip, dense;
};

SkipAndDense skip_and_dense(int64_t cin, int64_t cout, int64_t k, int64_t stride, int64_t pad,
                            Rng& rng) {
  SkipAndDense p;
  p.skip = std::make_unique<nn::Conv3d>(cin, cout, k, rng, stride, pad);
  p.dense = std::make_unique<nn::Conv3d>(cin, cout, k, rng, stride, pad);
  for (nn::Conv3d* c : {p.skip.get(), p.dense.get()}) c->set_training(false);
  for (auto [dst, src] : {std::pair{&p.dense->weight(), &p.skip->weight()},
                          std::pair{&p.dense->bias(), &p.skip->bias()}}) {
    std::memcpy(dst->value.data(), src->value.data(),
                static_cast<size_t>(src->value.numel()) * sizeof(float));
  }
  p.skip->prepack();
  return p;
}

TEST(Conv3dSkip, MatchesDenseRouteBitwise) {
  Rng rng(71);
  const core::EpilogueAct acts[] = {core::EpilogueAct::kNone, core::EpilogueAct::kReLU,
                                    core::EpilogueAct::kSigmoid};
  int cases = 0;
  for (int64_t stride : {1, 2, 3}) {
    for (int64_t pad : {0, 1, 2}) {
      for (int64_t k : {3, 5}) {
        // K = cin * k^3 on both sides of the GEMM's 192-deep k-panel.
        const int64_t cins[2] = {k == 3 ? 7 : 1, k == 3 ? 8 : 2};
        for (int64_t cin : cins) {
          for (int64_t cout : {16, 32, 64}) {
            SkipAndDense conv = skip_and_dense(cin, cout, k, stride, pad, rng);
            ASSERT_TRUE(conv.skip->skip_enabled());
            ASSERT_FALSE(conv.dense->skip_enabled());
            for (float density : {0.0f, 0.02f, 0.17f, 1.0f}) {
              const Tensor x = sparse_input({3, cin, 6, 5, 7}, density, rng);
              for (core::EpilogueAct act : acts) {
                const Tensor dense = conv.dense->forward_act(x, act);
                const Tensor skip = conv.skip->forward_act(x, act);
                ASSERT_TRUE(same_bits(dense, skip))
                    << "s=" << stride << " p=" << pad << " k=" << k << " cin=" << cin
                    << " cout=" << cout << " density=" << density
                    << " act=" << static_cast<int>(act);
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 1296);
}

TEST(Conv3dSkip, MixedDensityBatchMatchesDense) {
  // Samples of very different occupancy share one batch and one output.
  Rng rng(72);
  SkipAndDense conv = skip_and_dense(4, 32, 3, 1, 1, rng);
  Tensor x({5, 4, 6, 6, 6});
  const float densities[] = {0.05f, 1.0f, 0.3f, 0.9f, 0.0f};
  const int64_t per = x.numel() / 5;
  for (int64_t b = 0; b < 5; ++b) {
    const Tensor s = sparse_input({1, 4, 6, 6, 6}, densities[b], rng);
    std::memcpy(x.data() + b * per, s.data(), static_cast<size_t>(per) * sizeof(float));
  }
  EXPECT_TRUE(same_bits(conv.dense->forward_act(x, core::EpilogueAct::kReLU),
                        conv.skip->forward_act(x, core::EpilogueAct::kReLU)));
}

TEST(Conv3dSkip, PaddingWiderThanKernelMatchesDense) {
  // pad >= k: the border outputs see only padding (bias + act of zero).
  Rng rng(77);
  for (int64_t stride : {1, 2}) {
    SkipAndDense conv = skip_and_dense(3, 16, 3, stride, 4, rng);
    const Tensor x = sparse_input({2, 3, 5, 4, 6}, 0.3f, rng);
    EXPECT_TRUE(same_bits(conv.dense->forward_act(x, core::EpilogueAct::kSigmoid),
                          conv.skip->forward_act(x, core::EpilogueAct::kSigmoid)))
        << "stride " << stride;
  }
}

TEST(Conv3dSkip, NanInputGivesSameNanPositions) {
  Rng rng(73);
  for (int64_t stride : {1, 2}) {
    SkipAndDense conv = skip_and_dense(3, 16, 3, stride, 1, rng);
    Tensor x = sparse_input({2, 3, 7, 7, 7}, 0.1f, rng);
    x[17] = std::numeric_limits<float>::quiet_NaN();
    x[x.numel() - 5] = std::numeric_limits<float>::quiet_NaN();
    x[200] = std::numeric_limits<float>::infinity();
    const Tensor dense = conv.dense->forward(x);
    const Tensor skip = conv.skip->forward(x);
    int nans = 0;
    for (int64_t i = 0; i < dense.numel(); ++i) {
      ASSERT_EQ(std::isnan(dense[i]), std::isnan(skip[i])) << "stride " << stride << " at " << i;
      if (std::isnan(dense[i])) {
        ++nans;
      } else {
        ASSERT_EQ(std::memcmp(dense.data() + i, skip.data() + i, sizeof(float)), 0) << i;
      }
    }
    EXPECT_GT(nans, 0);
  }
}

TEST(Conv3dSkip, NonFiniteWeightForcesDenseRoute) {
  Rng rng(74);
  SkipAndDense conv = skip_and_dense(2, 32, 3, 1, 1, rng);
  EXPECT_TRUE(conv.skip->skip_enabled());
  // inf * 0 is NaN on the dense route, so skipping zeros would change the
  // result: a non-finite weight disables the skip route.
  conv.skip->weight().value[5] = std::numeric_limits<float>::infinity();
  conv.dense->weight().value[5] = std::numeric_limits<float>::infinity();
  conv.skip->prepack();
  EXPECT_FALSE(conv.skip->skip_enabled());
  const Tensor x = sparse_input({2, 2, 5, 5, 5}, 0.1f, rng);
  const Tensor dense = conv.dense->forward(x);
  EXPECT_TRUE(same_bits(dense, conv.skip->forward(x)));
  bool any_nan = false;
  for (int64_t i = 0; i < dense.numel(); ++i) any_nan = any_nan || std::isnan(dense[i]);
  EXPECT_TRUE(any_nan);
  // External panels (a restored artifact) are checked the same way.
  std::vector<float> panels(static_cast<size_t>(core::packed_a_floats(32, 2 * 27)));
  conv.skip->weight().value[5] = std::numeric_limits<float>::quiet_NaN();
  conv.skip->attach_prepacked(panels.data());
  EXPECT_FALSE(conv.skip->skip_enabled());
  // Unsupported geometry (24 output channels) never skips.
  nn::Conv3d odd(2, 24, 3, rng, 1, 1);
  odd.prepack();
  EXPECT_FALSE(odd.skip_supported());
  EXPECT_FALSE(odd.skip_enabled());
}

// Samples one at a time (B = 1 always lowers with g = 1), stacked.
Tensor per_sample_forward(nn::Conv3d& conv, const Tensor& x, core::EpilogueAct act) {
  const int64_t B = x.dim(0), per = x.numel() / B;
  std::vector<int64_t> one = x.shape();
  one[0] = 1;
  Tensor out;
  for (int64_t b = 0; b < B; ++b) {
    Tensor xb(one);
    std::memcpy(xb.data(), x.data() + b * per, static_cast<size_t>(per) * sizeof(float));
    const Tensor ob = conv.forward_act(xb, act);
    if (b == 0) {
      std::vector<int64_t> shape = ob.shape();
      shape[0] = B;
      out = Tensor(shape);
    }
    std::memcpy(out.data() + b * ob.numel(), ob.data(),
                static_cast<size_t>(ob.numel()) * sizeof(float));
  }
  return out;
}

TEST(Conv3dGroup, GroupedLoweringMatchesPerSampleBitwise) {
  Rng rng(75);
  const int64_t B = 9;  // odd, so the last group is short for g = 2 and 7
  const int64_t cin = 5, K = cin * 27;
  // Input shapes whose stride-1 column matrix (K x D*H*W) gives each group
  // size: g = kLowerBudgetFloats / (K*N), clamped to [1, B].
  struct Case {
    int64_t g, D, H, W;
  };
  const Case cases[] = {{1, 8, 8, 8}, {2, 7, 7, 7}, {7, 5, 5, 5}, {B, 4, 4, 6}};
  for (const Case& c : cases) {
    ASSERT_EQ(std::clamp<int64_t>(nn::Conv3d::kLowerBudgetFloats / (K * c.D * c.H * c.W), 1, B),
              c.g);
    for (bool prepacked : {false, true}) {
      for (int64_t stride : {1, 2}) {
        // 12 output channels: no sparse kernel, so a prepacked layer runs
        // the prepacked GEMM on the grouped lowering.
        nn::Conv3d conv(cin, 12, 3, rng, stride, 1);
        conv.set_training(false);
        if (prepacked) conv.prepack();
        const Tensor x = Tensor::randn({B, cin, c.D, c.H, c.W}, rng);
        EXPECT_TRUE(same_bits(per_sample_forward(conv, x, core::EpilogueAct::kReLU),
                              conv.forward_act(x, core::EpilogueAct::kReLU)))
            << "g=" << c.g << " prepacked=" << prepacked << " stride=" << stride;
      }
    }
  }
  // Training forwards take the same grouped lowering.
  nn::Conv3d conv(cin, 8, 3, rng, 1, 1);
  const Tensor x = Tensor::randn({B, cin, 4, 4, 6}, rng);
  EXPECT_TRUE(same_bits(per_sample_forward(conv, x, core::EpilogueAct::kNone), conv.forward(x)));
}

// ---- graph gather: ligand rows only ----

TEST(GatherLigandOnly, MatchesGatingEveryNode) {
  Rng rng(76);
  const int64_t in_h = 24, in_x = 19, width = 128;
  graph::Gather gather(in_h, in_x, width, rng);
  // Four graphs: a normal one, one with 0 ligand nodes, one whose ligand
  // count is past its node count (clamped), and one all-ligand graph.
  const std::vector<int64_t> offset = {0, 11, 18, 24, 31};
  const std::vector<int64_t> counts = {4, 0, 50, 7};
  const Tensor h = Tensor::randn({31, in_h}, rng);
  const Tensor x = Tensor::randn({31, in_x}, rng);

  // Reference: gate every node, then sum each graph's leading rows.
  const Tensor per_node = gather.forward_nodes(h, x, /*training=*/false);
  Tensor ref({4, width});
  for (size_t g = 0; g < counts.size(); ++g) {
    const int64_t n = std::min(counts[g], offset[g + 1] - offset[g]);
    for (int64_t i = offset[g]; i < offset[g] + n; ++i)
      for (int64_t j = 0; j < width; ++j)
        ref[static_cast<int64_t>(g) * width + j] += per_node[i * width + j];
  }
  const Tensor seg = gather.forward_segments(h, x, offset, counts, /*training=*/false);
  EXPECT_TRUE(same_bits(ref, seg));
  for (int64_t j = 0; j < width; ++j) EXPECT_EQ(seg[width + j], 0.0f);  // 0 ligand nodes

  // Per-pose eval forward_sum equals its batched row and the training sum.
  for (size_t g = 0; g < counts.size(); ++g) {
    const int64_t rows = offset[g + 1] - offset[g];
    Tensor hg({rows, in_h}), xg({rows, in_x});
    std::memcpy(hg.data(), h.data() + offset[g] * in_h,
                static_cast<size_t>(rows * in_h) * sizeof(float));
    std::memcpy(xg.data(), x.data() + offset[g] * in_x,
                static_cast<size_t>(rows * in_x) * sizeof(float));
    const Tensor eval = gather.forward_sum(hg, xg, counts[g], /*training=*/false);
    const Tensor train = gather.forward_sum(hg, xg, counts[g], /*training=*/true);
    EXPECT_TRUE(same_bits(eval, train)) << "graph " << g;
    EXPECT_EQ(std::memcmp(eval.data(), seg.data() + static_cast<int64_t>(g) * width,
                          static_cast<size_t>(width) * sizeof(float)),
              0)
        << "graph " << g;
  }
  // No ligand rows anywhere: a zero result, no GEMM on an empty matrix.
  const Tensor none = gather.forward_segments(h, x, offset, {0, 0, 0, 0}, false);
  for (int64_t i = 0; i < none.numel(); ++i) EXPECT_EQ(none[i], 0.0f);
}

// ---- parallel voxelizer / maxpool vs serial ----

TEST(VoxelizerParallel, BitwiseMatchesSerial) {
  Rng rng(5);
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 12;
  const chem::Voxelizer vox(vc);
  const Tensor serial = vox.voxelize(lig, pocket, {});
  EXPECT_GT(serial.norm(), 0.0f);
  core::ThreadPool pool(4);
  core::ComputePoolGuard guard(&pool);
  const Tensor parallel = vox.voxelize(lig, pocket, {});
  EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f);
}

TEST(MaxPoolParallel, BitwiseMatchesSerial) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 5, 8, 8, 8}, rng);
  nn::MaxPool3d pool_layer(2, 2);
  const Tensor serial = pool_layer.forward(x);
  core::ThreadPool pool(4);
  core::ComputePoolGuard guard(&pool);
  nn::MaxPool3d pool_layer2(2, 2);
  const Tensor parallel = pool_layer2.forward(x);
  EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f);
}

// ---- ThreadPool exception propagation ----

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  core::ThreadPool pool(3);
  EXPECT_THROW(core::parallel_for(pool, 64,
                                  [](size_t i) {
                                    if (i == 17) throw std::runtime_error("rank died");
                                  }),
               std::runtime_error);
  // The pool must survive a failed job batch and keep executing work.
  std::atomic<int> count{0};
  core::parallel_for(pool, 32, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, WaitIdleRethrowsSubmittedJobError) {
  core::ThreadPool pool(2);
  pool.submit([] { throw std::invalid_argument("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::invalid_argument);
  // Error is consumed: the next join is clean.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

// ---- batched predict vs per-pose predict ----

data::Sample make_sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  data::Sample s;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  s.label = 7.0f;
  return s;
}

TEST(PredictBatch, MatchesPerPosePredict) {
  Rng rng(17);
  models::Cnn3dConfig ccfg;
  ccfg.grid_dim = 8;
  ccfg.conv_filters1 = 4;
  ccfg.conv_filters2 = 8;
  ccfg.dense_nodes = 16;
  auto cnn = std::make_shared<models::Cnn3d>(ccfg, rng);
  models::SgcnnConfig scfg;
  scfg.covalent_k = 2;
  scfg.noncovalent_k = 2;
  scfg.covalent_gather_width = 8;
  scfg.noncovalent_gather_width = 16;
  auto sg = std::make_shared<models::Sgcnn>(scfg, rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  models::FusionModel fusion(fcfg, cnn, sg, rng);
  models::LateFusion late(cnn, sg);

  std::vector<data::Sample> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(make_sample(rng));
  std::vector<const data::Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  for (models::Regressor* model : std::initializer_list<models::Regressor*>{
           cnn.get(), sg.get(), &fusion, &late}) {
    model->set_training(false);
    const std::vector<float> batched = model->predict_batch(ptrs);
    ASSERT_EQ(batched.size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      EXPECT_NEAR(batched[i], model->predict(samples[i]), kTol) << model->name() << " pose " << i;
    }
  }
}

}  // namespace
}  // namespace df
