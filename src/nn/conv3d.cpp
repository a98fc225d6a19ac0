#include "nn/conv3d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/gemm.h"
#include "core/parallel.h"

namespace df::nn {

namespace {

// Valid output range [lo, hi) for one spatial axis and one kernel offset:
// the positions `o` with 0 <= o*stride - pad + koff < in_size. Everything
// outside maps into the zero padding.
struct AxisRange {
  int64_t lo, hi;
};

AxisRange valid_range(int64_t in_size, int64_t out_size, int64_t stride, int64_t pad,
                      int64_t koff) {
  // o*stride >= pad - koff  and  o*stride <= in_size - 1 + pad - koff
  const int64_t num = pad - koff;
  int64_t lo = num <= 0 ? 0 : (num + stride - 1) / stride;
  int64_t hi = (in_size - 1 + pad - koff) / stride + 1;
  if (in_size - 1 + pad - koff < 0) hi = 0;
  lo = std::min(lo, out_size);
  hi = std::clamp(hi, lo, out_size);
  return {lo, hi};
}

// Scatter-add cols-shaped gradients back into one sample's input gradient.
// Mirrors the lowering's interior ranges; border columns map into padding and
// are dropped.
void col2vol(const float* cols, int64_t cin, int64_t D, int64_t H, int64_t W, int64_t k,
             int64_t stride, int64_t pad, int64_t Do, int64_t Ho, int64_t Wo, float* gx) {
  const int64_t N = Do * Ho * Wo;
  for (int64_t ci = 0; ci < cin; ++ci) {
    float* gc = gx + ci * D * H * W;
    for (int64_t kz = 0; kz < k; ++kz) {
      const AxisRange rz = valid_range(D, Do, stride, pad, kz);
      for (int64_t ky = 0; ky < k; ++ky) {
        const AxisRange ry = valid_range(H, Ho, stride, pad, ky);
        for (int64_t kx = 0; kx < k; ++kx) {
          const AxisRange rx = valid_range(W, Wo, stride, pad, kx);
          const float* row = cols + (((ci * k + kz) * k + ky) * k + kx) * N;
          const int64_t nx = rx.hi - rx.lo;
          if (nx <= 0) continue;
          for (int64_t zo = rz.lo; zo < rz.hi; ++zo) {
            const int64_t z = zo * stride - pad + kz;
            for (int64_t yo = ry.lo; yo < ry.hi; ++yo) {
              const int64_t y = yo * stride - pad + ky;
              float* dst = gc + (z * H + y) * W + (rx.lo * stride - pad + kx);
              const float* src = row + (zo * Ho + yo) * Wo + rx.lo;
              if (stride == 1) {
                for (int64_t j = 0; j < nx; ++j) dst[j] += src[j];
              } else {
                for (int64_t j = 0; j < nx; ++j) dst[j * stride] += src[j];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

Conv3d::Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
               int64_t stride, int64_t padding)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride), pad_(padding) {
  const float fan_in = static_cast<float>(cin_ * k_ * k_ * k_);
  const float bound = 1.0f / std::sqrt(fan_in);
  w_ = Parameter(Tensor::uniform({cout_, cin_, k_, k_, k_}, rng, -bound, bound), "conv3d.w");
  b_ = Parameter(Tensor::uniform({cout_}, rng, -bound, bound), "conv3d.b");
}

Tensor Conv3d::forward(const Tensor& x) { return forward_act(x, core::EpilogueAct::kNone); }

void Conv3d::build_plan(int64_t D, int64_t H, int64_t W, int64_t Do, int64_t Ho, int64_t Wo) {
  plan_.D = D;
  plan_.H = H;
  plan_.W = W;
  plan_.copies.clear();
  plan_.strided.clear();
  plan_.zeros.clear();
  const int64_t N = Do * Ho * Wo;
  auto zero = [&](int64_t row, int64_t col, int64_t len) {
    ColsPlan::ZeroSpan* last = plan_.zeros.empty() ? nullptr : &plan_.zeros.back();
    if (last != nullptr && last->row == row && last->col + last->len == col) {
      last->len += len;
    } else {
      plan_.zeros.push_back({row, col, len});
    }
  };
  auto copy = [&](int64_t row, int64_t col, int64_t src, int64_t len) {
    ColsPlan::Span* last = plan_.copies.empty() ? nullptr : &plan_.copies.back();
    if (last != nullptr && last->row == row && last->col + last->len == col &&
        last->src + last->len == src) {
      last->len += len;
    } else {
      plan_.copies.push_back({row, col, src, len});
    }
  };
  for (int64_t kz = 0; kz < k_; ++kz) {
    const AxisRange rz = valid_range(D, Do, stride_, pad_, kz);
    for (int64_t ky = 0; ky < k_; ++ky) {
      const AxisRange ry = valid_range(H, Ho, stride_, pad_, ky);
      for (int64_t kx = 0; kx < k_; ++kx) {
        const AxisRange rx = valid_range(W, Wo, stride_, pad_, kx);
        const int64_t row = (kz * k_ + ky) * k_ + kx;
        const int64_t nx = rx.hi - rx.lo;
        if (nx <= 0) {
          zero(row, 0, N);
          continue;
        }
        for (int64_t zo = 0; zo < Do; ++zo) {
          const int64_t pcol = zo * Ho * Wo;
          if (zo < rz.lo || zo >= rz.hi) {
            zero(row, pcol, Ho * Wo);
            continue;
          }
          const int64_t z = zo * stride_ - pad_ + kz;
          for (int64_t yo = 0; yo < Ho; ++yo) {
            const int64_t col0 = pcol + yo * Wo;
            if (yo < ry.lo || yo >= ry.hi) {
              zero(row, col0, Wo);
              continue;
            }
            const int64_t y = yo * stride_ - pad_ + ky;
            if (rx.lo > 0) zero(row, col0, rx.lo);
            const int64_t src = (z * H + y) * W + (rx.lo * stride_ - pad_ + kx);
            if (stride_ == 1) {
              copy(row, col0 + rx.lo, src, nx);
            } else {
              plan_.strided.push_back({row, col0 + rx.lo, src, nx});
            }
            if (rx.hi < Wo) zero(row, col0 + rx.hi, Wo - rx.hi);
          }
        }
      }
    }
  }
}

void Conv3d::lower(const float* x, float* cols, int64_t ldcols) const {
  const ColsPlan& plan = plan_;
  const int64_t chan_in = plan.D * plan.H * plan.W;
  const int64_t chan_cols = k_ * k_ * k_ * ldcols;
  for (int64_t ci = 0; ci < cin_; ++ci) {
    const float* xs = x + ci * chan_in;
    float* cd = cols + ci * chan_cols;
    for (const ColsPlan::ZeroSpan& zs : plan.zeros)
      std::memset(cd + zs.row * ldcols + zs.col, 0, static_cast<size_t>(zs.len) * sizeof(float));
    for (const ColsPlan::Span& cs : plan.copies)
      std::memcpy(cd + cs.row * ldcols + cs.col, xs + cs.src,
                  static_cast<size_t>(cs.len) * sizeof(float));
#if defined(DF_SIMD_MATH_VECTOR)
    if (stride_ == 2) {
      // Stride-2 gather = even lanes of one contiguous load (the trailing
      // over-read lands in the allocation slack every tensor reserves).
      typedef float v8f __attribute__((vector_size(32), aligned(4)));
      for (const ColsPlan::StridedSpan& ss : plan.strided) {
        float* dst = cd + ss.row * ldcols + ss.col;
        const float* src = xs + ss.src;
        core::simd::vf16 v;
        std::memcpy(&v, src, sizeof(v));
        const v8f even = __builtin_shufflevector(v, v, 0, 2, 4, 6, 8, 10, 12, 14);
        if (ss.n > 8 && ss.n <= 16) {
          core::simd::vf16 v2;
          std::memcpy(&v2, src + 16, sizeof(v2));
          const v8f even2 = __builtin_shufflevector(v2, v2, 0, 2, 4, 6, 8, 10, 12, 14);
          std::memcpy(dst, &even, sizeof(even));
          std::memcpy(dst + 8, &even2, static_cast<size_t>(ss.n - 8) * sizeof(float));
        } else if (ss.n <= 8) {
          std::memcpy(dst, &even, static_cast<size_t>(ss.n) * sizeof(float));
        } else {
          for (int64_t j = 0; j < ss.n; ++j) dst[j] = src[j * 2];
        }
      }
      continue;
    }
#endif
    for (const ColsPlan::StridedSpan& ss : plan.strided) {
      float* dst = cd + ss.row * ldcols + ss.col;
      const float* src = xs + ss.src;
      for (int64_t j = 0; j < ss.n; ++j) dst[j] = src[j * stride_];
    }
  }
}

Tensor Conv3d::forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope) {
  if (x.ndim() != 5 || x.dim(1) != cin_) {
    throw std::invalid_argument("Conv3d: expected (B," + std::to_string(cin_) + ",D,H,W), got " +
                                x.shape_str());
  }
  if (training_) cached_input_ = x;
  if (!training_ && observer_ != nullptr) observer_->observe(x.data(), x.numel());
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  Tensor out = Tensor::uninit({B, cout_, Do, Ho, Wo});

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const float* in = x.data();
  const float* w = w_.value.data();  // (cout, K) row-major as stored
  float* o = out.data();

  // The (cout x N) sample GEMM's row index is the output channel, so the
  // conv bias is a per-row broadcast; it and the optional activation ride
  // the fused epilogue instead of a second sweep over the output volume.
  core::Epilogue ep;
  ep.act = act;
  ep.bias_row = b_.value.data();
  ep.leaky_slope = leaky_slope;

  const int64_t sample_in = cin_ * D * H * W;
  const bool quantized = !training_ && quant_ != nullptr;
  if (!training_ && !quantized && skip_ok_) {
    // Occupancy-skipping route: each sample's zero inputs are never touched.
    // Samples fan out over the compute pool; workers only read the plan.
    if (skip_plan_.D != D || skip_plan_.H != H || skip_plan_.W != W)
      build_skip_plan(D, H, W, Do, Ho, Wo);
    core::parallel_for_auto(static_cast<size_t>(B), 2, [&](size_t b) {
      const int64_t bi = static_cast<int64_t>(b);
      forward_skip(in + bi * sample_in, o + bi * cout_ * N, N, ep);
    });
    return out;
  }

  if (plan_.D != D || plan_.H != H || plan_.W != W) build_plan(D, H, W, Do, Ho, Wo);
  // Groups of g samples share one column matrix and one GEMM, so the small
  // late layers run one wide GEMM instead of B narrow ones (2³ outputs give
  // a GEMM only 8 columns wide per sample). g stays 1 where one sample's
  // column matrix already fills the budget: lowering a whole batch of
  // first-conv samples on a full voxel grid was measured 2.6x slower,
  // because the wide matrix then streams through DRAM. The int8 route keeps
  // per-sample quantization. Groups fan out over the compute pool (sgemm
  // detects it runs on a worker and stays serial inside; workers only read
  // the plan).
  const int64_t g =
      quantized ? 1 : std::clamp<int64_t>(kLowerBudgetFloats / std::max<int64_t>(1, K * N), 1, B);
  const int64_t groups = (B + g - 1) / g;
  core::parallel_for_auto(static_cast<size_t>(groups), 2, [&](size_t gi) {
    static thread_local std::vector<float> cols, cbuf;
    const int64_t b0 = static_cast<int64_t>(gi) * g;
    const int64_t nl = std::min(g, B - b0);
    const int64_t ld = nl * N;
    cols.resize(static_cast<size_t>(K * ld));
    for (int64_t t = 0; t < nl; ++t) lower(in + (b0 + t) * sample_in, cols.data() + t * N, ld);
    // One sample writes straight into the output; a group's (cout, nl*N)
    // result is split back into per-sample blocks afterwards.
    float* c = o + b0 * cout_ * N;
    if (nl > 1) {
      cbuf.resize(static_cast<size_t>(cout_ * ld));
      c = cbuf.data();
    }
    if (quantized) {
      // Int8 path: quantize this sample's column matrix to packed s8 panels
      // (the GEMM's B operand) against the prequantized u8 weight image.
      // The compensation vector depends on the quantized columns, so it is
      // produced here per call, unlike Dense's static weight-side comp.
      const QuantizedConv& q = *quant_;
      static thread_local std::vector<int8_t> colsq;
      static thread_local std::vector<int32_t> comp;
      colsq.resize(static_cast<size_t>(core::packed_b_bytes_s8(K, ld)));
      comp.resize(static_cast<size_t>(ld));
      core::pack_quantize_b_s8(K, ld, cols.data(), ld, /*inv_scale_col=*/nullptr,
                               1.0f / q.act_scale, colsq.data(), comp.data());
      core::QuantEpilogue qep;
      qep.act = act;
      qep.leaky_slope = leaky_slope;
      qep.scale_row = q.scales;
      qep.bias_row = b_.value.data();
      qep.comp_col = comp.data();
      const int64_t k4 = (K + 3) & ~int64_t{3};
      core::gemm_u8s8f32(cout_, ld, K, q.wu8, k4, colsq.data(), c, ld, qep);
    } else if (!training_ && pa_.panels != nullptr) {
      core::sgemm_prepacked(pa_, ld, cols.data(), ld, c, ld, /*accumulate=*/false, &ep);
    } else {
      core::sgemm(false, false, cout_, ld, K, w, K, cols.data(), ld, c, ld, /*accumulate=*/false,
                  &ep);
    }
    if (nl > 1) {
      for (int64_t t = 0; t < nl; ++t) {
        float* ob = o + (b0 + t) * cout_ * N;
        for (int64_t co = 0; co < cout_; ++co)
          std::memcpy(ob + co * N, c + co * ld + t * N, static_cast<size_t>(N) * sizeof(float));
      }
    }
  });
  return out;
}

// Input z feeds output zo = (z + pad - kz) / S exactly when
// (z + pad) % S == kz % S, and then zo = q - a with q = (z + pad) / S and
// a = kz / S. So the plan groups a channel's positions by that parity class
// once, each with the accumulator index of q; kernel offset (kz, ky, kx)
// reads the class of its parities under the shift of its a's. The
// accumulator grid extends every axis down by (k - 1) / S and up to the
// largest q (or the last output), so q - a always lands inside it: the
// bucketing needs no bounds checks, and the terms that land outside
// [0, Do) are computed and dropped (the runs list only valid outputs).
void Conv3d::build_skip_plan(int64_t D, int64_t H, int64_t W, int64_t Do, int64_t Ho,
                             int64_t Wo) {
  SkipPlan& sp = skip_plan_;
  const int64_t S = stride_, A = (k_ - 1) / S;
  // Each axis must also hold every valid output: with pad >= k some
  // outputs lie past the largest q and see only padding.
  const int64_t Ez = std::max((D - 1 + pad_) / S, Do - 1) + A + 1;
  const int64_t Ey = std::max((H - 1 + pad_) / S, Ho - 1) + A + 1;
  const int64_t Ex = std::max((W - 1 + pad_) / S, Wo - 1) + A + 1;
  sp.D = D;
  sp.H = H;
  sp.W = W;
  sp.acc_cols = Ez * Ey * Ex;
  auto parity = [S](int64_t z, int64_t y, int64_t x) { return ((z % S) * S + y % S) * S + x % S; };
  sp.pos.clear();
  sp.col.clear();
  sp.class_start.assign(static_cast<size_t>(S * S * S + 1), 0);
  for (int64_t c = 0; c < S * S * S; ++c) {
    sp.class_start[static_cast<size_t>(c)] = static_cast<int64_t>(sp.pos.size());
    for (int64_t z = 0; z < D; ++z)
      for (int64_t y = 0; y < H; ++y)
        for (int64_t x = 0; x < W; ++x) {
          const int64_t qz = z + pad_, qy = y + pad_, qx = x + pad_;
          if (parity(qz, qy, qx) != c) continue;
          sp.pos.push_back(static_cast<int32_t>((z * H + y) * W + x));
          sp.col.push_back(static_cast<int32_t>(((qz / S + A) * Ey + qy / S + A) * Ex + qx / S + A));
        }
  }
  sp.class_start.back() = static_cast<int64_t>(sp.pos.size());
  sp.offset_class.clear();
  sp.offset_shift.clear();
  for (int64_t kz = 0; kz < k_; ++kz)
    for (int64_t ky = 0; ky < k_; ++ky)
      for (int64_t kx = 0; kx < k_; ++kx) {
        sp.offset_class.push_back(parity(kz, ky, kx));
        sp.offset_shift.push_back(((kz / S) * Ey + ky / S) * Ex + kx / S);
      }
  sp.runs.clear();
  for (int64_t zo = 0; zo < Do; ++zo)
    for (int64_t yo = 0; yo < Ho; ++yo)
      sp.runs.push_back({(((zo + A) * Ey + yo + A) * Ex + A), Wo});
}

void Conv3d::forward_skip(const float* x, float* out, int64_t N, const core::Epilogue& ep) const {
  const SkipPlan& sp = skip_plan_;
  const int64_t chan = sp.D * sp.H * sp.W, k3 = k_ * k_ * k_;
  const size_t classes = sp.class_start.size() - 1;
  static thread_local std::vector<core::SparseBEntry> entries;
  static thread_local std::vector<core::SparseBRow> rows;
  static thread_local std::vector<core::SparseBRow> bucket;
  entries.resize(static_cast<size_t>(cin_ * chan));
  rows.resize(static_cast<size_t>(cin_ * k3));
  bucket.resize(classes);
  core::SparseBEntry* dst = entries.data();
  for (int64_t ci = 0; ci < cin_; ++ci) {
    // Bucket the channel's nonzeros by parity class. Branch-free: every
    // input is written, and only a nonzero advances its bucket.
    const float* xc = x + ci * chan;
    for (size_t c = 0; c < classes; ++c) {
      int64_t n = 0;
      for (int64_t i = sp.class_start[c]; i < sp.class_start[c + 1]; ++i) {
        const float v = xc[sp.pos[static_cast<size_t>(i)]];
        dst[n] = {sp.col[static_cast<size_t>(i)], v};
        n += v != 0.0f ? 1 : 0;
      }
      bucket[c] = {dst, n, 0};
      dst += n;
    }
    for (int64_t off = 0; off < k3; ++off) {
      core::SparseBRow& row = rows[static_cast<size_t>(ci * k3 + off)];
      row = bucket[static_cast<size_t>(sp.offset_class[static_cast<size_t>(off)])];
      row.shift = sp.offset_shift[static_cast<size_t>(off)];
    }
  }
  core::sgemm_sparse_b(pa_, rows.data(), sp.acc_cols, sp.runs.data(),
                       static_cast<int64_t>(sp.runs.size()), out, N, ep);
}

bool Conv3d::skip_supported() const { return core::sparse_b_supported(cout_); }

void Conv3d::prepack() {
  const int64_t K = cin_ * k_ * k_ * k_;
  packed_own_.resize(static_cast<size_t>(core::packed_a_floats(cout_, K)));
  core::pack_a_full(false, cout_, K, w_.value.data(), K, packed_own_.data());
  attach_prepacked(packed_own_.data());
}

void Conv3d::attach_prepacked(const float* panels) {
  const int64_t K = cin_ * k_ * k_ * k_;
  if (panels != packed_own_.data()) packed_own_.clear();
  pa_ = {cout_, K, panels, w_.value.data()};
  // inf * 0 is NaN on the dense route, so skipping a zero input is exact
  // only while every weight is finite.
  const float* w = w_.value.data();
  skip_ok_ = skip_supported() && std::all_of(w, w + K * cout_, [](float v) {
               return std::isfinite(v);
             });
}

void Conv3d::attach_quantized(QuantizedConv q) {
  auto owned = std::make_unique<QuantizedConv>(std::move(q));
  if (owned->wu8 == nullptr) owned->wu8 = owned->own_wu8.data();
  if (owned->scales == nullptr) owned->scales = owned->own_scales.data();
  quant_ = std::move(owned);
}

void Conv3d::attach_quantized_views(float act_scale, const uint8_t* wu8, const float* scales) {
  auto q = std::make_unique<QuantizedConv>();
  q->act_scale = act_scale;
  q->wu8 = wu8;
  q->scales = scales;
  quant_ = std::move(q);
}

void Conv3d::warm_plan(int64_t D, int64_t H, int64_t W) {
  if (plan_.D == D && plan_.H == H && plan_.W == W) return;
  build_plan(D, H, W, out_size(D, k_, stride_, pad_), out_size(H, k_, stride_, pad_),
             out_size(W, k_, stride_, pad_));
}

Tensor Conv3d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::runtime_error("Conv3d::backward before forward");
  const Tensor& x = cached_input_;
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in(x.shape());

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const float* in = x.data();
  const float* g = grad_out.data();
  const float* w = w_.value.data();
  float* gw = w_.grad.data();
  float* gb = b_.grad.data();
  float* gi = grad_in.data();

  // Serial over samples: grad_w/grad_b accumulate across the batch, and the
  // per-sample gemms already use the pool when one is installed.
  if (plan_.D != D || plan_.H != H || plan_.W != W) build_plan(D, H, W, Do, Ho, Wo);
  std::vector<float> cols(static_cast<size_t>(K * N));
  std::vector<float> cols_grad(static_cast<size_t>(K * N));
  for (int64_t b = 0; b < B; ++b) {
    const float* gbatch = g + b * cout_ * N;
    for (int64_t co = 0; co < cout_; ++co) {
      const float* row = gbatch + co * N;
      float acc = 0.0f;
      for (int64_t j = 0; j < N; ++j) acc += row[j];
      gb[co] += acc;
    }
    lower(in + b * cin_ * D * H * W, cols.data(), N);
    // dW (cout,K) += gOut (cout,N) x cols^T (N,K)
    core::sgemm(false, true, cout_, K, N, gbatch, N, cols.data(), N, gw, K, /*accumulate=*/true);
    // dCols (K,N) = W^T (K,cout) x gOut (cout,N), scattered back to dInput.
    core::sgemm(true, false, K, N, cout_, w, K, gbatch, N, cols_grad.data(), N);
    col2vol(cols_grad.data(), cin_, D, H, W, k_, stride_, pad_, Do, Ho, Wo,
            gi + b * cin_ * D * H * W);
  }
  return grad_in;
}

void Conv3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = Conv3d::out_size(D, k, stride, padding);
  const int64_t Ho = Conv3d::out_size(H, k, stride, padding);
  const int64_t Wo = Conv3d::out_size(W, k, stride, padding);
  Tensor out({B, cout, Do, Ho, Wo});

  const float* in = x.data();
  float* o = out.data();
  const float* wd = w.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      float* obase = o + (bb * cout + co) * out_chan;
      const float bias = b[co];
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            float acc = bias;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const float* irow = ibase + (z * H + y) * W;
                  const float* wrow = wbase + (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    acc += irow[xx] * wrow[kx];
                  }
                }
              }
            }
            obase[(zo * Ho + yo) * Wo + xo] = acc;
          }
        }
      }
    }
  }
  return out;
}

Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in(x.shape());

  const float* in = x.data();
  const float* g = grad_out.data();
  const float* wd = w.data();
  float* gw = grad_w.data();
  float* gi = grad_in.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* gbase = g + (bb * cout + co) * out_chan;
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            const float gv = gbase[(zo * Ho + yo) * Wo + xo];
            grad_b[co] += gv;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              float* gibase = gi + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              float* gwbase = gw + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const int64_t irow = (z * H + y) * W;
                  const int64_t wrow = (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    gwbase[wrow + kx] += gv * ibase[irow + xx];
                    gibase[irow + xx] += gv * wbase[wrow + kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor MaxPool3d::forward(const Tensor& x) {
  if (x.ndim() != 5) throw std::invalid_argument("MaxPool3d: expected 5-D, got " + x.shape_str());
  in_shape_ = x.shape();
  const int64_t B = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = (D - k_) / stride_ + 1, Ho = (H - k_) / stride_ + 1, Wo = (W - k_) / stride_ + 1;
  Tensor out = Tensor::uninit({B, C, Do, Ho, Wo});
  // Only backward reads the argmax, so eval forwards do not record it.
  if (training_) {
    argmax_.resize(static_cast<size_t>(out.numel()));
  } else {
    argmax_.clear();
  }
  int64_t* argmax = training_ ? argmax_.data() : nullptr;

  const float* in = x.data();
  float* o = out.data();
  const int64_t in_chan = D * H * W;
  const int64_t out_chan = Do * Ho * Wo;
  // (batch, channel) planes are independent — fan out over the pool.
  core::parallel_for_auto(static_cast<size_t>(B * C), 4, [&](size_t bci) {
    const int64_t bc = static_cast<int64_t>(bci);
    const float* ibase = in + bc * in_chan;
    int64_t oi = bc * out_chan;
    for (int64_t zo = 0; zo < Do; ++zo)
      for (int64_t yo = 0; yo < Ho; ++yo)
        for (int64_t xo = 0; xo < Wo; ++xo, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t besti = 0;
          for (int64_t kz = 0; kz < k_; ++kz)
            for (int64_t ky = 0; ky < k_; ++ky)
              for (int64_t kx = 0; kx < k_; ++kx) {
                const int64_t idx = ((zo * stride_ + kz) * H + yo * stride_ + ky) * W +
                                    xo * stride_ + kx;
                if (ibase[idx] > best) {
                  best = ibase[idx];
                  besti = bc * in_chan + idx;
                }
              }
          o[oi] = best;
          if (argmax != nullptr) argmax[oi] = besti;
        }
  });
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_out) {
  if (static_cast<int64_t>(argmax_.size()) != grad_out.numel()) {
    throw std::runtime_error("MaxPool3d::backward without a matching training forward");
  }
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) { return grad_out.reshaped(in_shape_); }

}  // namespace df::nn
