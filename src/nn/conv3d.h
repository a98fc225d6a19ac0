// 3-D convolution and max-pooling over voxelized protein–ligand complexes.
// Input layout is (batch, channels, depth, height, width), matching the
// voxelizer's output. Conv3d lowers samples to (cin*k³, Do*Ho*Wo) column
// matrices (vol2col) whose padded border is zero-filled up front and whose
// interior is copied with branch-free row loops, then runs one blocked
// sgemm per group of samples; backward reverses the lowering (col2vol).
// Eval forwards of a compiled layer instead skip each sample's zero inputs
// (the occupancy-skipping route), bitwise equal.
// The original direct 7-loop implementation is retained below as the
// equivalence reference for tests and the speedup benchmark.
#pragma once

#include <memory>
#include <vector>

#include "core/gemm.h"
#include "core/gemm_s8.h"
#include "core/rng.h"
#include "nn/module.h"
#include "nn/observer.h"

namespace df::nn {

/// Int8 execution state for a Conv3d layer (src/quant/ attaches it). The
/// weight is the u8 A operand of the per-sample int8 GEMM: a row-major
/// (cout, round_up(cin*k^3, 4)) image of offset-128 bytes. Per-output-channel
/// combined dequant scales; the compensation vector is computed per call
/// from the quantized column matrix (it depends on the activations).
struct QuantizedConv {
  float act_scale = 1.0f;        // input quant step: q = round(x / act_scale)
  const uint8_t* wu8 = nullptr;  // (cout, round_up(cin*k^3, 4)) row-major
  const float* scales = nullptr; // length cout
  std::vector<uint8_t> own_wu8;
  std::vector<float> own_scales;
};

class Conv3d : public Module {
 public:
  Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
         int64_t stride = 1, int64_t padding = 0);

  Tensor forward(const Tensor& x) override;
  /// Forward with a fused activation epilogue (bias + act applied on the
  /// per-sample GEMM's hot micro-tiles); bitwise identical to forward()
  /// followed by the elementwise activation. Inference-path only — training
  /// needs the pre-activation output cached by the activation layer.
  Tensor forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope = 0.01f);
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Spatial output size for one dimension.
  static int64_t out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
    return (in + 2 * padding - kernel) / stride + 1;
  }

  int64_t in_channels() const { return cin_; }
  int64_t out_channels() const { return cout_; }
  int64_t kernel() const { return k_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return pad_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

  // -- ahead-of-time weight packing (model compiler) ----------------------
  // The weight is the A operand of every per-sample GEMM; packing it once
  // removes pack_a from the steady-state path. Inference-only, same
  // contract as Dense: re-prepack after any weight mutation.

  /// Pack w into an owned buffer and route eval forwards through it.
  void prepack();
  /// Route eval forwards through an external image of
  /// core::packed_a_floats(cout, cin*k^3) floats. Caller keeps it alive.
  void attach_prepacked(const float* panels);
  void clear_prepacked() {
    pa_ = {};
    packed_own_.clear();
    skip_ok_ = false;
  }
  bool prepacked() const { return pa_.panels != nullptr; }

  // -- eval routes (fp32) ------------------------------------------------
  // A prepacked layer with a sparse kernel for its cout and finite weights
  // runs eval forwards on the occupancy-skipping route: per sample, only the
  // nonzero inputs are visited (core::sgemm_sparse_b over the prepacked
  // panels). Every other forward lowers samples side by side, g at a time,
  // into one (K, g*N) column matrix and one GEMM: g = kLowerBudgetFloats /
  // (K*N), clamped to [1, batch]. Layers with a big column matrix (a first
  // conv on a full voxel grid) keep g = 1 so it stays cache-resident; small
  // late layers batch many samples. Every route gives the same bits
  // (core/gemm.h states the one -0 caveat).

  // 512 KiB: no group matrix outgrows the per-sample first-conv matrix of
  // the 8³ voxel grid, so grouping keeps no more memory resident.
  static constexpr int64_t kLowerBudgetFloats = int64_t{1} << 17;

  /// True when a sparse kernel exists for this layer's output channels
  /// (core::sparse_b_supported: 16, 32 or 64).
  bool skip_supported() const;
  /// True when eval forwards take the skip route: prepacked, a kernel for
  /// the geometry, and every weight finite (inf * 0 is NaN on the dense
  /// route, so a skipped zero would change the result).
  bool skip_enabled() const { return skip_ok_; }

  // -- int8 quantized execution (src/quant/) ------------------------------
  // Eval forwards quantize each sample's column matrix to int8 panels and
  // run the int8 GEMM against the prequantized u8 weight image. Takes
  // priority over the fp32 prepacked path; training stays fp32.

  /// Attach owned quantized state (moved in). Null view pointers are
  /// re-pointed at the owned vectors.
  void attach_quantized(QuantizedConv q);
  /// Attach borrowed views (e.g. into an mmap'd artifact). Caller keeps
  /// them alive for the layer's lifetime.
  void attach_quantized_views(float act_scale, const uint8_t* wu8, const float* scales);
  void clear_quantized() { quant_.reset(); }
  bool quantized() const { return quant_ != nullptr; }
  /// Serialization access (model compiler); nullptr when not quantized.
  const QuantizedConv* quantized_state() const { return quant_.get(); }

  /// Calibration hook: when set, eval forwards report their input to the
  /// observer before computing. Not used in training mode.
  void set_observer(ActivationObserver* obs) { observer_ = obs; }

  /// Build the vol2col copy plan for a (D, H, W) input ahead of the first
  /// forward, so a compiled replica's first score pays no plan construction.
  void warm_plan(int64_t D, int64_t H, int64_t W);

 private:
  // Replayable vol2col plan for one input channel: the (source, column)
  // copy/zero spans depend only on geometry, so they are computed once per
  // input shape, merged into maximal contiguous runs within a column-matrix
  // row, and replayed for every (sample, channel) with plain offsets — the
  // nested loops and range clipping run once instead of per call. Spans
  // address (row, col) so one plan serves any leading dimension (one sample
  // or a group side by side). Replica state (the layer is single-threaded
  // per replica; pool workers only read it).
  struct ColsPlan {
    int64_t D = -1, H = -1, W = -1;            // geometry the plan was built for
    struct Span {
      int64_t row, col, src, len;              // contiguous copy (stride 1)
    };
    struct StridedSpan {
      int64_t row, col, src, n;                // n elements, src stride = stride_
    };
    struct ZeroSpan {
      int64_t row, col, len;
    };
    std::vector<Span> copies;
    std::vector<StridedSpan> strided;
    std::vector<ZeroSpan> zeros;
  };
  void build_plan(int64_t D, int64_t H, int64_t W, int64_t Do, int64_t Ho, int64_t Wo);
  /// Replay the plan for one sample into `cols` (row stride `ldcols`).
  void lower(const float* x, float* cols, int64_t ldcols) const;

  // Occupancy-skipping layout for one input shape (conv3d.cpp derives it):
  // a channel's positions grouped by stride-parity class, each with its
  // column in a padded accumulator grid of acc_cols outputs; the class and
  // grid shift of every kernel offset; and the runs of valid outputs.
  // Replica state, read-only for pool workers like ColsPlan.
  struct SkipPlan {
    int64_t D = -1, H = -1, W = -1;
    int64_t acc_cols = 0;
    std::vector<int32_t> pos, col;        // by class: channel offset, grid column
    std::vector<int64_t> class_start;     // stride³ + 1 bounds into pos/col
    std::vector<int64_t> offset_class;    // k³: parity class of (kz, ky, kx)
    std::vector<int64_t> offset_shift;    // k³: grid shift of (kz, ky, kx)
    std::vector<core::ColumnRun> runs;    // Do*Ho rows of Wo valid outputs
  };
  void build_skip_plan(int64_t D, int64_t H, int64_t W, int64_t Do, int64_t Ho, int64_t Wo);
  /// Skip route for one sample: out (cout, N) from x (cin, D, H, W).
  void forward_skip(const float* x, float* out, int64_t N, const core::Epilogue& ep) const;

  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter w_;  // (cout, cin, k, k, k)
  Parameter b_;  // (cout)
  Tensor cached_input_;
  ColsPlan plan_;
  std::vector<float> packed_own_;
  core::PrepackedA pa_;
  bool skip_ok_ = false;  // see skip_enabled()
  SkipPlan skip_plan_;
  std::unique_ptr<QuantizedConv> quant_;
  ActivationObserver* observer_ = nullptr;
};

class MaxPool3d : public Module {
 public:
  explicit MaxPool3d(int64_t kernel = 2, int64_t stride = 2) : k_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  int64_t k_, stride_;
  std::vector<int64_t> argmax_;  // flat input index per output element
  std::vector<int64_t> in_shape_;
};

/// Direct 7-loop reference convolution (the pre-vol2col implementation).
/// Retained for equivalence tests and the speedup benchmark only — model
/// code must go through Conv3d.
Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding);
/// Reference backward: returns grad_in and accumulates into grad_w/grad_b.
Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding);

/// Flatten (B, ...) -> (B, features); the bridge from conv stack to dense head.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::vector<int64_t> in_shape_;
};

}  // namespace df::nn
