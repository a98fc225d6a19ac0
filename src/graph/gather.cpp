#include "graph/gather.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/activations.h"

namespace df::graph {

Gather::Gather(int64_t in_h, int64_t in_x, int64_t width, core::Rng& rng)
    : in_h_(in_h), in_x_(in_x), width_(width), gate_(in_h + in_x, width, rng),
      value_(in_h + in_x, width, rng) {}

void Gather::concat_rows(const Tensor& h, const Tensor& x, int64_t first, int64_t count,
                         float* dst) const {
  for (int64_t i = first; i < first + count; ++i, dst += in_h_ + in_x_) {
    std::memcpy(dst, h.data() + i * in_h_, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dst + in_h_, x.data() + i * in_x_, static_cast<size_t>(in_x_) * sizeof(float));
  }
}

Tensor Gather::gate_value(const Tensor& cat, bool training) {
  gate_.set_training(training);
  value_.set_training(training);
  // out = sigmoid(a_g) * v; the sigmoid rides the gate GEMM's epilogue.
  Tensor g = gate_.forward_act(cat, core::EpilogueAct::kSigmoid);
  Tensor v = value_.forward(cat);
  if (training) {
    cat_ = cat;
    gate_out_ = g;
    value_out_ = v;
    n_nodes_ = cat.dim(0);
  }
  Tensor out = Tensor::uninit(g.shape());
  for (int64_t i = 0; i < g.numel(); ++i) out[i] = g[i] * v[i];
  return out;
}

Tensor Gather::forward_nodes(const Tensor& h, const Tensor& x, bool training) {
  if (h.dim(0) != x.dim(0)) throw std::invalid_argument("Gather: node count mismatch");
  Tensor cat = Tensor::uninit({h.dim(0), in_h_ + in_x_});
  concat_rows(h, x, 0, h.dim(0), cat.data());
  return gate_value(cat, training);
}

std::pair<Tensor, Tensor> Gather::backward_nodes(const Tensor& grad_out) {
  if (cat_.empty()) throw std::runtime_error("Gather::backward before forward");
  // out = sigmoid(a_g) * v
  Tensor dv = grad_out * gate_out_;
  Tensor dag = Tensor::uninit(grad_out.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    dag[i] = grad_out[i] * value_out_[i] * nn::dsigmoid_from_y(gate_out_[i]);
  }
  Tensor dcat = value_.backward(dv);
  dcat += gate_.backward(dag);
  // split the concat gradient with contiguous row copies
  Tensor dh = Tensor::uninit({n_nodes_, in_h_}), dx = Tensor::uninit({n_nodes_, in_x_});
  for (int64_t i = 0; i < n_nodes_; ++i) {
    const float* src = dcat.data() + i * (in_h_ + in_x_);
    std::memcpy(dh.data() + i * in_h_, src, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dx.data() + i * in_x_, src + in_h_, static_cast<size_t>(in_x_) * sizeof(float));
  }
  cat_ = Tensor();
  return {std::move(dh), std::move(dx)};
}

Tensor Gather::forward_sum(const Tensor& h, const Tensor& x, int64_t n_sum, bool training) {
  if (training) {
    // Backward needs every node's gate and value, summed or not.
    Tensor per_node = forward_nodes(h, x, true);
    n_sum_ = std::clamp<int64_t>(n_sum, 0, per_node.dim(0));
    Tensor out({1, width_});
    sum_rows(per_node, 0, n_sum_, out.data());
    return out;
  }
  std::vector<int64_t> offset = {0, h.dim(0)};
  return forward_segments(h, x, offset, {n_sum}, false);
}

Tensor Gather::forward_segments(const Tensor& h, const Tensor& x,
                                const std::vector<int64_t>& node_offset,
                                const std::vector<int64_t>& sum_counts, bool training) {
  if (node_offset.empty() || node_offset.size() != sum_counts.size() + 1) {
    throw std::invalid_argument("Gather::forward_segments: bad segment layout");
  }
  if (h.dim(0) != x.dim(0)) throw std::invalid_argument("Gather: node count mismatch");
  if (node_offset.back() > h.dim(0)) {
    throw std::invalid_argument("Gather::forward_segments: segments overrun the node rows");
  }
  // Only each graph's leading (ligand) rows are summed, so only those rows
  // run the gate/value GEMMs. The GEMMs are row-stable and the per-graph
  // sums keep the per-pose node order, so the result is bitwise the same
  // as gating every node — and batched == per-pose forward_sum.
  const int64_t num_graphs = static_cast<int64_t>(sum_counts.size());
  std::vector<int64_t> count(static_cast<size_t>(num_graphs));
  int64_t total = 0;
  for (size_t g = 0; g < count.size(); ++g) {
    count[g] = std::clamp<int64_t>(sum_counts[g], 0, node_offset[g + 1] - node_offset[g]);
    total += count[g];
  }
  Tensor out({num_graphs, width_});
  if (total == 0) return out;
  Tensor cat = Tensor::uninit({total, in_h_ + in_x_});
  int64_t row = 0;
  for (size_t g = 0; g < count.size(); ++g) {
    concat_rows(h, x, node_offset[g], count[g], cat.data() + row * (in_h_ + in_x_));
    row += count[g];
  }
  const Tensor per_row = gate_value(cat, training);
  row = 0;
  for (size_t g = 0; g < count.size(); ++g) {
    sum_rows(per_row, row, count[g], out.data() + static_cast<int64_t>(g) * width_);
    row += count[g];
  }
  return out;
}

void Gather::sum_rows(const Tensor& rows, int64_t first, int64_t count, float* acc) const {
  for (int64_t i = first; i < first + count; ++i) {
    const float* r = rows.data() + i * width_;
    for (int64_t j = 0; j < width_; ++j) acc[j] += r[j];
  }
}

std::pair<Tensor, Tensor> Gather::backward_sum(const Tensor& grad_graph) {
  // Broadcast the graph-level gradient to the summed nodes; zero elsewhere.
  Tensor gnodes({n_nodes_, width_});
  for (int64_t i = 0; i < n_sum_; ++i) {
    std::memcpy(gnodes.data() + i * width_, grad_graph.data(),
                static_cast<size_t>(width_) * sizeof(float));
  }
  return backward_nodes(gnodes);
}

void Gather::collect_parameters(std::vector<nn::Parameter*>& out) {
  gate_.collect_parameters(out);
  value_.collect_parameters(out);
}

}  // namespace df::graph
