#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"poses_per_s", "poses/s"},
      {"p50_ms", "ms"},
      {"tail_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers = {
      "chem.voxelize_pocket", "chem.cell_list",   "chem.voxelize_ligand", "chem.graph",
      "models.forward",       "serve.wire",       "screen.writer",        "screen.checkpoint",
      "dock.docking",         "dock.mmgbsa",
  };
  return layers;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"models.fusion.forward_ms_b32", "ms"},
        {"models.cnn3d.forward_ms_b32", "ms"},
        {"models.sgcnn.forward_ms_b32", "ms"},
        {"models.fusion.forward_ms_b1", "ms"},
        {"models.fusion.gflop_per_pose", "GFLOP"},
        {"models.fusion.gflops", "GFLOP/s"},
        {"models.fusion.roofline_frac", "ratio"},
        {"core.sgemm.peak_gflops", "GFLOP/s"},
        {"core.sgemm.conv1_gflops", "GFLOP/s"},
        {"serve.scorer.featurize_ms_per_batch", "ms"},
        {"serve.scorer.forward_ms_per_batch", "ms"},
        {"chem.voxelize_pocket_ms", "ms"},
        {"chem.cell_list_build_ms", "ms"},
        {"chem.voxelize_ligand_ms_per_pose", "ms"},
        {"chem.graph_featurize_ms_per_pose", "ms"},
        {"serve.pocket_cache.hit_ratio", "ratio"},
        {"serve.service.resolve_ms_p50", "ms"},
        {"serve.service.resolve_ms_tail", "ms"},
        {"serve.service.mean_batch_poses", "poses"},
        {"serve.service.coalesced_batch_ratio", "ratio"},
        {"serve.service.full_batch_ratio", "ratio"},
        {"serve.service.peak_queued_poses", "poses"},
        {"serve.wire.request_bytes", "bytes"},
        {"serve.wire.encode_us", "us"},
        {"serve.wire.decode_us", "us"},
        {"serve.client.retries", "count"},
        {"serve.client.transport_failures", "count"},
        {"serve.server.protocol_errors", "count"},
        {"compile.artifact_load_ms", "ms"},
        {"screen.writer.ms_per_kpose", "ms"},
        {"screen.writer.bytes_per_pose", "bytes"},
        {"screen.checkpoint.ms", "ms"},
        {"dock.conveyorlc_ms_per_compound_target", "ms"},
        {"dock.docking_evals_per_s", "1/s"},
        {"dock.mmgbsa_ms_per_pose", "ms"},
        {"screen.campaign.docking_share", "ratio"},
        {"screen.campaign.mmgbsa_share", "ratio"},
        {"screen.campaign.fusion_share", "ratio"},
        {"loadgen.p50_ms_low", "ms"},
        {"loadgen.tail_ms_high", "ms"},
        {"loadgen.lag_ms_tail", "ms"},
        {"loadgen.offered_rps", "1/s"},
        {"loadgen.backlog_end", "count"},
        {"loadgen.max_rps", "1/s"},
    };
    for (const std::string& layer : traced_layers()) {
      d.push_back({"trace.self_share." + layer, "ratio"});
    }
    d.push_back({"trace.poses_per_s", "poses/s"});
    d.push_back({"trace.overhead_frac", "ratio"});
    d.push_back({"trace.spans", "count"});
    return d;
  }();
  return defs;
}

std::string result_line(const Outcome& outcome, const Metrics& values,
                        const std::vector<MetricDef>& catalog) {
  std::string metrics;
  char buf[256];
  for (const MetricDef& def : catalog) {
    const auto it = values.find(def.name);
    if (it == values.end()) throw std::runtime_error("metric not measured: " + def.name);
    if (!std::isfinite(it->second)) throw std::runtime_error("metric not finite: " + def.name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name.c_str(), it->second, def.unit.c_str());
    metrics += buf;
  }
  std::snprintf(buf, sizeof(buf), "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                outcome.correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
  return std::string(buf) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
