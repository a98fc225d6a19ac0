// screen — offline scoring of pre-docked poses, the paper's production job
// (Fig. 3). An in-process ordered-stream ScoringService (batch 32, pipeline
// depth 2, pocket cache sized to the 4 receptors) serves two rank clients
// in a closed loop; each submits a work unit of 256 poses against one
// receptor, waits for it, and writes it as a shard.
//
// Checked: every unit's scores equal, bit for bit, a sequential
// Scorer::score reference over the same 32-pose ordered-stream chunks, and
// the shards read back complete through read_sharded_results.
#include <atomic>
#include <mutex>
#include <thread>

#include "host.h"
#include "ledger.h"
#include "screen/writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReceptors = 4;
constexpr int kUnits = 64;           // distinct units; the loop cycles through them
constexpr int kUnitPoses = 256;
constexpr int kPosesPerLigand = 16;
constexpr int kClients = 2;
constexpr int kRounds = 5;           // fresh service per round; medians over rounds
constexpr double kWarmupS = 1.5;     // load before the window opens (not measured)

struct Inputs {
  std::vector<std::vector<chem::Atom>> receptors;
  std::vector<std::vector<serve::PoseInput>> units;
};

Inputs make_inputs(uint64_t seed) {
  core::Rng rng(seed);
  Inputs in;
  for (int r = 0; r < kReceptors; ++r) in.receptors.push_back(make_receptor(kReceptorAtoms, rng));
  in.units.resize(kUnits);
  for (int u = 0; u < kUnits; ++u) {
    const std::vector<chem::Atom>* pocket = &in.receptors[static_cast<size_t>(u % kReceptors)];
    for (int l = 0; l < kUnitPoses / kPosesPerLigand; ++l) {
      const chem::Molecule lig = make_ligand(rng);
      for (int p = 0; p < kPosesPerLigand; ++p) {
        in.units[static_cast<size_t>(u)].push_back(
            serve::PoseInput{pose_of(lig, core::Vec3{}, rng), pocket, core::Vec3{}});
      }
    }
  }
  return in;
}

struct UnitRecord {
  int round = 0;
  size_t unit = 0;
  std::vector<float> scores;
  std::string file;
  double latency_ms = 0.0;  // submit -> shard closed
  double resolve_ms = 0.0;  // submit -> future resolved
  double lag_ms = 0.0;      // previous unit closed -> this submit (closed loop)
  Clock::time_point submitted, done;
  bool measured = false;    // submitted after the warm-up
  bool ok = false;
};

}  // namespace

RunResult run_screen(const RunArgs& args, Tracer& tracer) {
  const Inputs in = make_inputs(args.seed);
  RunDir dir("screen");
  const std::string artifact = dir.file("fusion.dfca");
  {
    std::vector<const serve::PoseInput*> warm;
    for (int i = 0; i < kPosesPerBatch; ++i) warm.push_back(&in.units[0][static_cast<size_t>(i)]);
    write_artifact(artifact, warm);
  }
  std::vector<const std::vector<serve::PoseInput>*> lists;
  for (const auto& unit : in.units) lists.push_back(&unit);
  const std::vector<std::vector<float>> ref = reference_scores(artifact, lists);

  // ---- rounds: each sets a fresh service up (artifact load → replicas
  // warmed on every worker), then runs the closed loop ----
  std::vector<UnitRecord> records;
  std::vector<double> setup_s, rss;
  serve::ServiceStats stats;
  serve::PocketCache::Stats cache;
  std::atomic<size_t> next_unit{0};
  const double round_s = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    reset_peak_rss();
    const auto t0 = Clock::now();
    const std::unique_ptr<serve::ScoringService> service = start_service(artifact, true, kReceptors);
    setup_s.push_back(seconds_between(t0, Clock::now()));

    std::mutex mu;
    const auto start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(round == 0 ? kWarmupS : 0.0));
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(round_s));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto prev_done = Clock::now();
        for (;;) {
          const auto t_sub = Clock::now();
          if (t_sub >= deadline) break;
          const size_t occ = next_unit.fetch_add(1);
          UnitRecord rec;
          rec.round = round;
          rec.unit = occ % in.units.size();
          rec.file = dir.file("unit" + std::to_string(occ));
          rec.lag_ms = seconds_between(prev_done, t_sub) * 1e3;
          rec.submitted = t_sub;
          rec.measured = t_sub >= start;
          ScopedSpan unit_span(tracer, "screen.unit", occ);
          serve::ScoreRequest req;
          req.scorer = kScorer;
          req.client = "rank" + std::to_string(c);
          req.poses = in.units[rec.unit];
          serve::ScoreResponse resp;
          {
            ScopedSpan span(tracer, "serve.service", occ, unit_span.id());
            resp = service->submit(std::move(req)).get();
          }
          rec.resolve_ms = seconds_between(t_sub, Clock::now()) * 1e3;
          rec.ok = resp.error == serve::ScoreError::kNone;
          if (rec.ok) {
            ScopedSpan span(tracer, "screen.writer", occ, unit_span.id());
            const size_t n = resp.scores.size();
            std::vector<int64_t> pose_ids(n), ligand_ids(n);
            for (size_t i = 0; i < n; ++i) {
              pose_ids[i] = static_cast<int64_t>(i);
              ligand_ids[i] = static_cast<int64_t>(rec.unit * kUnitPoses + i) / kPosesPerLigand;
            }
            screen::write_sharded_results(
                rec.file, 1, ligand_ids,
                std::vector<int64_t>(n, static_cast<int64_t>(rec.unit % kReceptors)), pose_ids,
                resp.scores);
            rec.file += ".rank0.h5lt";
          }
          prev_done = Clock::now();
          rec.done = prev_done;
          rec.latency_ms = seconds_between(t_sub, prev_done) * 1e3;
          rec.scores = std::move(resp.scores);
          std::lock_guard<std::mutex> lock(mu);
          records.push_back(std::move(rec));
        }
      });
    }
    for (auto& th : clients) th.join();
    add_service_stats(*service, &stats, &cache);
    rss.push_back(peak_rss_mb());
  }

  // ---- verification ----
  RunResult r;
  std::vector<std::string> files;
  std::vector<float> written;
  std::vector<double> latency, resolve, lag;
  double poses = 0.0, wall = 0.0;
  std::vector<double> round_pps(kRounds, 0.0);
  std::vector<std::vector<double>> round_latency(kRounds);
  std::vector<Clock::time_point> first(kRounds, Clock::time_point::max()),
      last(kRounds, Clock::time_point::min());
  for (const UnitRecord& rec : records) {
    ++r.outcome.attempted;
    const size_t bad = rec.ok ? count_mismatches(rec.scores, ref[rec.unit], 0.0f) : 1;
    if (bad != 0) {
      ++r.outcome.failed;
      r.outcome.correct = false;
      detail("unit %zu: %zu scores differ from the sequential reference", rec.unit, bad);
      continue;
    }
    files.push_back(rec.file);
    written.insert(written.end(), rec.scores.begin(), rec.scores.end());
    if (!rec.measured) continue;
    first[rec.round] = std::min(first[rec.round], rec.submitted);
    last[rec.round] = std::max(last[rec.round], rec.done);
    round_pps[rec.round] += static_cast<double>(rec.scores.size());
    round_latency[rec.round].push_back(rec.latency_ms);
    latency.push_back(rec.latency_ms);
    resolve.push_back(rec.resolve_ms);
    lag.push_back(rec.lag_ms);
    poses += static_cast<double>(rec.scores.size());
  }
  const screen::GatheredResults back = screen::read_sharded_results(files);
  if (!back.complete() || count_mismatches(back.predictions, written, 0.0f) != 0) {
    r.outcome.correct = false;
    r.outcome.failed += back.damage.size() + 1;
    detail("shards did not read back complete (%zu damaged)", back.damage.size());
  }
  std::vector<double> round_p50(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const double round_wall = seconds_between(first[i], last[i]);
    wall += round_wall;
    round_pps[i] /= round_wall;
    round_p50[i] = median(round_latency[i]);
    detail("round %d: %.1f poses/s, unit p50 %.3f ms, setup %.4f s, peak RSS %.1f MB", i,
           round_pps[i], round_p50[i], setup_s[i], rss[i]);
  }
  detail("screen: %zu units (%zu measured, %.0f poses in %.3f s), %zu shards re-read",
         records.size(), latency.size(), poses, wall, files.size());

  const double pps = median(round_pps);
  r.load_seconds = wall;
  r.workload_spans = tracer.size();
  if (!args.trace) {
    const Tail tail = report_latency("unit latency (submit -> shard closed)", latency);
    r.metrics["poses_per_s"] = pps;
    r.metrics["p50_ms"] = median(round_p50);
    r.metrics["tail_ms"] = tail.value;
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["peak_rss_mb"] = median(rss);
    detail("poses_per_s, p50_ms, setup_s, peak_rss_mb: medians over %d rounds; tail_ms pooled",
           kRounds);
    return r;
  }

  // ---- traced run: per-layer metrics ----
  Metrics& m = r.metrics;
  m["trace.poses_per_s"] = pps;
  service_layer_metrics(stats, cache, m);
  m["serve.service.resolve_ms_p50"] = median(resolve);
  m["serve.service.resolve_ms_tail"] = report_latency("unit resolve", resolve).value;
  m["serve.client.retries"] = 0;
  m["serve.client.transport_failures"] = 0;
  m["serve.server.protocol_errors"] = 0;
  m["loadgen.p50_ms_low"] = 0;
  m["loadgen.tail_ms_high"] = 0;
  m["loadgen.lag_ms_tail"] = tail_percentile(lag).value;
  m["loadgen.offered_rps"] = static_cast<double>(latency.size()) / wall;
  m["loadgen.backlog_end"] = 0;
  m["loadgen.max_rps"] = 0;
  m["screen.campaign.docking_share"] = 0;
  m["screen.campaign.mmgbsa_share"] = 0;
  m["screen.campaign.fusion_share"] = 0;

  LedgerInputs li;
  li.artifact = artifact;
  for (int u = 0; u < kReceptors; ++u) {
    for (int i = 0; i < 16; ++i) li.poses.push_back(&in.units[static_cast<size_t>(u)][static_cast<size_t>(i)]);
  }
  std::vector<serve::ScoreRequest> reqs(4);
  for (size_t u = 0; u < reqs.size(); ++u) {
    reqs[u].scorer = kScorer;
    reqs[u].poses = in.units[u];
    li.requests.push_back(&reqs[u]);
  }
  li.receptor = &in.receptors[0];
  std::vector<chem::Molecule> ligs = {in.units[0][0].ligand, in.units[1][0].ligand};
  for (const chem::Molecule& l : ligs) li.dock_ligands.push_back(&l);
  for (int i = 0; i < 2; ++i) li.dock_receptors.push_back(dock::ConveyorLC::prepare_receptor(in.receptors[static_cast<size_t>(i)]));
  li.pocket_cache_targets = kReceptors;
  li.checkpoint_units = kUnits;
  for (size_t u = 0; u < 2; ++u) {
    PathOp op;
    op.id = 1000000 + u;
    for (const serve::PoseInput& p : in.units[u]) op.poses.push_back(&p);
    op.write_shard = true;
    li.path.push_back(std::move(op));
  }
  measure_layers(li, tracer, m);
  return r;
}

}  // namespace perfbench
