// serve — online scoring over the wire for independent users. The server is
// its own process (this binary with --serve-child): a ScoreServer in front
// of a coalescing ScoringService (2 workers, batch 32, pocket cache of 8
// targets) restored from the compiled artifact. Each request carries 1-8
// poses of one ligand against one of 64 receptors, shipped in the frame.
//
// Untraced runs measure the closed loop over all 4 connections: each
// connection sends its next request when the previous one is answered.
// Traced runs add the open loop: seeded Poisson arrivals at rate `low`
// (~25% of capacity) and `high` (~50%), timed from each request's
// scheduled send time to its ScoreDone so a stall counts against every
// request it delays, and a rate ladder above `high` for the highest rate
// whose tail stays within 100 ms. On a shared 4-core host the open-loop
// latencies spread 20-30% between runs, too much to bound, so they are
// per-layer numbers. Checked: every score is within the batch-equivalence
// tolerance (1e-4) of an in-process reference.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "host.h"
#include "ledger.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

constexpr int kReceptors = 64;
constexpr int kRequests = 2048;       // distinct requests; the schedule cycles them
constexpr int kMaxPosesPerRequest = 8;
constexpr int kConnections = 4;       // = load-generator threads
constexpr size_t kPocketCache = 8;
constexpr double kRateLow = 70.0;     // requests/s, ~25% of capacity
constexpr double kRateHigh = 130.0;   // requests/s, ~50% of capacity
constexpr double kLadderStep = 1.15;  // rung-to-rung rate ratio before bisection
constexpr int kLadderRungs = 4;
constexpr int kBisections = 2;
constexpr double kLatencyLimitMs = 100.0;
constexpr float kTolerance = 1e-4f;   // batch-equivalence tolerance of the service tests
constexpr int kRounds = 5;            // fresh server per round; medians over rounds
constexpr double kWarmupS = 1.5;      // closed-loop load before the first phase
constexpr double kRungS = 1.0;        // ladder rung length (traced run only)
constexpr double kLowShare = 0.30;    // of a traced round; the rest after `high` is the closed loop
constexpr double kHighShare = 0.45;   // the largest share: its p99 needs the most samples

struct Inputs {
  std::vector<std::vector<chem::Atom>> receptors;
  std::vector<serve::ScoreRequest> requests;
};

Inputs make_inputs(uint64_t seed) {
  core::Rng rng(seed);
  Inputs in;
  for (int r = 0; r < kReceptors; ++r) in.receptors.push_back(make_receptor(kReceptorAtoms, rng));
  for (int q = 0; q < kRequests; ++q) {
    serve::ScoreRequest req;
    req.scorer = kScorer;
    req.client = "user" + std::to_string(q);
    const std::vector<chem::Atom>* pocket =
        &in.receptors[static_cast<size_t>(rng.randint(0, kReceptors - 1))];
    const chem::Molecule lig = make_ligand(rng);
    const int poses = static_cast<int>(rng.randint(1, kMaxPosesPerRequest));
    for (int p = 0; p < poses; ++p) {
      req.poses.push_back(serve::PoseInput{pose_of(lig, core::Vec3{}, rng), pocket, core::Vec3{}});
    }
    in.requests.push_back(std::move(req));
  }
  return in;
}

using StatsMap = std::map<std::string, double>;

/// The server process: spawned with fork + exec of this binary, killed with
/// the parent (PR_SET_PDEATHSIG), asked to exit over the wire.
class ServerProcess {
 public:
  ServerProcess(const std::string& artifact, const RunDir& dir, int index)
      : port_file_(dir.file("port" + std::to_string(index))),
        stats_file_(dir.file("stats" + std::to_string(index))) {
    const pid_t parent = ::getpid();
    std::vector<std::string> args = {"perfbench",  "--serve-child", "--artifact", artifact,
                                     "--port-file", port_file_,     "--stats-file", stats_file_};
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(127);
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }
  ~ServerProcess() { kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Wait for the port file; 0 if the child died or took too long.
  int wait_port(double timeout_s) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < deadline) {
      if (fs::exists(port_file_)) {
        std::ifstream in(port_file_);
        int port = 0;
        in >> port;
        if (port > 0) return port;
      }
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return 0;
  }

  /// Ask the server to exit and collect its stats; kills it on timeout.
  StatsMap shutdown(serve::ScoreClient& client, double timeout_s) {
    client.request_shutdown();
    const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
    while (pid_ > 0 && Clock::now() < deadline) {
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) pid_ = -1;
      else std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill();
    StatsMap stats;
    std::ifstream in(stats_file_);
    std::string key;
    double v = 0.0;
    while (in >> key >> v) stats[key] = v;
    return stats;
  }

  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int st = 0;
    ::waitpid(pid_, &st, 0);
    pid_ = -1;
  }

 private:
  std::string port_file_, stats_file_;
  pid_t pid_ = -1;
};

serve::ClientConfig client_config(int port, int connections) {
  serve::ClientConfig cc;
  cc.port = port;
  cc.connections = connections;
  cc.request_timeout_ms = 10000;
  return cc;
}

struct Phase {
  double rate = 0.0;
  std::vector<double> latency_ms;  // failed requests count as +inf
  std::vector<double> lag_ms;      // actual send - scheduled send, by request index
  uint64_t sent = 0, failed = 0, mismatched = 0;
  double poses = 0.0;
  double wall_s = 0.0;             // phase start -> last completion
  size_t backlog_end = 0;          // due within the phase, sent after it
  bool growing = false;            // generator fell behind by more than the limit
  Tail tail;

  bool passes() const { return failed == 0 && !growing && tail.value <= kLatencyLimitMs; }
};

Phase open_loop(serve::ScoreClient& client, const Inputs& in,
                const std::vector<std::vector<float>>& ref, double rate, double duration_s,
                uint64_t seed, Tracer& tracer, uint64_t trace_base) {
  Phase ph;
  ph.rate = rate;
  const std::vector<double> due = poisson_schedule(seed, rate, duration_s);
  const size_t offset = static_cast<size_t>(seed % kRequests);
  ph.latency_ms.assign(due.size(), 0.0);
  ph.lag_ms.assign(due.size(), 0.0);
  std::vector<double> sent_at(due.size(), 0.0);
  std::atomic<size_t> next{0};
  std::mutex mu;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point last_done = start;
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < due.size(); i = next.fetch_add(1)) {
        const auto due_at = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(due_at);
        const auto t_send = Clock::now();
        const size_t q = (offset + i) % in.requests.size();
        serve::ScoreResponse resp;
        {
          ScopedSpan s(tracer, "serve.client", trace_base + i);
          resp = client.score(in.requests[q]);
        }
        const auto t_done = Clock::now();
        const bool error = resp.error != serve::ScoreError::kNone;
        const bool mismatch = !error && count_mismatches(resp.scores, ref[q], kTolerance) != 0;
        std::lock_guard<std::mutex> lock(mu);
        ph.latency_ms[i] = error || mismatch ? std::numeric_limits<double>::infinity()
                                             : seconds_between(due_at, t_done) * 1e3;
        ph.lag_ms[i] = seconds_between(due_at, t_send) * 1e3;
        sent_at[i] = seconds_between(start, t_send);
        ++ph.sent;
        ph.failed += error || mismatch ? 1 : 0;
        ph.mismatched += mismatch ? 1 : 0;
        if (!error) ph.poses += static_cast<double>(resp.scores.size());
        if (t_done > last_done) last_done = t_done;
      }
    });
  }
  for (auto& th : threads) th.join();
  ph.wall_s = seconds_between(start, last_done);
  for (double s : sent_at) ph.backlog_end += s > duration_s ? 1 : 0;
  const size_t last_quarter = due.size() - due.size() / 4;
  ph.growing = tail_percentile(std::vector<double>(ph.lag_ms.begin() + static_cast<long>(last_quarter),
                                                   ph.lag_ms.end()))
                   .value > kLatencyLimitMs;
  ph.tail = tail_percentile(ph.latency_ms);
  return ph;
}

/// Closed loop over every connection: each sends its next request when the
/// previous one completes. Measures the server's capacity at the load
/// generator's concurrency.
Phase closed_loop(serve::ScoreClient& client, const Inputs& in,
                  const std::vector<std::vector<float>>& ref, double duration_s, uint64_t seed,
                  Tracer& tracer, uint64_t trace_base) {
  Phase ph;
  std::atomic<size_t> next{static_cast<size_t>(seed % kRequests)};
  std::mutex mu;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(duration_s);
  Clock::time_point last_done = start;
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      while (Clock::now() < deadline) {
        const size_t i = next.fetch_add(1);
        const size_t q = i % in.requests.size();
        const auto t0 = Clock::now();
        serve::ScoreResponse resp;
        {
          ScopedSpan s(tracer, "serve.client", trace_base + i);
          resp = client.score(in.requests[q]);
        }
        const auto t_done = Clock::now();
        const bool error = resp.error != serve::ScoreError::kNone;
        const bool mismatch = !error && count_mismatches(resp.scores, ref[q], kTolerance) != 0;
        std::lock_guard<std::mutex> lock(mu);
        ph.latency_ms.push_back(error || mismatch ? std::numeric_limits<double>::infinity()
                                                  : seconds_between(t0, t_done) * 1e3);
        ++ph.sent;
        ph.failed += error || mismatch ? 1 : 0;
        ph.mismatched += mismatch ? 1 : 0;
        if (!error) ph.poses += static_cast<double>(resp.scores.size());
        if (t_done > last_done) last_done = t_done;
      }
    });
  }
  for (auto& th : threads) th.join();
  ph.wall_s = seconds_between(start, last_done);
  ph.rate = static_cast<double>(ph.sent) / ph.wall_s;
  ph.tail = tail_percentile(ph.latency_ms);
  return ph;
}

void describe(const char* name, const Phase& ph) {
  const Tail lag = tail_percentile(ph.lag_ms);
  detail("%s %.1f req/s: n=%llu p50 %.3f ms p%d %.3f ms%s, lag p%d %.3f ms, backlog_end %zu%s, "
         "failed %llu",
         name, ph.rate, static_cast<unsigned long long>(ph.sent), median(ph.latency_ms),
         ph.tail.percent, ph.tail.value, ph.tail.resolved ? "" : " (unresolved tail)",
         lag.percent, lag.value, ph.backlog_end, ph.growing ? " (growing)" : "",
         static_cast<unsigned long long>(ph.failed));
}

/// The rate ladder: steps of kLadderStep up from `high` while rungs pass
/// (down while they fail), then bisection between the last passing and
/// the first failing rate. Returns every rung run.
std::vector<Phase> run_ladder(serve::ScoreClient& client, const Inputs& in,
                              const std::vector<std::vector<float>>& ref, uint64_t seed,
                              Tracer& tracer) {
  std::vector<Phase> rungs;
  double pass_rate = 0.0, fail_rate = 0.0;
  auto try_rate = [&](double rate) {
    rungs.push_back(open_loop(client, in, ref, rate, kRungS, seed * 7 + rungs.size(), tracer,
                              (64u + rungs.size()) << 24));
    describe("ladder", rungs.back());
    (rungs.back().passes() ? pass_rate : fail_rate) = rate;
  };
  try_rate(kRateHigh);
  for (int k = 1; k <= kLadderRungs && (pass_rate == 0.0 || fail_rate == 0.0); ++k) {
    try_rate(kRateHigh * std::pow(kLadderStep, pass_rate > 0.0 ? k : -k));
  }
  for (int b = 0; b < kBisections && fail_rate > 0.0 && pass_rate > 0.0; ++b) {
    try_rate(std::sqrt(pass_rate * fail_rate));
  }
  return rungs;
}

/// Highest passing ladder rate (requests/s); 0 when none passed.
double max_rps(const std::vector<Phase>& rungs) {
  double best = 0.0;
  for (const Phase& ph : rungs) {
    if (ph.passes()) best = std::max(best, ph.rate);
  }
  detail("max_rps %.1f req/s (highest ladder rate with tail <= %.0f ms, no failures and a "
         "generator that kept up)",
         best, kLatencyLimitMs);
  return best;
}

}  // namespace

int serve_child_main(int argc, char** argv) {
  std::string artifact, port_file, stats_file;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--artifact") artifact = argv[i + 1];
    if (key == "--port-file") port_file = argv[i + 1];
    if (key == "--stats-file") stats_file = argv[i + 1];
  }
  try {
    const std::unique_ptr<serve::ScoringService> service =
        start_service(artifact, false, kPocketCache);
    serve::ServerConfig sc;
    sc.node_id = "perfbench";
    serve::ScoreServer server(*service, sc);
    {
      std::ofstream out(port_file + ".tmp");
      out << server.port() << '\n';
    }
    fs::rename(port_file + ".tmp", port_file);
    server.wait_shutdown_requested();
    server.stop();
    service->drain();
    const serve::ServiceStats s = service->stats();
    const auto cache = service->pocket_cache()->stats();
    const serve::ServerStats ss = server.stats();
    std::ofstream out(stats_file + ".tmp");
    out << "requests " << s.requests << "\nposes " << s.poses << "\nbatches " << s.batches
        << "\nfull_batches " << s.full_batches << "\ncoalesced_batches " << s.coalesced_batches
        << "\npeak_queued_poses " << s.peak_queued_poses << "\ncache_hits " << cache.hits
        << "\ncache_misses " << cache.misses << "\nprotocol_errors " << ss.protocol_errors
        << "\npeak_rss_mb " << peak_rss_mb() << '\n';
    out.close();
    fs::rename(stats_file + ".tmp", stats_file);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench server: %s\n", e.what());
    return 1;
  }
}

RunResult run_serve(const RunArgs& args, Tracer& tracer) {
  const Inputs in = make_inputs(args.seed);
  RunDir dir("serve");
  const std::string artifact = dir.file("fusion.dfca");
  {
    std::vector<const serve::PoseInput*> warm;
    for (size_t q = 0; warm.size() < kPosesPerBatch; ++q) {
      for (const serve::PoseInput& p : in.requests[q].poses) warm.push_back(&p);
    }
    warm.resize(kPosesPerBatch);
    write_artifact(artifact, warm);
  }
  // Requests hold at most kMaxPosesPerRequest < kPosesPerBatch poses, so
  // each reference is one Scorer::score call on the request alone.
  std::vector<const std::vector<serve::PoseInput>*> lists;
  for (const serve::ScoreRequest& q : in.requests) lists.push_back(&q.poses);
  const std::vector<std::vector<float>> ref = reference_scores(artifact, lists);

  // ---- rounds: each starts a fresh server process (set-up = process start
  // → first Hello; artifact load and replica warm-up happen before the
  // server listens). Untraced rounds run the closed loop over every
  // connection. Traced rounds run the open loop at rates low and high,
  // then a shorter closed loop; the last one ends with the rate ladder. ----
  RunResult r;
  const double round_s = args.seconds / kRounds;
  std::vector<double> setup_s, rss, round_pps, round_p50, round_tail, low_p50, high_tail,
      high_lag;
  std::vector<Phase> ladder;
  StatsMap server_stats;
  serve::ClientStats client_stats;
  size_t high_backlog = 0, high_sent = 0;
  int tail_percent = 0;  // percentile the rule picked for the last round's tail
  double load_s = 0.0;
  auto account = [&r](const Phase& ph) {
    r.outcome.attempted += ph.sent;
    r.outcome.failed += ph.failed;
    if (ph.mismatched != 0) r.outcome.correct = false;
  };
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    ServerProcess server(artifact, dir, round);
    const int port = server.wait_port(60.0);
    if (port == 0) throw std::runtime_error("server process did not start");
    serve::ScoreClient client(client_config(port, kConnections));
    serve::wire::HelloPayload hello;
    std::string error;
    if (!client.hello(&hello, &error)) throw std::runtime_error("no Hello: " + error);
    setup_s.push_back(seconds_between(t0, Clock::now()));

    const uint64_t seed = args.seed * 16 + static_cast<uint64_t>(round) * 4;
    const uint64_t ids = static_cast<uint64_t>(round) << 24;
    if (round == 0) account(closed_loop(client, in, ref, kWarmupS, seed, tracer, ids));
    const auto t_load = Clock::now();
    double sat_s = round_s;
    if (args.trace) {
      const Phase low = open_loop(client, in, ref, kRateLow, kLowShare * round_s, seed + 1,
                                  tracer, ids + (1u << 20));
      const Phase high = open_loop(client, in, ref, kRateHigh, kHighShare * round_s, seed + 2,
                                   tracer, ids + (2u << 20));
      account(low);
      account(high);
      describe("low", low);
      describe("high", high);
      low_p50.push_back(median(low.latency_ms));
      high_tail.push_back(high.tail.value);
      high_lag.insert(high_lag.end(), high.lag_ms.begin(), high.lag_ms.end());
      high_backlog += high.backlog_end;
      high_sent += high.sent;
      sat_s = (1.0 - kLowShare - kHighShare) * round_s;
    }
    const Phase sat = closed_loop(client, in, ref, sat_s, seed + 3, tracer, ids + (3u << 20));
    load_s += seconds_between(t_load, Clock::now());
    account(sat);
    describe("saturation", sat);
    if (args.trace && round + 1 == kRounds) ladder = run_ladder(client, in, ref, args.seed, tracer);
    for (const Phase& ph : ladder) account(ph);
    const StatsMap st = server.shutdown(client, 30.0);
    if (st.empty()) throw std::runtime_error("server process wrote no stats");
    for (const auto& [key, v] : st) {
      server_stats[key] = key == "peak_queued_poses" ? std::max(server_stats[key], v)
                                                     : server_stats[key] + v;
    }
    const serve::ClientStats cs = client.stats();
    client_stats.retries += cs.retries;
    client_stats.transport_failures += cs.transport_failures;

    rss.push_back(st.at("peak_rss_mb"));
    round_pps.push_back(sat.poses / sat.wall_s);
    round_p50.push_back(median(sat.latency_ms));
    round_tail.push_back(sat.tail.value);
    tail_percent = sat.tail.percent;
    detail("round %d: %.1f poses/s, p50 %.3f ms, p%d %.3f ms, setup %.4f s, server peak RSS "
           "%.1f MB",
           round, round_pps.back(), round_p50.back(), tail_percent, round_tail.back(),
           setup_s.back(), rss.back());
  }
  r.load_seconds = load_s;
  r.workload_spans = tracer.size();

  if (!args.trace) {
    r.metrics["poses_per_s"] = median(round_pps);
    r.metrics["p50_ms"] = median(round_p50);
    r.metrics["tail_ms"] = median(round_tail);
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["peak_rss_mb"] = median(rss);
    detail("closed loop over %d connections; poses_per_s, p50_ms, tail_ms (p%d), setup_s and "
           "peak_rss_mb are medians over %d rounds",
           kConnections, tail_percent, kRounds);
    return r;
  }

  Metrics& m = r.metrics;
  m["trace.poses_per_s"] = median(round_pps);
  serve::ServiceStats ss;
  ss.poses = static_cast<uint64_t>(server_stats.at("poses"));
  ss.batches = static_cast<uint64_t>(server_stats.at("batches"));
  ss.full_batches = static_cast<uint64_t>(server_stats.at("full_batches"));
  ss.coalesced_batches = static_cast<uint64_t>(server_stats.at("coalesced_batches"));
  ss.peak_queued_poses = static_cast<size_t>(server_stats.at("peak_queued_poses"));
  serve::PocketCache::Stats cache;
  cache.hits = static_cast<uint64_t>(server_stats.at("cache_hits"));
  cache.misses = static_cast<uint64_t>(server_stats.at("cache_misses"));
  service_layer_metrics(ss, cache, m);
  m["serve.client.retries"] = static_cast<double>(client_stats.retries);
  m["serve.client.transport_failures"] = static_cast<double>(client_stats.transport_failures);
  m["serve.server.protocol_errors"] = server_stats.at("protocol_errors");
  m["loadgen.p50_ms_low"] = median(low_p50);
  m["loadgen.tail_ms_high"] = median(high_tail);
  detail("open loop: p50 %.3f ms at rate low, tail %.3f ms at rate high (medians of %d rounds)",
         median(low_p50), median(high_tail), kRounds);
  m["loadgen.lag_ms_tail"] = tail_percentile(high_lag).value;
  m["loadgen.offered_rps"] = static_cast<double>(high_sent) / (kHighShare * round_s * kRounds);
  m["loadgen.backlog_end"] = static_cast<double>(high_backlog);
  m["loadgen.max_rps"] = max_rps(ladder);
  m["screen.campaign.docking_share"] = 0;
  m["screen.campaign.mmgbsa_share"] = 0;
  m["screen.campaign.fusion_share"] = 0;

  // In-process submit→future on a service shaped like the server's.
  {
    const std::unique_ptr<serve::ScoringService> service =
        start_service(artifact, false, kPocketCache);
    uint64_t failed = 0;
    const std::vector<double> resolve = service_resolve_ms(*service, in.requests, 2, 1.0, &failed);
    r.outcome.failed += failed;
    m["serve.service.resolve_ms_p50"] = median(resolve);
    m["serve.service.resolve_ms_tail"] = report_latency("in-process resolve", resolve).value;
  }

  LedgerInputs li;
  li.artifact = artifact;
  for (size_t q = 0; li.poses.size() < 64; ++q) {
    for (const serve::PoseInput& p : in.requests[q].poses) li.poses.push_back(&p);
  }
  for (size_t q = 0; q < 64; ++q) li.requests.push_back(&in.requests[q]);
  li.receptor = &in.receptors[0];
  std::vector<chem::Molecule> ligs = {in.requests[0].poses[0].ligand,
                                      in.requests[1].poses[0].ligand};
  for (const chem::Molecule& l : ligs) li.dock_ligands.push_back(&l);
  for (size_t i = 0; i < 2; ++i) {
    li.dock_receptors.push_back(dock::ConveyorLC::prepare_receptor(in.receptors[i]));
  }
  li.pocket_cache_targets = kPocketCache;
  li.checkpoint_units = kRequests / 8;
  for (size_t q = 0; q < 48; ++q) {
    PathOp op;
    op.id = (1u << 30) + q;
    op.wire = &in.requests[q];
    for (const serve::PoseInput& p : in.requests[q].poses) op.poses.push_back(&p);
    op.forward_batch = static_cast<int>(op.poses.size());
    li.path.push_back(std::move(op));
  }
  measure_layers(li, tracer, m);
  return r;
}

}  // namespace perfbench
