// perfbench — one command for every workload of the scoring system.
//
//   perfbench --workload screen|serve|campaign --seed N --seconds S --trace 0|1
//
// Prints detail lines ("# ..."), the host record, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (report.cpp lists both). Exits non-zero when any output fails
// verification or any operation fails.
#include <malloc.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fixture.h"
#include "host.h"
#include "workloads.h"

namespace perfbench {

void detail(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
  std::fflush(stdout);
}

Tail report_latency(const char* what, const std::vector<double>& ms) {
  const Tail t = tail_percentile(ms);
  detail("%s: p50 %.3f ms, p%d %.3f ms (n=%zu%s)", what, median(ms), t.percent, t.value, t.n,
         t.resolved ? "" : ", too few samples for a tail beyond p50");
  return t;
}

void add_service_stats(serve::ScoringService& service, serve::ServiceStats* stats,
                       serve::PocketCache::Stats* cache) {
  const serve::ServiceStats s = service.stats();
  stats->poses += s.poses;
  stats->batches += s.batches;
  stats->full_batches += s.full_batches;
  stats->coalesced_batches += s.coalesced_batches;
  stats->peak_queued_poses = std::max(stats->peak_queued_poses, s.peak_queued_poses);
  const serve::PocketCache::Stats c = service.pocket_cache()->stats();
  cache->hits += c.hits;
  cache->misses += c.misses;
}

void service_layer_metrics(const serve::ServiceStats& s, const serve::PocketCache::Stats& cache,
                           Metrics& out) {
  const double hits = static_cast<double>(cache.hits), misses = static_cast<double>(cache.misses);
  const double batches = static_cast<double>(std::max<uint64_t>(s.batches, 1));
  out["serve.service.mean_batch_poses"] = static_cast<double>(s.poses) / batches;
  out["serve.service.coalesced_batch_ratio"] = static_cast<double>(s.coalesced_batches) / batches;
  out["serve.service.full_batch_ratio"] = static_cast<double>(s.full_batches) / batches;
  out["serve.service.peak_queued_poses"] = static_cast<double>(s.peak_queued_poses);
  out["serve.pocket_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

namespace {

bool parse_args(int argc, char** argv, RunArgs* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return have_workload && a->seconds > 0.0 && (argc % 2) == 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "--serve-child") == 0) return serve_child_main(argc, argv);
  // screen and campaign run all rounds in this process. Pin glibc's mmap
  // threshold (its default start value) so it no longer rises after large
  // frees: with the dynamic threshold, batch-sized tensors landed in an
  // arena or in mmap depending on what an earlier round freed, and peak RSS
  // sat on two levels ~20 MB apart. The serve workload starts a fresh server
  // process per round, which keeps glibc's defaults.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  RunArgs args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload screen|serve|campaign --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  RunResult (*run)(const RunArgs&, Tracer&) = nullptr;
  if (args.workload == "screen") run = run_screen;
  if (args.workload == "serve") run = run_serve;
  if (args.workload == "campaign") run = run_campaign;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const std::string host = host_json(host_info(), args.workload, args.seed);
  std::printf("# %s\n", host.c_str());
  std::fflush(stdout);
  Tracer tracer(args.trace);
  try {
    RunResult r = run(args, tracer);
    if (args.trace) {
      r.metrics["trace.spans"] = static_cast<double>(tracer.size());
      r.metrics["trace.overhead_frac"] =
          Tracer::record_cost_seconds() * static_cast<double>(r.workload_spans) /
          std::max(r.load_seconds, 1e-9);
      const std::string path =
          trace_dir() + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
      tracer.write_jsonl(path, host);
      detail("spans written to %s", path.c_str());
    }
    const std::string line =
        result_line(r.outcome, r.metrics, args.trace ? per_layer_metrics() : end_to_end_metrics());
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return r.outcome.correct && r.outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
