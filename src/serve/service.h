// ScoringService — the asynchronous, batched, multi-model scoring API the
// paper's production pipeline implies (Fig. 3): many concurrent producers
// (campaign ranks, rescoring passes, ad-hoc clients) feed pose batches to a
// shared pool of model replicas and get futures back.
//
// Request path:
//   submit(ScoreRequest) -> std::future<ScoreResponse>
//
//   * Bounded queue. `queue_capacity` bounds queued (not yet dispatched)
//     poses. When full, submit() blocks — backpressure — or, with
//     block_when_full=false, fails fast with a typed kQueueFull response. A
//     request larger than the whole capacity is admitted once the queue is
//     empty, so oversized requests cannot wedge. A request-level
//     `deadline_ms` bounds both the backpressure block and the queue wait:
//     past it the request resolves kTimeout instead of waiting forever —
//     the bound the network client leans on.
//   * Dynamic micro-batcher. Workers coalesce poses for the same scorer
//     across requests (and so across clients) up to `poses_per_batch`; a
//     partial batch waits at most `flush_deadline_ms` for company before it
//     dispatches. Each worker scores on its private model replica (built
//     lazily from the registry), with up to `pipeline_depth` (at least one)
//     micro-batches in flight.
//   * Typed errors. Unknown scorer, full queue, shutdown and scorer
//     exceptions come back as ScoreError values on the response, never as
//     exceptions out of submit().
//
// Ordered-stream mode (`ordered_stream = true`): micro-batch boundaries
// derive from each request alone — every request is pre-split into fixed
// `poses_per_batch` chunks and chunks are never merged across requests.
// Scores then depend only on (replica weights, request content), so any
// worker count, client interleaving or arrival order produces bit-identical
// results. This is the mode the screening campaign runs in; it trades
// cross-client coalescing for the PR-2 determinism/resume guarantees.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/latency.h"
#include "serve/registry.h"

namespace df::serve {

enum class ScoreError {
  kNone = 0,
  kUnknownScorer,   // name not in the service's registry snapshot
  kQueueFull,       // bounded queue full and block_when_full == false
  kShutdown,        // service stopped before the request was accepted
  kScorerFailure,   // the backend threw while scoring; message has details
  kTimeout,         // deadline_ms expired before the request was scored
  kTransport,       // network path failed (ScoreClient-side mapping; the
                    // in-process service never produces this)
};

const char* score_error_name(ScoreError e);

struct ScoreRequest {
  std::string scorer;            // registry name
  std::vector<PoseInput> poses;  // pocket pointers must outlive the future
  std::string client;            // optional tag, echoed into stats/logs
  double deadline_ms = 0;        // > 0 bounds backpressure blocking AND queue
                                 // wait: past the deadline the future resolves
                                 // kTimeout instead of waiting for a worker
};

struct ScoreResponse {
  std::vector<float> scores;  // one per pose, request order; empty on error
  ScoreError error = ScoreError::kNone;
  std::string message;        // failure details when error != kNone
  int micro_batches = 0;      // batches that carried this request's poses
  bool coalesced = false;     // any of those batches mixed in other requests
};

struct ServiceConfig {
  int workers = 0;                // worker threads; 0 = hardware concurrency
  int poses_per_batch = 32;       // micro-batch target (and ordered chunk size)
  size_t queue_capacity = 8192;   // max queued poses before backpressure
  bool block_when_full = true;    // false: fail fast with kQueueFull
  double flush_deadline_ms = 0.2; // max wait to fill a partial batch
  bool ordered_stream = false;    // deterministic batching (see header)
  // Stage pipelining: > 0 calls set_pipeline_depth(pipeline_depth) on every
  // replica this service builds, so up to `pipeline_depth` micro-batches
  // are in flight per worker, featurize overlapping the previous batch's
  // forward. Batch composition and per-batch compute are unchanged — only
  // overlap timing moves — so ordered_stream keeps its determinism
  // guarantee. 0, and backends without a pipelined path, run one batch at
  // a time.
  int pipeline_depth = 0;
  // Cross-request pocket cache: > 0 creates one serve::PocketCache of this
  // capacity (distinct receptor targets, LRU) shared by every replica of
  // the service, so pocket voxel grids and graph-crop cell lists are
  // computed once per target across workers. Hits are verified by exact
  // pocket content. 0 leaves each replica its private single-target cache.
  size_t pocket_cache_targets = 0;
};

struct ServiceStats {
  uint64_t requests = 0;          // accepted requests
  uint64_t rejected = 0;          // typed-error submits (unknown/full/shutdown)
  uint64_t poses = 0;             // poses accepted
  uint64_t batches = 0;           // micro-batches dispatched
  uint64_t full_batches = 0;      // batches that hit poses_per_batch
  uint64_t coalesced_batches = 0; // batches mixing >1 request
  uint64_t replicas_built = 0;    // model replicas constructed across workers
  uint64_t timeouts = 0;          // requests that resolved kTimeout
  size_t peak_queued_poses = 0;
  // Accept-to-fulfillment latency of every resolved request (errors
  // included); p50/p99 via latency.p50_ms()/p99_ms().
  LatencyHistogram latency;
};

class ScoringService {
 public:
  /// Snapshots `registry` (later registrations do not affect this service)
  /// and starts the worker threads.
  explicit ScoringService(const ModelRegistry& registry, ServiceConfig cfg = {});
  ~ScoringService();  // shutdown(): drains accepted work, joins workers

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Asynchronous scoring. Never throws for request-shaped problems — the
  /// future resolves with a typed ScoreError instead. May block for
  /// backpressure (see ServiceConfig::block_when_full).
  std::future<ScoreResponse> submit(ScoreRequest req);

  /// Synchronous convenience: submit + get.
  ScoreResponse score(ScoreRequest req);

  /// Build `scorer`'s replica on every worker and return when all exist —
  /// the "startup phase" of a scoring job, paid once per service instead of
  /// once per job. Throws std::out_of_range for unknown names.
  void warmup(const std::string& scorer);

  /// Block until every accepted request has resolved.
  void drain();

  /// Stop accepting work, finish everything already accepted, join workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  int workers() const { return static_cast<int>(threads_.size()); }
  const ServiceConfig& config() const { return cfg_; }
  /// Names in this service's registry snapshot, sorted — what a score
  /// server advertises in its Hello frame.
  std::vector<std::string> scorer_names() const;
  ServiceStats stats() const;
  /// The shared cross-request pocket cache, or nullptr when
  /// pocket_cache_targets == 0 (for hit-rate stats in benches/tests).
  std::shared_ptr<PocketCache> pocket_cache() const { return pocket_cache_; }

 private:
  struct Pending;
  struct Slice;
  struct InFlight;

  void worker_loop();
  static void fulfill(const std::shared_ptr<Pending>& owner);
  Scorer& replica_for(std::map<std::string, std::unique_ptr<Scorer>>& replicas,
                      const std::string& name);

  ServiceConfig cfg_;
  std::map<std::string, ScorerFactory> factories_;  // registry snapshot
  std::shared_ptr<PocketCache> pocket_cache_;       // null when disabled

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes workers (work / warmup / stop)
  std::condition_variable space_cv_;  // wakes blocked submitters
  std::condition_variable drain_cv_;  // wakes drain()
  std::condition_variable warmup_cv_; // wakes warmup()
  std::deque<Slice> queue_;
  size_t queued_poses_ = 0;
  size_t inflight_poses_ = 0;
  size_t deadlined_queued_ = 0;  // queued requests carrying a deadline; the
                                 // expiry sweep is skipped while this is 0
  bool stop_ = false;
  uint64_t warmup_gen_ = 0;
  std::string warmup_name_;
  std::string warmup_error_;  // first factory failure of the current warmup
  int warmup_remaining_ = 0;
  ServiceStats stats_;

  std::mutex warmup_call_mu_;  // serializes warmup() callers
  std::mutex build_mu_;        // serializes factory invocations
  std::vector<std::thread> threads_;
};

}  // namespace df::serve
