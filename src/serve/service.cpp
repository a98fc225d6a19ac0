#include "serve/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"

namespace df::serve {

const char* score_error_name(ScoreError e) {
  switch (e) {
    case ScoreError::kNone: return "none";
    case ScoreError::kUnknownScorer: return "unknown_scorer";
    case ScoreError::kQueueFull: return "queue_full";
    case ScoreError::kShutdown: return "shutdown";
    case ScoreError::kScorerFailure: return "scorer_failure";
    case ScoreError::kTimeout: return "timeout";
    case ScoreError::kTransport: return "transport";
  }
  return "invalid";
}

/// One accepted request: the response buffer fills in from possibly many
/// micro-batches on different workers; `remaining` (guarded by the service
/// mutex) counts down to fulfillment.
struct ScoringService::Pending {
  std::vector<PoseInput> poses;
  std::string scorer;
  std::string client;
  std::promise<ScoreResponse> promise;
  std::vector<float> scores;
  size_t remaining = 0;
  bool failed = false;
  ScoreError error = ScoreError::kScorerFailure;  // meaningful when failed
  std::string fail_msg;
  int micro_batches = 0;
  bool coalesced = false;
  std::chrono::steady_clock::time_point accepted;  // for the latency histogram
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;  // valid when has_deadline
};

/// A contiguous span of one request's poses waiting in the queue. In
/// ordered-stream mode requests are pre-split into fixed poses_per_batch
/// slices and a micro-batch is exactly one slice; in throughput mode a
/// request is one slice that workers carve and coalesce freely.
struct ScoringService::Slice {
  std::shared_ptr<Pending> owner;
  size_t begin = 0;
  size_t end = 0;
  std::chrono::steady_clock::time_point enqueued;
};

/// A micro-batch a worker has dispatched and not yet resolved. A replica
/// with a stage pipeline was handed the poses at dispatch; one without
/// scores them at collect time. The parts pin their Pending owners (and
/// thus the pose storage the replica reads) until copy-back.
struct ScoringService::InFlight {
  std::vector<Slice> parts;
  size_t total = 0;
  std::string scorer;
  Scorer* replica = nullptr;            // null when building it failed
  std::string error;                    // why building it failed; never empty then
  std::vector<const PoseInput*> poses;  // score() input when there is no pipeline
};

namespace {

// The service keys failure on a non-empty message, so an exception whose
// what() is empty still needs one.
std::string failure_message(const std::exception& e, const std::string& scorer) {
  const char* what = e.what();
  return what != nullptr && *what != '\0'
             ? std::string(what)
             : "exception with an empty message from scorer '" + scorer + "'";
}

std::future<ScoreResponse> ready_response(ScoreResponse r) {
  std::promise<ScoreResponse> p;
  p.set_value(std::move(r));
  return p.get_future();
}

std::future<ScoreResponse> ready_error(ScoreError e, std::string message) {
  ScoreResponse r;
  r.error = e;
  r.message = std::move(message);
  return ready_response(std::move(r));
}

}  // namespace

ScoringService::ScoringService(const ModelRegistry& registry, ServiceConfig cfg)
    : cfg_(cfg), factories_(registry.snapshot()) {
  if (cfg_.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.workers = hw != 0 ? static_cast<int>(hw) : 1;
  }
  cfg_.poses_per_batch = std::max(1, cfg_.poses_per_batch);
  cfg_.queue_capacity = std::max<size_t>(1, cfg_.queue_capacity);
  cfg_.pipeline_depth = std::max(0, cfg_.pipeline_depth);
  if (cfg_.pocket_cache_targets > 0) {
    pocket_cache_ = std::make_shared<PocketCache>(cfg_.pocket_cache_targets);
  }
  threads_.reserve(static_cast<size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ScoringService::~ScoringService() { shutdown(); }

std::future<ScoreResponse> ScoringService::submit(ScoreRequest req) {
  if (factories_.find(req.scorer) == factories_.end()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return ready_error(ScoreError::kUnknownScorer,
                       "no scorer named '" + req.scorer + "' in this service");
  }
  if (req.poses.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    return ready_response(ScoreResponse{});
  }

  auto pending = std::make_shared<Pending>();
  pending->scorer = std::move(req.scorer);
  pending->client = std::move(req.client);
  pending->poses = std::move(req.poses);
  const size_t n = pending->poses.size();
  pending->scores.resize(n, 0.0f);
  pending->remaining = n;
  pending->accepted = std::chrono::steady_clock::now();
  if (req.deadline_ms > 0) {
    pending->has_deadline = true;
    pending->deadline = pending->accepted + std::chrono::microseconds(static_cast<int64_t>(
                                                req.deadline_ms * 1000.0));
  }
  std::future<ScoreResponse> future = pending->promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure on the bounded queue. An oversized request (n > capacity)
  // is admitted alone once the queue is empty, so it cannot wedge. A
  // deadline bounds the block: past it the caller gets kTimeout instead of
  // waiting for space forever.
  const auto fits = [&] { return queued_poses_ == 0 || queued_poses_ + n <= cfg_.queue_capacity; };
  if (!fits()) {
    if (!cfg_.block_when_full) {
      ++stats_.rejected;
      return ready_error(ScoreError::kQueueFull,
                         "queue holds " + std::to_string(queued_poses_) + " poses; capacity " +
                             std::to_string(cfg_.queue_capacity));
    }
    if (pending->has_deadline) {
      if (!space_cv_.wait_until(lock, pending->deadline, [&] { return stop_ || fits(); })) {
        ++stats_.rejected;
        ++stats_.timeouts;
        return ready_error(ScoreError::kTimeout,
                           "backpressure wait exceeded the request deadline (" +
                               std::to_string(req.deadline_ms) + " ms)");
      }
    } else {
      space_cv_.wait(lock, [&] { return stop_ || fits(); });
    }
  }
  if (stop_) {
    ++stats_.rejected;
    return ready_error(ScoreError::kShutdown, "service is shut down");
  }

  const auto now = std::chrono::steady_clock::now();
  const size_t chunk = cfg_.ordered_stream ? static_cast<size_t>(cfg_.poses_per_batch) : n;
  for (size_t b = 0; b < n; b += chunk) {
    queue_.push_back(Slice{pending, b, std::min(b + chunk, n), now});
  }
  queued_poses_ += n;
  if (pending->has_deadline) deadlined_queued_ += n;
  ++stats_.requests;
  stats_.poses += n;
  stats_.peak_queued_poses = std::max(stats_.peak_queued_poses, queued_poses_);
  work_cv_.notify_all();
  return future;
}

ScoreResponse ScoringService::score(ScoreRequest req) { return submit(std::move(req)).get(); }

void ScoringService::warmup(const std::string& scorer) {
  if (factories_.find(scorer) == factories_.end()) {
    throw std::out_of_range("service: no scorer named '" + scorer + "'");
  }
  std::lock_guard<std::mutex> call(warmup_call_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) throw std::runtime_error("service: warmup after shutdown");
  warmup_name_ = scorer;
  warmup_error_.clear();
  warmup_remaining_ = static_cast<int>(threads_.size());
  ++warmup_gen_;
  work_cv_.notify_all();
  warmup_cv_.wait(lock, [&] { return warmup_remaining_ == 0 || stop_; });
  if (warmup_remaining_ != 0) throw std::runtime_error("service: shut down during warmup");
  if (!warmup_error_.empty()) {
    throw std::runtime_error("service: warmup of '" + scorer + "' failed: " + warmup_error_);
  }
}

void ScoringService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queued_poses_ == 0 && inflight_poses_ == 0; });
}

void ScoringService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  warmup_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

ServiceStats ScoringService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::string> ScoringService::scorer_names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

void ScoringService::fulfill(const std::shared_ptr<Pending>& owner) {
  ScoreResponse r;
  r.micro_batches = owner->micro_batches;
  r.coalesced = owner->coalesced;
  if (owner->failed) {
    r.error = owner->error;
    r.message = owner->fail_msg;
  } else {
    r.scores = std::move(owner->scores);
  }
  owner->promise.set_value(std::move(r));
}

Scorer& ScoringService::replica_for(std::map<std::string, std::unique_ptr<Scorer>>& replicas,
                                    const std::string& name) {
  auto it = replicas.find(name);
  if (it != replicas.end()) return *it->second;
  std::unique_ptr<Scorer> replica;
  {
    // One factory call at a time across workers: factories may read a shared
    // master model (weight copies) and are not required to be re-entrant.
    std::lock_guard<std::mutex> build(build_mu_);
    replica = factories_.at(name)();
  }
  // Service-level settings apply to every replica that can use them
  // (no-op virtuals otherwise).
  if (cfg_.pipeline_depth > 0) replica->set_pipeline_depth(cfg_.pipeline_depth);
  if (pocket_cache_ != nullptr) replica->set_pocket_cache(pocket_cache_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.replicas_built;
  }
  return *replicas.emplace(name, std::move(replica)).first->second;
}

void ScoringService::worker_loop() {
  // Service workers are peers of any client-installed compute pool, not
  // owners: keep every kernel they run serial so they can never contend for
  // the pool's single-joiner wait_idle() or deadlock against pool workers
  // that are blocked on our futures.
  core::SerialComputeScope serial;
  std::map<std::string, std::unique_ptr<Scorer>> replicas;
  uint64_t seen_warmup = 0;

  // Micro-batches this worker has dispatched and not yet resolved. All
  // entries belong to one scorer's replica and come back strictly FIFO, so
  // copy-back content does not depend on the depth — only its timing does.
  std::deque<InFlight> inflight;

  std::unique_lock<std::mutex> lock(mu_);

  // Resolve the oldest in-flight micro-batch: run its forward (or, with no
  // pipeline, the whole score()) on the replica, copy scores back, resolve
  // finished requests. Called with the lock held; cycles it around the
  // compute.
  const auto collect_one = [&] {
    InFlight fl = std::move(inflight.front());
    inflight.pop_front();
    lock.unlock();
    std::vector<float> out;
    std::string err = std::move(fl.error);
    if (fl.replica != nullptr) {
      try {
        ScorerPipeline* pipe = fl.replica->pipeline();
        out = pipe != nullptr ? pipe->collect() : fl.replica->score(fl.poses);
        if (out.size() != fl.total) {
          err = "scorer '" + fl.scorer + "' returned " + std::to_string(out.size()) +
                " scores for " + std::to_string(fl.total) + " poses";
        }
      } catch (const std::exception& e) {
        err = failure_message(e, fl.scorer);
      } catch (...) {
        err = "unknown exception from scorer '" + fl.scorer + "'";
      }
    }
    std::vector<std::shared_ptr<Pending>> done;
    lock.lock();
    const auto finished = std::chrono::steady_clock::now();
    size_t off = 0;
    for (const Slice& p : fl.parts) {
      const size_t len = p.end - p.begin;
      if (err.empty()) {
        std::copy(out.begin() + static_cast<long>(off), out.begin() + static_cast<long>(off + len),
                  p.owner->scores.begin() + static_cast<long>(p.begin));
      } else if (!p.owner->failed) {
        p.owner->failed = true;
        p.owner->error = ScoreError::kScorerFailure;
        p.owner->fail_msg = err;
      }
      off += len;
      p.owner->remaining -= len;
      if (p.owner->remaining == 0) {
        stats_.latency.record_seconds(
            std::chrono::duration<double>(finished - p.owner->accepted).count());
        done.push_back(p.owner);
      }
    }
    inflight_poses_ -= fl.total;
    if (queued_poses_ == 0 && inflight_poses_ == 0) drain_cv_.notify_all();
    lock.unlock();
    for (const auto& owner : done) fulfill(owner);
    lock.lock();
  };

  for (;;) {
    // Never sleep with batches in flight — their forwards are this
    // worker's responsibility.
    work_cv_.wait(lock, [&] {
      return stop_ || !queue_.empty() || seen_warmup != warmup_gen_ || !inflight.empty();
    });

    if (seen_warmup != warmup_gen_) {
      seen_warmup = warmup_gen_;
      const std::string name = warmup_name_;
      lock.unlock();
      // A throwing factory must fail warmup(), not terminate this thread.
      std::string err;
      try {
        replica_for(replicas, name);
      } catch (const std::exception& e) {
        err = failure_message(e, name);
      } catch (...) {
        err = "unknown exception from factory for scorer '" + name + "'";
      }
      lock.lock();
      if (!err.empty() && warmup_error_.empty()) warmup_error_ = err;
      if (--warmup_remaining_ == 0) warmup_cv_.notify_all();
      continue;
    }
    // Deadline sweep: requests whose deadline passed while queued resolve
    // kTimeout now instead of occupying a worker. Skipped entirely while no
    // queued request carries a deadline (the campaign's ordered path).
    if (deadlined_queued_ > 0 && !queue_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<std::shared_ptr<Pending>> expired;
      for (auto it = queue_.begin(); it != queue_.end();) {
        Pending& p = *it->owner;
        if (!p.has_deadline || now < p.deadline) {
          ++it;
          continue;
        }
        const size_t len = it->end - it->begin;
        queued_poses_ -= len;
        deadlined_queued_ -= len;
        if (!p.failed) {
          p.failed = true;
          p.error = ScoreError::kTimeout;
          p.fail_msg = "request deadline expired before scoring started";
          ++stats_.timeouts;
        }
        p.remaining -= len;
        if (p.remaining == 0) {
          stats_.latency.record_seconds(std::chrono::duration<double>(now - p.accepted).count());
          expired.push_back(it->owner);
        }
        it = queue_.erase(it);
      }
      if (!expired.empty()) {
        space_cv_.notify_all();
        if (queued_poses_ == 0 && inflight_poses_ == 0) drain_cv_.notify_all();
        lock.unlock();
        for (const auto& owner : expired) fulfill(owner);
        lock.lock();
        continue;  // the queue changed shape; re-evaluate from the top
      }
    }

    if (queue_.empty()) {
      if (!inflight.empty()) {
        collect_one();
        continue;
      }
      if (stop_) return;
      continue;
    }

    const size_t cap = static_cast<size_t>(cfg_.poses_per_batch);

    // Dynamic micro-batcher: pick the first scorer (in FIFO head order)
    // with a dispatchable batch — full, or whose oldest slice has waited
    // out flush_deadline_ms. A partial batch holds the door open for up to
    // the deadline so concurrent clients can fill it, but never blocks a
    // ready batch of a different scorer queued behind it. Ordered-stream
    // mode skips all of this — batches are the pre-cut request slices in
    // strict FIFO order.
    std::string name;
    if (cfg_.ordered_stream || cfg_.flush_deadline_ms <= 0 || stop_) {
      name = queue_.front().owner->scorer;
    } else {
      const auto now = std::chrono::steady_clock::now();
      const auto window =
          std::chrono::microseconds(static_cast<int64_t>(cfg_.flush_deadline_ms * 1000.0));
      std::vector<std::pair<std::string, size_t>> groups;  // FIFO-first-seen -> avail
      std::vector<std::chrono::steady_clock::time_point> heads;
      for (const Slice& s : queue_) {
        size_t g = 0;
        while (g < groups.size() && groups[g].first != s.owner->scorer) ++g;
        if (g == groups.size()) {
          groups.emplace_back(s.owner->scorer, 0);
          heads.push_back(s.enqueued);
        }
        groups[g].second += s.end - s.begin;
      }
      auto earliest = std::chrono::steady_clock::time_point::max();
      for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].second >= cap || now >= heads[g] + window) {
          name = groups[g].first;
          break;
        }
        earliest = std::min(earliest, heads[g] + window);
      }
      if (name.empty()) {
        if (!inflight.empty()) {
          collect_one();  // useful work beats idling out the flush window
        } else {
          work_cv_.wait_until(lock, earliest);
        }
        continue;  // re-evaluate: more work may have arrived, or a deadline passed
      }
    }

    // A pipeline holds batches for one scorer at a time: drain foreign
    // batches before dispatching to a different replica.
    if (!inflight.empty() && name != inflight.back().scorer) {
      collect_one();
      continue;  // the queue may have changed shape while unlocked
    }

    // Collect up to `cap` poses for `name`, front-to-back.
    std::vector<Slice> parts;
    size_t total = 0;
    if (cfg_.ordered_stream) {
      parts.push_back(std::move(queue_.front()));
      queue_.pop_front();
      total = parts[0].end - parts[0].begin;
      if (parts[0].owner->has_deadline) deadlined_queued_ -= total;
    } else {
      for (auto it = queue_.begin(); it != queue_.end() && total < cap;) {
        if (it->owner->scorer != name) {
          ++it;
          continue;
        }
        const size_t take = std::min(cap - total, it->end - it->begin);
        parts.push_back(Slice{it->owner, it->begin, it->begin + take, it->enqueued});
        if (it->owner->has_deadline) deadlined_queued_ -= take;
        it->begin += take;
        total += take;
        if (it->begin == it->end) {
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    queued_poses_ -= total;
    inflight_poses_ += total;
    ++stats_.batches;
    if (total >= cap) ++stats_.full_batches;
    if (parts.size() > 1) {  // one slice per request => >1 parts = >1 clients
      ++stats_.coalesced_batches;
      for (const Slice& p : parts) p.owner->coalesced = true;
    }
    for (const Slice& p : parts) ++p.owner->micro_batches;
    space_cv_.notify_all();
    lock.unlock();

    // Dispatch to this worker's private replica. A pipelined replica starts
    // featurizing now and the worker goes back for more work: the forward
    // runs at collect_one() — at the latest once the ring is full — so
    // batch N+1's featurization overlaps batch N's forward. Any other
    // replica counts as depth 1 and is scored right away.
    InFlight fl;
    fl.parts = std::move(parts);
    fl.total = total;
    fl.scorer = name;
    try {
      fl.replica = &replica_for(replicas, name);
    } catch (const std::exception& e) {
      fl.error = failure_message(e, name);
    } catch (...) {
      fl.error = "unknown exception from scorer '" + name + "'";
    }
    fl.poses.reserve(fl.total);
    for (const Slice& p : fl.parts) {
      for (size_t i = p.begin; i < p.end; ++i) fl.poses.push_back(&p.owner->poses[i]);
    }
    ScorerPipeline* pipe = fl.replica != nullptr ? fl.replica->pipeline() : nullptr;
    if (pipe != nullptr) pipe->submit(std::move(fl.poses));
    const size_t depth = pipe != nullptr ? static_cast<size_t>(pipe->depth()) : 1;
    lock.lock();
    inflight.push_back(std::move(fl));
    if (inflight.size() >= depth) collect_one();
  }
}

}  // namespace df::serve
