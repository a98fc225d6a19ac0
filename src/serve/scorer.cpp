#include "serve/scorer.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "dock/scoring.h"

namespace df::serve {

ReplicaGuard::ReplicaGuard(std::atomic<bool>& busy) : busy_(busy) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "scorer replica entered concurrently — replicas are single-threaded; "
        "build one per worker (see models/regressor.h replica contract)");
  }
}

ReplicaGuard::~ReplicaGuard() { busy_.store(false, std::memory_order_release); }

namespace {

/// The built-in backends all dereference the borrowed pocket; turn a
/// client's forgotten pointer into the service's typed kScorerFailure
/// instead of a process-killing segfault.
const std::vector<chem::Atom>& pocket_of(const PoseInput& pose, const std::string& scorer) {
  if (pose.pocket == nullptr) {
    throw std::invalid_argument("scorer '" + scorer + "': pose has a null pocket pointer");
  }
  return *pose.pocket;
}

}  // namespace

RegressorScorer::RegressorScorer(std::string name, std::unique_ptr<models::Regressor> model,
                                 const chem::VoxelConfig& voxel,
                                 const chem::GraphFeaturizerConfig& graph)
    : name_(std::move(name)),
      model_(std::move(model)),
      voxelizer_(voxel),
      featurizer_(graph),
      pocket_cache_(std::make_shared<PocketCache>(1)) {
  if (voxel.feature_set_version != graph.feature_set_version) {
    throw std::invalid_argument(
        "RegressorScorer '" + name_ + "': voxel feature_set_version (" +
        std::to_string(voxel.feature_set_version) + ") != graph feature_set_version (" +
        std::to_string(graph.feature_set_version) + ") — a model is trained against one contract");
  }
  model_->set_training(false);
}

// The stage-pipelined executor (ScorerPipeline): a bounded ring of
// `depth` micro-batch slots, one background stage thread that featurizes
// submitted slots strictly in submit order, and a caller-driven collect()
// that forwards the oldest ready slot. Three monotone sequence numbers
// (submit / stage / collect) define slot ownership; every handoff goes
// through mu_, which gives the happens-before edges the unlocked slot
// bodies rely on. Each slot owns its own featurize arena, so the stage
// thread never touches the forward arena a concurrent collect() is using,
// and steady state stays heap-free once every slot has warmed.
class RegressorScorer::Pipeline : public ScorerPipeline {
 public:
  Pipeline(RegressorScorer& owner, int depth)
      : owner_(owner), depth_(depth), slots_(static_cast<size_t>(depth)) {
    stage_ = std::thread([this] { stage_main(); });
  }

  ~Pipeline() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    stage_.join();
  }

  int depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(submit_seq_ - collect_seq_);
  }

  void submit(std::vector<const PoseInput*> poses) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return submit_seq_ - collect_seq_ < static_cast<uint64_t>(depth_); });
    Slot& s = slots_[static_cast<size_t>(submit_seq_ % slots_.size())];
    s.poses = std::move(poses);
    ++submit_seq_;
    cv_.notify_all();
  }

  std::vector<float> collect() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (collect_seq_ == submit_seq_) {
        throw std::logic_error("ScorerPipeline::collect(): no batch in flight");
      }
      cv_.wait(lock, [&] { return collect_seq_ < stage_seq_; });
    }
    // The slot is exclusively ours until collect_seq_ advances: the stage
    // thread only touches slots with index < submit_seq_ not yet staged,
    // and submit() refuses to reuse the slot while it counts as in flight.
    Slot& s = slots_[static_cast<size_t>(collect_seq_ % slots_.size())];
    std::exception_ptr err = std::exchange(s.error, nullptr);
    std::vector<float> out;
    if (err == nullptr) {
      try {
        ReplicaGuard guard(owner_.busy_);
        out = owner_.forward(s.featurized);
      } catch (...) {
        err = std::current_exception();
      }
    }
    // Drop the pose pointers eagerly — they belong to the caller's request.
    // The batch tensors are arena-borrowed; the slot's next occupant
    // rewinds the arena before reuse.
    s.poses.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++collect_seq_;
    }
    cv_.notify_all();
    if (err != nullptr) std::rethrow_exception(err);
    return out;
  }

 private:
  struct Slot {
    std::vector<const PoseInput*> poses;
    Featurized featurized;
    std::exception_ptr error;
  };

  void stage_main() {
    // The stage thread is a peer of whoever owns the shared compute pool
    // (a service worker, a bench thread): it must never submit to it, for
    // the same reason service workers install this scope (core/parallel.h).
    core::SerialComputeScope serial;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || stage_seq_ < submit_seq_; });
      if (stop_) return;
      Slot& s = slots_[static_cast<size_t>(stage_seq_ % slots_.size())];
      lock.unlock();
      try {
        owner_.featurize(s.poses, s.featurized);
      } catch (...) {
        s.error = std::current_exception();
      }
      lock.lock();
      ++stage_seq_;
      cv_.notify_all();
    }
  }

  RegressorScorer& owner_;
  const int depth_;
  std::vector<Slot> slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t submit_seq_ = 0;   // next slot to fill
  uint64_t stage_seq_ = 0;    // next slot the stage thread featurizes
  uint64_t collect_seq_ = 0;  // next slot the forward consumes
  bool stop_ = false;
  std::thread stage_;
};

RegressorScorer::~RegressorScorer() {
  pipeline_.reset();  // join the stage thread before any member dies
}

ScorerPipeline* RegressorScorer::pipeline() { return pipeline_.get(); }

void RegressorScorer::set_pipeline_depth(int depth) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': set_pipeline_depth with batches in flight");
  }
  pipeline_.reset();
  if (depth >= 1) pipeline_ = std::make_unique<Pipeline>(*this, depth);
}

void RegressorScorer::set_pocket_cache(std::shared_ptr<PocketCache> cache) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': set_pocket_cache with batches in flight");
  }
  pocket_cache_ = cache != nullptr ? std::move(cache) : std::make_shared<PocketCache>(1);
}

RegressorScorer::PhaseStats RegressorScorer::phase_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

RegressorScorer::WorkspaceBudgets RegressorScorer::workspace_capacities() const {
  return {forward_ws_.capacity(), featurized_.ws.capacity()};
}

void RegressorScorer::reserve_workspaces(const WorkspaceBudgets& budgets) {
  forward_ws_.reserve(budgets.forward_floats);
  featurized_.ws.reserve(budgets.feat_floats);
  pocket_cache_->reserve_grid(voxelizer_.config());
}

void RegressorScorer::featurize(const std::vector<const PoseInput*>& poses, Featurized& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = poses.size();
  out.ws.reset();
  out.batch.clear();
  out.batch.resize(n);
  out.pockets.resize(n);
  // Bind (not Scope): the samples carved here must outlive this call —
  // they feed the forward stage and die at the arena's next reset. Cache
  // entries heap-own their tensors (Workspace::Unbind inside lookup).
  core::Workspace::Bind bind(out.ws);
  for (size_t i = 0; i < n; ++i) {
    const PoseInput& p = *poses[i];
    const std::vector<chem::Atom>& pocket = pocket_of(p, name_);
    // The poses of a batch overwhelmingly dock into one pocket: look each
    // distinct (pocket, center) up once and share its entry.
    size_t j = 0;
    while (j < i && (poses[j]->pocket != &pocket || poses[j]->site_center.x != p.site_center.x ||
                     poses[j]->site_center.y != p.site_center.y ||
                     poses[j]->site_center.z != p.site_center.z)) {
      ++j;
    }
    out.pockets[i] = j < i ? out.pockets[j]
                           : pocket_cache_->lookup(pocket, p.site_center, voxelizer_, featurizer_);
    const PocketCache::Entry& entry = *out.pockets[i];
    out.batch[i].voxel =
        voxelizer_.voxelize_ligand_onto(p.ligand, pocket, entry.grid, p.site_center);
    out.batch[i].graph = featurizer_.featurize(
        p.ligand, pocket, entry.crop_cells.built() ? &entry.crop_cells : nullptr);
  }
  // Unpin the entries so the cache may evict them.
  out.pockets.clear();
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::vector<float> RegressorScorer::forward(const Featurized& in) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<const data::Sample*> ptrs;
  ptrs.reserve(in.batch.size());
  for (const data::Sample& s : in.batch) ptrs.push_back(&s);
  std::vector<float> out;
  {
    forward_ws_.reset();
    core::Workspace::Bind bind(forward_ws_);
    out = model_->predict_batch(ptrs);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.batches += 1;
  stats_.poses += in.batch.size();
  stats_.featurize_seconds += in.seconds;
  stats_.forward_seconds += seconds;
  return out;
}

std::vector<float> RegressorScorer::score(const std::vector<const PoseInput*>& poses) {
  if (pipeline_ != nullptr && pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': score() while pipelined batches are in flight — "
                           "collect() them first");
  }
  ReplicaGuard guard(busy_);
  featurize(poses, featurized_);
  return forward(featurized_);
}

std::vector<float> VinaPkScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(
        dock::score_to_pk(dock::vina_score(p->ligand, pocket_of(*p, "vina_pk"), weights_)));
  }
  return out;
}

std::vector<float> MmGbsaScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(dock::mmgbsa_score(p->ligand, pocket_of(*p, "mmgbsa"), cfg_));
  }
  return out;
}

}  // namespace df::serve
