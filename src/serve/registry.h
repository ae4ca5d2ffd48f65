// ModelRegistry: the multi-tenant ownership layer of the serving stack.
//
// A registry owns many named models, each a sequence of immutable versioned
// deployments. One deployment — a ModelVersion — bundles everything one
// model needs to answer traffic: shared ownership of the trained
// core::Model, an InferenceEngine compiled over it (its own sim::Device),
// and a PredictBatcher front-end with admission control.
//
// Hot-swap semantics: `deploy(name, model)` builds the next version off to
// the side (engine compilation happens outside any lock), then flips the
// model's live pointer atomically. Requests that already routed to the old
// version finish on it — they hold a shared_ptr, and the old batcher's
// worker answers everything it accepted — so a swap drops and fails zero
// requests by construction. deploy() then drains the old version (every
// accepted request answered), folds its LatencyStats into the model's
// retired ledger, and releases its reference; the old engine and model are
// freed once the last in-flight requester lets go.
//
// Per-model observability: every entry owns an obs::Profiler that is
// attached (as the batcher's sink) to each successive version's engine, so
// kernel totals and modeled seconds accumulate per model across swaps.
// `stats(name)` returns the merged picture: retired-version latency ledger +
// live-version snapshot + profiler totals.
//
// Thread-safety: deploy/undeploy/live/stats may be called from any thread;
// deploys to the same name serialize on a per-model mutex. ModelVersion
// handles must not outlive the registry that issued them (the per-model
// profiler lives in the registry).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/booster.h"
#include "obs/profiler.h"
#include "serve/batcher.h"
#include "serve/engine.h"

namespace gbmo::serve {

// Builder-style deployment options (mirrors BatcherConfig).
struct DeployOptions {
  std::string engine = "compiled";  // make_engine name
  sim::DeviceSpec device = sim::DeviceSpec::rtx4090();
  BatcherConfig batcher{};  // sink defaults to the registry's per-model profiler

  DeployOptions& engine_name(std::string n) { engine = std::move(n); return *this; }
  DeployOptions& batcher_config(BatcherConfig c) { batcher = c; return *this; }
};

// One immutable deployment of one model: model + engine + batcher. Built by
// ModelRegistry::deploy; callers interact through batcher() (or engine() for
// unbatched direct predicts) and never mutate the bundle.
class ModelVersion {
 public:
  ModelVersion(std::string name, int version,
               std::shared_ptr<const core::Model> model,
               const DeployOptions& opts);

  const std::string& model_name() const { return name_; }
  int version() const { return version_; }
  const core::Model& model() const { return *model_; }
  const std::shared_ptr<const core::Model>& model_ptr() const { return model_; }
  std::size_t n_features() const { return model_->cuts.n_features(); }
  InferenceEngine& engine() const { return *engine_; }
  PredictBatcher& batcher() const { return *batcher_; }

 private:
  std::string name_;
  int version_;
  std::shared_ptr<const core::Model> model_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<PredictBatcher> batcher_;
};

// Cumulative per-model serving report: the retired-version ledger merged
// with the live version's snapshot, plus the per-model profiler's modeled
// totals.
struct ModelStats {
  std::string model;
  int live_version = 0;  // 0 when the model has been undeployed
  int deployments = 0;   // total deploy() calls for this name
  std::string engine;    // live version's engine name ("" when undeployed)
  LatencyStats latency;  // merged across every version
  double modeled_seconds = 0.0;     // per-model profiler, all versions
  std::uint64_t kernel_launches = 0;  // profiler event count, all versions
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ~ModelRegistry();  // drains every live batcher

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Deploys `model` as the next version of `name` (versions start at 1) and
  // atomically makes it the live version. Existing traffic finishes on the
  // old version, which is drained and released before deploy() returns.
  std::shared_ptr<ModelVersion> deploy(const std::string& name,
                                       std::shared_ptr<const core::Model> model,
                                       DeployOptions opts = {});

  // The live version, or nullptr for unknown/undeployed names. The returned
  // shared_ptr keeps the version (and its batcher) alive across a concurrent
  // hot-swap — submissions through it are always answered.
  std::shared_ptr<ModelVersion> live(const std::string& name) const;

  // Takes `name` out of service: drains the live version and releases it.
  // The name's stats ledger and profiler survive (stats()/profiler() still
  // work; live_version reads 0). Returns false if nothing was live.
  bool undeploy(const std::string& name);

  // Names with at least one deployment, sorted (undeployed names included).
  std::vector<std::string> model_names() const;
  std::size_t size() const;

  // Merged per-model report; throws gbmo::Error for unknown names.
  ModelStats stats(const std::string& name) const;
  std::vector<ModelStats> all_stats() const;

  // The per-model kernel profile (all versions); throws for unknown names.
  const obs::Profiler& profiler(const std::string& name) const;

  // Blocks until every live batcher answered everything it accepted.
  void drain();

 private:
  struct Entry {
    std::atomic<std::shared_ptr<ModelVersion>> live{};
    std::mutex deploy_mu;  // serializes build/flip/drain per model
    int next_version = 1;
    int deployments = 0;
    LatencyStats retired;  // ledger of drained, released versions
    obs::Profiler profiler{/*capture_trace=*/false};
  };

  Entry* find(const std::string& name) const;  // nullptr if absent

  mutable std::mutex mu_;  // guards the map shape + Entry bookkeeping fields
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace gbmo::serve
