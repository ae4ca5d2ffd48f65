#include "serve/engine.h"

#include <utility>

#include "common/error.h"
#include "core/compiled_model.h"
#include "core/predictor.h"
#include "sim/faults.h"

namespace gbmo::serve {

namespace {

// Categorical models traverse trees on encoded features: every engine runs
// the request matrix through the model's ordered-statistic tables first, so
// serving matches Model::predict bit for bit. Numeric models pass through.
const data::DenseMatrix& maybe_encode(const core::Model& model,
                                      const data::DenseMatrix& x,
                                      data::DenseMatrix& storage) {
  if (!model.has_categoricals()) return x;
  storage = model.encode(x);
  return storage;
}

class ReferenceEngine final : public InferenceEngine {
 public:
  ReferenceEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec)
      : InferenceEngine(model->n_outputs, std::move(spec)),
        model_(std::move(model)) {}

  const char* name() const override { return "reference"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    data::DenseMatrix encoded;
    const data::DenseMatrix& xin = maybe_encode(*model_, x, encoded);
    std::vector<float> scores(
        x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
    core::predict_scores_device(dev_, model_->trees, xin, scores);
    return scores;
  }

 private:
  std::shared_ptr<const core::Model> model_;
};

class CompiledEngine final : public InferenceEngine {
 public:
  CompiledEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec)
      : InferenceEngine(model->n_outputs, std::move(spec)),
        model_(std::move(model)),
        compiled_(core::CompiledModel::compile(model_->trees, model_->n_outputs)) {
  }

  const char* name() const override { return "compiled"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    data::DenseMatrix encoded;
    const data::DenseMatrix& xin = maybe_encode(*model_, x, encoded);
    std::vector<float> scores(
        x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
    core::predict_compiled(dev_, compiled_, xin, scores);
    return scores;
  }

 private:
  std::shared_ptr<const core::Model> model_;
  core::CompiledModel compiled_;
};

// Compiled path with graceful degradation (sim/faults.h): a request whose
// compiled kernels exhaust their transient-fault retries is re-answered by
// the reference path on a standby device (id -1, so scripted kills never
// target it); a permanent loss of the primary pins the engine to the
// fallback. Scores are bit-identical either way — the two paths replay the
// same float-addition order.
class ResilientEngine final : public InferenceEngine {
 public:
  ResilientEngine(std::shared_ptr<const core::Model> model, sim::DeviceSpec spec)
      : InferenceEngine(model->n_outputs, spec),
        model_(std::move(model)),
        compiled_(core::CompiledModel::compile(model_->trees, model_->n_outputs)),
        fallback_dev_(std::move(spec), /*id=*/-1) {
    fallback_dev_.set_phase("inference");
  }

  const char* name() const override { return "resilient"; }

  std::vector<float> predict(const data::DenseMatrix& x) override {
    data::DenseMatrix encoded;
    const data::DenseMatrix& xin = maybe_encode(*model_, x, encoded);
    std::vector<float> scores(
        x.n_rows() * static_cast<std::size_t>(n_outputs_), 0.0f);
    if (!degraded_) {
      try {
        core::predict_compiled(dev_, compiled_, xin, scores);
        return scores;
      } catch (const sim::SimDeviceLost&) {
        degraded_ = true;  // primary is gone for good
      } catch (const sim::SimFaultError&) {
        // Retries exhausted for this request only; the primary stays up.
      }
    }
    ++fallback_count_;
    std::fill(scores.begin(), scores.end(), 0.0f);
    core::predict_scores_device(fallback_dev_, model_->trees, xin, scores);
    return scores;
  }

  void set_sink(sim::StatsSink* sink) override {
    InferenceEngine::set_sink(sink);
    fallback_dev_.set_sink(sink);
  }

  std::uint64_t fallback_count() const override { return fallback_count_; }

 private:
  std::shared_ptr<const core::Model> model_;
  core::CompiledModel compiled_;
  sim::Device fallback_dev_;
  bool degraded_ = false;
  std::uint64_t fallback_count_ = 0;
};

}  // namespace

std::vector<std::string> engine_names() {
  return {"compiled", "reference", "resilient"};
}

std::unique_ptr<InferenceEngine> make_engine(
    const std::string& name, std::shared_ptr<const core::Model> model,
    sim::DeviceSpec spec) {
  GBMO_CHECK(model != nullptr) << "make_engine: null model";
  if (name == "compiled") {
    return std::make_unique<CompiledEngine>(std::move(model), std::move(spec));
  }
  if (name == "reference") {
    return std::make_unique<ReferenceEngine>(std::move(model), std::move(spec));
  }
  if (name == "resilient") {
    return std::make_unique<ResilientEngine>(std::move(model), std::move(spec));
  }
  GBMO_CHECK(false) << "unknown inference engine: " << name
                    << " (expected compiled|reference|resilient)";
  return nullptr;
}

}  // namespace gbmo::serve
