// gbmo_perfbench: the repository benchmark. One run = one workload:
//
//   set up   generate the workload's inputs from --seed (several times; the
//            median is setup_s)
//   train    fit every tenant model, repeated until the train share of
//            --seconds is spent (median fit CPU time is train_host_s)
//   score    compiled-engine batch scoring of a fixed batch of fresh rows
//   serve    open-loop traffic into a ModelServer at a high and a low fixed
//            rate, and closed-loop steps for its capacity, with one tenant
//            hot-swapped from its model file throughout
//
// After one untimed warm-up of each, the timed fits, batches and serving
// steps are interleaved over the whole run (see run_lanes).
//
// Every layer is measured from outside, through public APIs: wall-clock
// around calls into each module, and a HostClockSink (host_clock_sink.h)
// attached where obs::Profiler would be. --trace 1 attaches the sinks, adds a
// single-threaded reference fit and the reference engine, and reports the
// per-layer metrics; --trace 0 reports the end-to-end metrics untraced.
//
// Outputs are checked as they are produced: repeated fits (traced, untraced
// and single-threaded) must give bitwise-identical models and identical
// modeled seconds, batch scores must equal Model::predict bitwise, and every
// served reply must equal Model::predict of the version that served it. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the exit code is 1 when any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/booster.h"
#include "core/compiled_model.h"
#include "core/model_io.h"
#include "data/paper_datasets.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "host_clock_sink.h"
#include "open_loop.h"
#include "serve/engine.h"
#include "sim/scheduler.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace core = gbmo::core;
namespace data = gbmo::data;
namespace serve = gbmo::serve;
namespace sim = gbmo::sim;
using perfbench::HostClockSink;
using perfbench::LayerTotals;
using perfbench::median;
using perfbench::StepResult;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;             // self-check scale
  bool inject_mismatch = false;  // corrupt one batch score and one reply
  std::string workdir = ".bench_build/work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.trace = value() != "0";
    } else if (key == "--scale") {
      const std::string s = value();
      if (s != "tiny" && s != "full") throw std::runtime_error("--scale is tiny|full");
      a.tiny = s == "tiny";
    } else if (key == "--inject-mismatch") {
      a.inject_mismatch = true;
    } else if (key == "--workdir") {
      a.workdir = value();
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Workload inputs, all drawn from --seed

struct TenantInput {
  std::string name;
  data::TrainTestSplit split;  // the 80/20 split of the training rows
  data::Dataset fresh;         // later rows of the same generator, unseen
  core::TrainConfig cfg;
};

struct Inputs {
  std::vector<TenantInput> tenants;
  std::size_t score_tenant = 0;   // whose model scores the fresh batch
  data::DenseMatrix score_batch;  // that tenant's fresh rows
  data::DenseMatrix pool;         // serving request pool (with NaN cells)
  std::vector<double> weights;    // tenant traffic shares
  std::size_t swap_tenant = 0;
  double swap_period_s = 0.0;     // 0 = no hot swaps
  double low_rps = 2000.0;
  double high_rps = 100000.0;
  // Shares of --seconds spent training, scoring and serving: each workload
  // gives most of its time to the stage it is about.
  double train_share = 0.5;
  double score_share = 0.05;
  double serve_share = 0.4;
  double generate_s = 0.0;        // generator + split time only
};

data::DenseMatrix slice_rows(const data::DenseMatrix& x, std::size_t begin,
                             std::size_t end) {
  data::DenseMatrix out(end - begin, x.n_cols());
  for (std::size_t r = begin; r < end; ++r) {
    std::copy(x.row(r).begin(), x.row(r).end(), out.row(r - begin).begin());
  }
  return out;
}

data::Dataset subset(const data::Dataset& full, const std::vector<std::uint32_t>& rows) {
  data::Dataset out;
  out.name = full.name;
  out.x = data::DenseMatrix(rows.size(), full.n_features());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(full.x.row(rows[i]).begin(), full.x.row(rows[i]).end(), out.x.row(i).begin());
  }
  out.y = full.y.subset(rows);
  return out;
}

// --seed drives the generator and picks which `n_train` rows train (80/20
// train/test); the rest are the unseen "fresh" rows.
TenantInput make_tenant(std::string name, const data::Dataset& full,
                        std::size_t n_train, core::TrainConfig cfg, std::mt19937_64& rng) {
  std::vector<std::uint32_t> perm(full.n_instances());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[rng() % (i + 1)]);
  std::vector<std::uint32_t> train(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<std::uint32_t> fresh(perm.begin() + static_cast<std::ptrdiff_t>(n_train), perm.end());
  std::sort(train.begin(), train.end());
  TenantInput t;
  t.name = std::move(name);
  t.split = data::split_dataset(subset(full, train), 0.2);
  t.fresh = subset(full, fresh);
  t.cfg = cfg;
  return t;
}

// The paper's §4.1 configuration: level-wise, depth 7, learning rate 1,
// min 20 instances per node, warp-level optimisation, adaptive histograms.
core::TrainConfig paper_config(int trees, int bins) {
  core::TrainConfig cfg;
  cfg.n_trees = trees;
  cfg.max_depth = 7;
  cfg.learning_rate = 1.0f;
  cfg.min_instances_per_node = 20;
  cfg.max_bins = bins;
  cfg.hist_method = core::HistMethod::kAuto;
  cfg.warp_opt = true;
  cfg.growth = core::GrowthPolicy::kLevelWise;
  return cfg;
}

Inputs make_inputs(const Args& a) {
  Inputs in;
  std::mt19937_64 rng(mix(a.seed, 0x5e12e));
  const auto uniform = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  // Fresh rows per tenant measure its held-out quality; the score tenant's
  // are also the scored batch and the serving pool.
  const std::size_t score_rows = a.tiny ? 600 : 20000;
  const std::size_t eval_rows = a.tiny ? 300 : 5000;
  const auto t0 = Clock::now();

  if (a.workload == "train-rows" || a.workload == "train-wide") {
    const bool rows = a.workload == "train-rows";
    data::ReplicaSpec spec = data::find_dataset(rows ? "MNIST" : "Helena");
    const std::size_t n_train = a.tiny ? 300 : spec.bench.n_instances;
    spec.seed = mix(spec.seed, a.seed);
    spec.bench.n_instances = n_train + score_rows;
    // 64 bins on the row-heavy replica (the bench-scale rule in
    // bench/bench_common.cpp); the paper's 256 on the wide one.
    in.tenants.push_back(make_tenant(rows ? "mnist" : "helena", data::make_replica(spec),
                                     n_train,
                                     paper_config(a.tiny ? 3 : (rows ? 30 : 8),
                                                  rows ? 64 : 256),
                                     rng));
    in.weights = {1.0};
  } else if (a.workload == "serve-open") {
    // Three tenants of different output width and forest size.
    struct Shape { const char* name; int classes; int trees; };
    const Shape shapes[] = {{"small", 4, 8}, {"medium", 10, 12}, {"wide", 32, 16}};
    const std::size_t n_train = a.tiny ? 300 : 1500;
    in.score_tenant = 2;
    for (std::size_t i = 0; i < 3; ++i) {
      data::MulticlassSpec spec;
      spec.n_features = 16;
      spec.n_classes = shapes[i].classes;
      spec.n_informative = 10;
      spec.seed = mix(a.seed, 100 + i);
      spec.n_instances = n_train + (i == in.score_tenant ? score_rows : eval_rows);
      core::TrainConfig cfg = paper_config(a.tiny ? 2 : shapes[i].trees, 64);
      cfg.max_depth = 6;
      in.tenants.push_back(
          make_tenant(shapes[i].name, data::make_multiclass(spec), n_train, cfg, rng));
      in.weights.push_back(1.0 + 0.5 * uniform());
    }
    // Hot swaps of one tenant belong to this workload: on the train-*
    // workloads a swap of their much larger model stalls a single-tenant
    // server for milliseconds, which would make every serve_* figure there
    // read the swap instead of the engine. The swapped tenant is always the
    // widest, whose swap costs most, and the seed varies weights and cadence
    // only a little: what a swap costs sets the latency tail, so a seed that
    // swapped another tenant or twice as often would be another workload.
    in.swap_tenant = 2;
    in.swap_period_s = 0.045 + 0.01 * uniform();
    in.train_share = 0.25;
    in.score_share = 0.05;
    in.serve_share = 0.6;
  } else {
    throw std::runtime_error("unknown workload '" + a.workload +
                             "' (train-rows | train-wide | serve-open)");
  }
  in.generate_s = seconds_since(t0);
  in.score_batch = in.tenants[in.score_tenant].fresh.x;

  if (a.tiny) {
    in.low_rps = 500.0;
    in.high_rps = 5000.0;
  }
  // The request pool: fresh rows with every 53rd cell missing, so the
  // default-left routing runs on the serving path.
  in.pool = slice_rows(in.score_batch, 0, std::min<std::size_t>(512, in.score_batch.n_rows()));
  auto cells = in.pool.values();
  for (std::size_t i = 0; i < cells.size(); i += 53) {
    cells[i] = std::numeric_limits<float>::quiet_NaN();
  }
  return in;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[perfbench] check failed: %s\n", what.c_str());
    }
  }
};

std::string model_bytes(const core::Model& m) {
  std::ostringstream os;
  core::write_model(os, m);
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// CPU seconds (user + system) used by all threads of this process so far.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Host cost of a piece of work in both host clocks. The end-to-end figures
// use CPU seconds: on a shared virtual machine the hypervisor takes vCPUs
// away for milliseconds at a time, and every simulator launch waits for its
// slowest worker, so wall time there reads the host's load several-fold
// while CPU time still reads the work done (and the scheduler's own cost).
struct HostCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

std::vector<double> wall_of(const std::vector<HostCost>& v) {
  std::vector<double> out;
  for (const HostCost& c : v) out.push_back(c.wall_s);
  return out;
}

std::vector<double> cpu_of(const std::vector<HostCost>& v) {
  std::vector<double> out;
  for (const HostCost& c : v) out.push_back(c.cpu_s);
  return out;
}

// ---------------------------------------------------------------------------
// Train stage

struct TrainStage {
  std::vector<core::Model> models;  // from the first fit
  std::vector<std::string> fingerprints;
  double modeled_s = 0.0;  // summed over tenants
  double quality = 0.0;    // mean accuracy on fresh rows (%)
  std::size_t peak_device_bytes = 0;
  // Fleet fit cost per repetition, by kind of fit.
  std::vector<HostCost> untraced, traced, threads1;
  std::vector<double> tenant_modeled;
};

// Fits every tenant once; returns the fleet's host cost.
HostCost fit_fleet(const Inputs& in, TrainStage& st, Checks& checks,
                   HostClockSink* sink, int sim_threads, const char* label) {
  HostCost cost;
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const TenantInput& tenant = in.tenants[t];
    core::TrainConfig cfg = tenant.cfg;
    cfg.sim_threads = sim_threads;
    core::GbmoBooster booster(cfg);
    if (sink != nullptr) sink->restart();
    booster.set_sink(sink);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    core::Model model = booster.fit(tenant.split.train);
    cost.cpu_s += process_cpu_s() - cpu0;
    cost.wall_s += seconds_since(t0);
    const double modeled = booster.report().modeled_seconds;
    if (st.models.size() < in.tenants.size()) {
      st.fingerprints.push_back(model_bytes(model));
      st.tenant_modeled.push_back(modeled);
      st.modeled_s += modeled;
      st.peak_device_bytes =
          std::max(st.peak_device_bytes, booster.report().peak_device_bytes);
      st.quality += model.evaluate(tenant.fresh).value /
                    static_cast<double>(in.tenants.size());
      st.models.push_back(std::move(model));
    } else {
      checks.expect(model_bytes(model) == st.fingerprints[t] &&
                        modeled == st.tenant_modeled[t],
                    std::string(label) + " fit of " + tenant.name +
                        " differs from the first fit (model or modeled seconds)");
    }
  }
  if (sim_threads > 0) sim::set_sim_threads(0);  // back to the default
  return cost;
}

// ---------------------------------------------------------------------------
// Interleaving
//
// The timed work of a run is a set of lanes, each a repeated unit: a fit of
// every tenant, one scored batch, one serving step. The lanes take turns, and
// the next unit always goes to the lane furthest behind its share of the
// run, so every lane samples the whole run. On a shared host the machine's
// speed drifts over seconds (one train-wide run scored its batch in about
// 22 ms twenty-two times in a row, then in 26-35 ms), and a lane run as one
// block would read whichever phase it fell in.

struct Lane {
  std::function<void()> unit;
  double budget_s = 1.0;  // wall time the lane should get
  int min_units = 1;
  int max_units = 1;
  double spent_s = 0.0;
  int units = 0;

  bool done() const {
    return units >= max_units || (units >= min_units && spent_s >= budget_s);
  }
  double progress() const { return spent_s / budget_s; }
};

void run_lanes(std::vector<Lane>& lanes) {
  for (;;) {
    Lane* next = nullptr;
    for (Lane& l : lanes) {
      if (!l.done() && (next == nullptr || l.progress() < next->progress())) next = &l;
    }
    if (next == nullptr) return;
    const auto t0 = Clock::now();
    next->unit();
    next->spent_s += seconds_since(t0);
    ++next->units;
  }
}

// Timed fits, at least three for a median (four when traced: two of each
// kind). The reference model comes from a warm-up fit made before.
Lane train_lane(const Inputs& in, const Args& a, double budget_s, TrainStage& st,
                HostClockSink& sink, Checks& checks) {
  // Traced and untraced fits alternate, so the overhead compares like with
  // like.
  return {[&in, &a, &st, &sink, &checks, n = 0]() mutable {
            const bool traced = a.trace && n++ % 2 == 1;
            (traced ? st.traced : st.untraced)
                .push_back(fit_fleet(in, st, checks, traced ? &sink : nullptr, 0,
                                     traced ? "traced" : "untraced"));
          },
          budget_s, a.trace ? 4 : 3, 60};
}

// ---------------------------------------------------------------------------
// Score stage

struct ScoreStage {
  std::vector<HostCost> host;  // per timed batch
  double modeled_s = 0.0;      // per batch
  std::vector<double> compile_ms;
  std::vector<double> reference_host_s;
  int traced_batches = 0;
};

// Compiled-engine scoring of the fixed batch, one batch per call; every batch
// is checked bitwise against Model::predict.
class Scorer {
 public:
  Scorer(const Inputs& in, const core::Model& model, const Args& a, HostClockSink& sink,
         Checks& checks)
      : in_(in), a_(a), sink_(sink), checks_(checks),
        model_(std::make_shared<const core::Model>(model)),
        expected_(model.predict(in.score_batch)) {
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const auto compiled = core::CompiledModel::compile(model.trees, model.n_outputs);
      st_.compile_ms.push_back(seconds_since(t0) * 1e3);
      checks.expect(compiled.n_trees() == model.trees.size(), "compiled tree count");
    }
    engine_ = serve::make_engine("compiled", model_);
    if (a.trace) engine_->set_sink(&sink);
  }

  // The first batch is a warm-up, like the first fit: checked, not timed.
  void batch() {
    const double modeled_before = engine_->modeled_seconds();
    sink_.restart();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    std::vector<float> scores = engine_->predict(in_.score_batch);
    const HostCost cost{seconds_since(t0), process_cpu_s() - cpu0};
    if (a_.trace) ++st_.traced_batches;
    if (batches_++ == 0) {
      st_.modeled_s = engine_->modeled_seconds() - modeled_before;
      if (a_.inject_mismatch) {
        std::uint32_t bits;
        std::memcpy(&bits, &scores[0], sizeof bits);
        bits ^= 1u;
        std::memcpy(&scores[0], &bits, sizeof bits);
      }
    } else {
      st_.host.push_back(cost);
    }
    checks_.expect(scores.size() == expected_.size() &&
                       std::memcmp(scores.data(), expected_.data(),
                                   expected_.size() * sizeof(float)) == 0,
                   "compiled batch scores differ from Model::predict");
  }

  // Adds the traced run's reference-engine batches.
  ScoreStage finish() {
    engine_->set_sink(nullptr);
    if (a_.trace) {
      auto reference = serve::make_engine("reference", model_);
      for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = Clock::now();
        const std::vector<float> scores = reference->predict(in_.score_batch);
        st_.reference_host_s.push_back(seconds_since(t0));
        checks_.expect(std::memcmp(scores.data(), expected_.data(),
                                   expected_.size() * sizeof(float)) == 0,
                       "reference batch scores differ from Model::predict");
      }
    }
    return st_;
  }

 private:
  const Inputs& in_;
  const Args& a_;
  HostClockSink& sink_;
  Checks& checks_;
  std::shared_ptr<const core::Model> model_;
  std::vector<float> expected_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  ScoreStage st_;
  int batches_ = 0;
};

// ---------------------------------------------------------------------------
// Serve stage

struct ServeStage {
  StepResult low, high;
  StepResult capacity;  // closed loop
  std::vector<double> high_p50s, low_p50s, cap_rps, high_cpu, low_cpu;  // per step
  std::vector<double> load_ms, deploy_ms;
  std::uint64_t rejected = 0, failed = 0, mismatches = 0, fallbacks = 0;
  std::uint64_t swaps_observed = 0;
};

// Each fixed rate is measured as several steps, each on a fresh server;
// figures are medians over the steps, so a host stall spoils a step or two,
// not the measurement.
constexpr int kSteps = 9;
// Capacity: closed-loop steps with this many requests unanswered, enough
// to keep every tenant's batches full.
constexpr int kCapacitySteps = 5;
constexpr std::size_t kCapacityWindow = 1024;

// Serving steps, each on a fresh server, from model files written and loaded
// once; every reply is checked.
class Serving {
 public:
  Serving(const Inputs& in, const TrainStage& train, const Args& a, Checks& checks)
      : in_(in), a_(a), checks_(checks) {
    std::filesystem::create_directories(a.workdir);
    for (std::size_t t = 0; t < in.tenants.size(); ++t) {
      perfbench::ServedTenant s;
      s.name = in.tenants[t].name;
      s.model_path = a.workdir + "/" + a.workload + "-" + std::to_string(getpid()) + "-" +
                     s.name + ".gbmo";
      core::save_model(s.model_path, train.models[t]);
      const auto t0 = Clock::now();
      s.model = std::make_shared<const core::Model>(core::load_model(s.model_path));
      st_.load_ms.push_back(seconds_since(t0) * 1e3);
      tenants_.push_back(std::move(s));
    }
  }
  ~Serving() {
    for (const auto& t : tenants_) std::filesystem::remove(t.model_path);
  }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  // One step: open loop at `rate`, or closed loop when !fixed_rate.
  StepResult step(double rate, double seconds, bool fixed_rate) {
    perfbench::OpenLoopConfig cfg;
    cfg.rate_rps = rate;
    cfg.seconds = seconds;
    if (!fixed_rate) cfg.window = kCapacityWindow;
    cfg.swap_period_s = in_.swap_period_s;
    cfg.swap_tenant = in_.swap_tenant;
    cfg.weights = in_.weights;
    cfg.seed = mix(a_.seed, 0x57e9 + static_cast<std::uint64_t>(step_no_++));
    cfg.inject_mismatch = a_.inject_mismatch && step_no_ == 1;
    // Engines run their launches inline on the batcher threads. With the
    // default pool every 32-row batch fans out to all workers, so three
    // batchers, the client threads and the pool contend for a few vCPUs and
    // the latency figures read the OS scheduler rather than the server.
    sim::set_sim_threads(1);
    StepResult r = perfbench::run_open_loop(tenants_, in_.pool, cfg);
    sim::set_sim_threads(0);
    st_.load_ms.insert(st_.load_ms.end(), r.load_ms.begin(), r.load_ms.end());
    st_.deploy_ms.insert(st_.deploy_ms.end(), r.deploy_ms.begin(), r.deploy_ms.end());
    st_.failed += r.failed;
    st_.mismatches += r.mismatches;
    st_.fallbacks += r.fallbacks;
    // Every reply is checked, and every step must see its swaps (capacity
    // steps too); a rejection is an error only at the fixed rates.
    checks_.attempted += r.sent;
    checks_.failed += r.failed + r.mismatches + (fixed_rate ? r.rejected : 0);
    if (r.swap_expected) {
      checks_.expect(r.swap_observed, "no reply came from a hot-swapped version");
    }
    st_.swaps_observed += r.swap_observed ? 1 : 0;
    if (fixed_rate) st_.rejected += r.rejected;
    return r;
  }

  // A lane of `steps` steps sharing `budget_s`, collected into `out`.
  Lane lane(std::vector<StepResult>& out, double rate, double budget_s, int steps,
            bool fixed_rate) {
    const double seconds = budget_s / steps;
    return {[this, &out, rate, seconds, fixed_rate] {
              out.push_back(step(rate, seconds, fixed_rate));
            },
            budget_s, steps, steps};
  }

  ServeStage finish(const std::vector<StepResult>& high, const std::vector<StepResult>& low,
                    const std::vector<StepResult>& capacity) {
    st_.high = perfbench::combine_steps(high);
    st_.low = perfbench::combine_steps(low);
    st_.capacity = perfbench::combine_steps(capacity);
    for (const auto& r : high) {
      st_.high_p50s.push_back(r.p50_ms);
      st_.high_cpu.push_back(r.server_cpu_us_per_req);
    }
    for (const auto& r : low) {
      st_.low_p50s.push_back(r.p50_ms);
      st_.low_cpu.push_back(r.server_cpu_us_per_req);
    }
    for (const auto& r : capacity) st_.cap_rps.push_back(r.achieved_rps);
    return st_;
  }

 private:
  const Inputs& in_;
  const Args& a_;
  Checks& checks_;
  std::vector<perfbench::ServedTenant> tenants_;
  ServeStage st_;
  int step_no_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting

const char* kPhases[] = {"setup", "gradient", "histogram", "split",
                         "partition", "leaf", "update"};
const char* kKernels[] = {"hist_smem",        "hist_subtract",
                          "reduce_gradients", "segmented_scan",
                          "split_gain",       "segmented_arg_max",
                          "partition_rows",   "compute_gradients",
                          "update_scores",    "predict_compiled_route",
                          "predict_compiled_reduce"};

void print_json_line(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-6s %-46s %18.6f %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Args& a) {
  Checks checks;
  const double S = a.seconds;
  const auto run_start = Clock::now();
  const double steal_start = perfbench::steal_cpu_seconds();

  // --- set up: median of several independent generations (at least five,
  // and up to twenty while under a second has been spent) ---
  std::vector<double> setup_s, generate_s;
  Inputs in;
  for (int i = 0; i < 5 || (i < 20 && seconds_since(run_start) < 1.0); ++i) {
    const auto t0 = Clock::now();
    Inputs fresh = make_inputs(a);
    setup_s.push_back(seconds_since(t0));
    generate_s.push_back(fresh.generate_s);
    if (i == 0) {
      in = std::move(fresh);
    } else {
      checks.expect(fresh.tenants[0].split.train.x.values().size() ==
                            in.tenants[0].split.train.x.values().size() &&
                        std::equal(fresh.pool.values().begin(), fresh.pool.values().end(),
                                   in.pool.values().begin(),
                                   [](float x, float y) {
                                     return std::memcmp(&x, &y, sizeof x) == 0;
                                   }),
                    "same seed generated different inputs");
    }
  }

  // --- data layer, timed around its public calls (outside fit) ---
  std::vector<double> quantize_s, bin_pack_s;
  double binned_bytes = 0.0;
  if (a.trace) {
    for (int rep = 0; rep < 3; ++rep) {
      double q = 0.0, b = 0.0, bytes = 0.0;
      for (const TenantInput& t : in.tenants) {
        auto t0 = Clock::now();
        const auto cuts = data::BinCuts::build(t.split.train.x, t.cfg.max_bins);
        q += seconds_since(t0);
        t0 = Clock::now();
        data::BinnedMatrix binned(t.split.train.x, cuts);
        if (t.cfg.warp_opt) binned.pack();
        b += seconds_since(t0);
        bytes += static_cast<double>(binned.byte_size());
      }
      quantize_s.push_back(q);
      bin_pack_s.push_back(b);
      binned_bytes = bytes;
    }
  }

  // --- warm-ups: the first fit (the reference models) and the first batch
  // pay for the process's first large allocations and cold caches (on
  // train-wide the first fit took 14-23 % more CPU time than the next), so
  // they are checked, not timed ---
  HostClockSink train_sink, score_sink;
  TrainStage train;
  fit_fleet(in, train, checks, nullptr, 0, "warm-up");
  Scorer scorer(in, train.models[in.score_tenant], a, score_sink, checks);
  scorer.batch();
  // Peak memory is read before serving: the request queues there grow with
  // every host stall (a 50 ms stall at the high rate queues 5000 requests),
  // and the capacity steps queue a full window on purpose.
  const double rss_mb = peak_rss_mb();
  Serving serving(in, train, a, checks);
  const double serve_s = S * in.serve_share;
  // A warm-up step at the high rate (checked, not reported).
  serving.step(in.high_rps, serve_s * 0.1, true);

  // --- the timed work: fits, scored batches and serving steps, interleaved ---
  std::vector<StepResult> high, low, capacity;
  std::vector<Lane> lanes;
  lanes.push_back(train_lane(in, a, S * in.train_share, train, train_sink, checks));
  lanes.push_back({[&scorer] { scorer.batch(); }, S * in.score_share, 3, 200});
  lanes.push_back(serving.lane(high, in.high_rps, serve_s * 0.15, kSteps, true));
  lanes.push_back(serving.lane(capacity, 0.0, serve_s * 0.15, kCapacitySteps, false));
  lanes.push_back(serving.lane(low, in.low_rps, serve_s * 0.55, kSteps, true));
  run_lanes(lanes);
  if (a.trace) {
    for (int rep = 0; rep < 2; ++rep) {
      train.threads1.push_back(fit_fleet(in, train, checks, nullptr, 1, "1-thread"));
    }
  }
  const ScoreStage score = scorer.finish();
  const ServeStage srv = serving.finish(high, low, capacity);

  std::printf("workload %s seed %llu seconds %g trace %d sim_threads %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), S,
              a.trace ? 1 : 0, sim::sim_threads());
  std::printf("train: %zu untraced fits / %zu traced fits, fleet modeled %.6f s, "
              "quality %.4f %%\n",
              train.untraced.size(), train.traced.size(), train.modeled_s,
              train.quality);
  std::printf("train: median fit %.4f s wall, %.4f s CPU at %d sim threads\n",
              median(wall_of(train.untraced)), median(cpu_of(train.untraced)),
              sim::sim_threads());
  std::printf("score: %zu batches of %zu rows, median %.4f ms wall, %.4f ms CPU\n",
              score.host.size(), in.score_batch.n_rows(), median(wall_of(score.host)) * 1e3,
              median(cpu_of(score.host)) * 1e3);
  const auto list = [](const char* label, const std::vector<double>& v, double scale) {
    std::printf("%s:", label);
    for (double x : v) std::printf(" %.4g", x * scale);
    std::printf("\n");
  };
  list("train: fit CPU s", cpu_of(train.untraced), 1.0);
  list("train: fit wall s", wall_of(train.untraced), 1.0);
  list("score: batch CPU ms", cpu_of(score.host), 1e3);
  list("setup: s", setup_s, 1.0);
  list("serve high: step p50 ms", srv.high_p50s, 1.0);
  list("serve low: step p50 ms", srv.low_p50s, 1.0);
  list("serve cap: step req/s", srv.cap_rps, 1.0);
  list("serve high: step server CPU us/req", srv.high_cpu, 1.0);
  list("serve low: step server CPU us/req", srv.low_cpu, 1.0);
  const auto describe = [](const char* label, const StepResult& r) {
    std::printf("serve %-5s offered %.0f req/s achieved %.0f, sent %llu, "
                "server CPU %.4f us/req, p50 %.4f ms, "
                "p%.1f %.4f ms (smallest step %zu samples), "
                "generator late p99 %.4f max %.4f ms, "
                "backlog max %llu end %llu, swaps %llu, errors %llu\n",
                label, r.offered_rps, r.achieved_rps,
                static_cast<unsigned long long>(r.sent), r.server_cpu_us_per_req, r.p50_ms,
                r.tail_pct,
                r.tail_ms, r.samples, r.gen_late_p99_ms,
                r.gen_late_max_ms, static_cast<unsigned long long>(r.backlog_max),
                static_cast<unsigned long long>(r.backlog_end),
                static_cast<unsigned long long>(r.swaps),
                static_cast<unsigned long long>(r.errors()));
  };
  describe("low", srv.low);
  describe("high", srv.high);
  describe("cap", srv.capacity);
  const double run_s = seconds_since(run_start);
  const double stolen = perfbench::steal_cpu_seconds() - steal_start;
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::printf("host: %.3f CPU-s stolen by the hypervisor over %.1f s (%.1f %% of %u CPUs)\n",
              stolen, run_s, 100.0 * stolen / (run_s * cpus), cpus);

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"train_host_s", median(cpu_of(train.untraced)), "s"},
      {"train_modeled_s", train.modeled_s, "s"},
      {"test_quality", train.quality, "%"},
      {"score_rows_per_s",
       static_cast<double>(in.score_batch.n_rows()) / median(cpu_of(score.host)), "rows/s"},
      {"serve_high_cpu_us", srv.high.server_cpu_us_per_req, "us/req"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  const double error_rate = checks.attempted == 0
                                ? 0.0
                                : static_cast<double>(checks.failed) /
                                      static_cast<double>(checks.attempted);
  print_metrics("e2e", e2e);
  std::printf("%-6s %-46s %18.9f %s (%llu of %llu)\n", "e2e", "error_rate", error_rate,
              "ratio", static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));

  std::vector<Metric> layer;
  if (a.trace) {
    const double fits = static_cast<double>(std::max<std::size_t>(1, train.traced.size()));
    layer.push_back({"data.replica_s", median(generate_s), "s"});
    layer.push_back({"data.quantize_s", median(quantize_s), "s"});
    layer.push_back({"data.bin_pack_s", median(bin_pack_s), "s"});
    layer.push_back({"data.binned_bytes", binned_bytes, "bytes"});

    const auto phases = train_sink.phases();
    for (const char* p : kPhases) {
      const auto it = phases.find(p);
      const LayerTotals t = it == phases.end() ? LayerTotals{} : it->second;
      const std::string base = std::string("core.") + p;
      layer.push_back({base + ".host_s", t.host_s / fits, "s"});
      layer.push_back({base + ".modeled_s", t.modeled_s / fits, "s"});
      layer.push_back({base + ".launches", static_cast<double>(t.launches) / fits, "count"});
    }
    layer.push_back({"core.peak_device_mb",
                     static_cast<double>(train.peak_device_bytes) / (1 << 20), "MB"});

    // Training kernels per traced fit; predict kernels per scored batch.
    const auto train_kernels = train_sink.kernels();
    const auto score_kernels = score_sink.kernels();
    for (const char* k : kKernels) {
      LayerTotals t;
      double per = fits;
      if (const auto it = train_kernels.find(k); it != train_kernels.end()) {
        t = it->second;
      } else if (const auto it2 = score_kernels.find(k); it2 != score_kernels.end()) {
        t = it2->second;
        per = std::max(1, score.traced_batches);
      }
      const std::string base = std::string("sim.kernel.") + k;
      layer.push_back({base + ".host_s", t.host_s / per, "s"});
      layer.push_back({base + ".modeled_s", t.modeled_s / per, "s"});
      layer.push_back({base + ".launches", static_cast<double>(t.launches) / per, "count"});
      layer.push_back({base + ".gb_moved", static_cast<double>(t.bytes) / per / 1e9,
                       "GB_computed"});
    }

    const perfbench::SchedulerTotals sched = train_sink.scheduler();
    const double launches = static_cast<double>(std::max<std::uint64_t>(1, sched.launches));
    // The single-threaded baseline compares wall times: that is the time a
    // user waits, and what more threads are meant to cut.
    const double default_wall = median(wall_of(train.untraced));
    const double threads1_wall = median(wall_of(train.threads1));
    layer.push_back({"sim.threads", static_cast<double>(sim::sim_threads()), "count"});
    layer.push_back({"sim.launches", static_cast<double>(sched.launches) / fits, "count"});
    layer.push_back({"sim.blocks_per_launch", static_cast<double>(sched.blocks) / launches,
                     "blocks"});
    layer.push_back({"sim.host_us_per_launch", sched.host_s / launches * 1e6, "us"});
    layer.push_back({"sim.small_launch_share",
                     static_cast<double>(sched.small_launches) / launches, "ratio"});
    layer.push_back({"sim.train_wall_s", default_wall, "s"});
    layer.push_back({"sim.threads1_train_host_s", threads1_wall, "s"});
    layer.push_back({"sim.thread_speedup", threads1_wall / default_wall, "x"});

    layer.push_back({"predict.compile_ms", median(score.compile_ms), "ms"});
    layer.push_back({"predict.host_ms_per_batch", median(wall_of(score.host)) * 1e3, "ms"});
    layer.push_back({"predict.modeled_ms_per_batch", score.modeled_s * 1e3, "ms"});
    layer.push_back({"predict.reference_host_ms_per_batch",
                     median(score.reference_host_s) * 1e3, "ms"});

    // The wall-clock serving figures are per-layer: sub-millisecond
    // latencies and closed-loop capacity read how long the host kept the
    // threads waiting for a CPU, and on a shared machine they spread past
    // any end-to-end bound. serve_high_cpu_us is their end-to-end
    // counterpart. At the low rate the server's CPU time per request is
    // mostly thread wake-ups, whose cost on a virtual machine shifts with
    // the host's load (one run: 20.5 us/req for three steps, then 12.2), so
    // it is per-layer too.
    const StepResult& hi = srv.high;
    layer.push_back({"serve_low_cpu_us", srv.low.server_cpu_us_per_req, "us/req"});
    layer.push_back({"serve_low_p50_ms", srv.low.p50_ms, "ms"});
    layer.push_back({"serve_high_p50_ms", hi.p50_ms, "ms"});
    layer.push_back({"serve_max_rps", srv.capacity.achieved_rps, "req/s"});
    layer.push_back({"serve_low_p99_ms", srv.low.tail_ms, "ms"});
    layer.push_back({"serve_high_p99_ms", hi.tail_ms, "ms"});
    const double batches = static_cast<double>(std::max<std::uint64_t>(1, hi.engine_batches));
    layer.push_back({"serve.batch_size_mean.low", srv.low.inside.mean_batch_size(), "rows"});
    layer.push_back({"serve.batch_size_mean.high", hi.inside.mean_batch_size(), "rows"});
    layer.push_back({"serve.inside_p50_ms.low", srv.low.inside.p50_ms(), "ms"});
    layer.push_back({"serve.inside_p50_ms.high", hi.inside.p50_ms(), "ms"});
    layer.push_back({"serve.inside_p99_ms.low", srv.low.inside.p99_ms(), "ms"});
    layer.push_back({"serve.inside_p99_ms.high", hi.inside.p99_ms(), "ms"});
    layer.push_back({"serve.engine.host_ms_per_batch", hi.engine_host_s / batches * 1e3, "ms"});
    layer.push_back({"serve.engine.modeled_ms_per_batch", hi.engine_modeled_s / batches * 1e3,
                     "ms"});
    layer.push_back({"serve.engine.launches_per_batch",
                     static_cast<double>(hi.engine_launches) / batches, "count"});
    layer.push_back({"serve.model_load_ms", median(srv.load_ms), "ms"});
    layer.push_back({"serve.deploy_ms", median(srv.deploy_ms), "ms"});
    layer.push_back({"serve.gen_late_p99_ms",
                     std::max(srv.low.gen_late_p99_ms, hi.gen_late_p99_ms), "ms"});
    layer.push_back({"serve.gen_late_max_ms",
                     std::max(srv.low.gen_late_max_ms, hi.gen_late_max_ms), "ms"});
    layer.push_back({"serve.backlog_max",
                     static_cast<double>(std::max(srv.low.backlog_max, hi.backlog_max)),
                     "requests"});
    layer.push_back({"serve.rejected", static_cast<double>(srv.rejected), "count"});
    layer.push_back({"serve.failed", static_cast<double>(srv.failed), "count"});
    layer.push_back({"serve.mismatches", static_cast<double>(srv.mismatches), "count"});
    layer.push_back({"serve.fallbacks", static_cast<double>(srv.fallbacks), "count"});
    layer.push_back({"serve.swaps_observed", static_cast<double>(srv.swaps_observed), "count"});

    layer.push_back({"obs.trace_overhead_pct",
                     (median(cpu_of(train.traced)) / median(cpu_of(train.untraced)) - 1.0) *
                         100.0,
                     "%"});
    layer.push_back({"error_rate", error_rate, "ratio"});
    print_metrics("layer", layer);
  }

  print_json_line(checks, a.trace ? layer : e2e);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 2;
  }
}
