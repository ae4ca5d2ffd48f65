#include "cli.h"

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "baselines/system.h"
#include "common/parse.h"
#include "common/table.h"
#include "core/booster.h"
#include "obs/profiler.h"
#include "core/importance.h"
#include "core/model_io.h"
#include "data/io.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "sim/checker.h"
#include "sim/faults.h"
#include "sim/scheduler.h"

namespace gbmo::cli {

namespace {

// ---------------------------------------------------------------------------
// argument parsing

class Args {
 public:
  Args(const std::vector<std::string>& argv, std::size_t start) {
    for (std::size_t i = start; i < argv.size(); ++i) {
      const auto& a = argv[i];
      if (a.rfind("--", 0) != 0) {
        throw Error("unexpected positional argument: " + a);
      }
      std::string key = a.substr(2);
      // Both spellings work: --key value and --key=value.
      if (const auto eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    return it->second;
  }

  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      throw Error("missing required option --" + key);
    }
    used_.insert(key);
    return it->second;
  }

  long integer(const std::string& key, long fallback) const {
    const auto s = str(key);
    return s.empty() ? fallback : parse_number<long>(s, "--" + key);
  }

  double number(const std::string& key, double fallback) const {
    const auto s = str(key);
    return s.empty() ? fallback : parse_number<double>(s, "--" + key);
  }

  bool flag(const std::string& key) const {
    used_.insert(key);
    return values_.count(key) > 0;
  }

  void reject_unknown() const {
    for (const auto& [key, value] : values_) {
      if (!used_.count(key)) throw Error("unknown option --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

sim::DeviceSpec parse_device(const std::string& s) {
  if (s.empty() || s == "4090") return sim::DeviceSpec::rtx4090();
  if (s == "3090") return sim::DeviceSpec::rtx3090();
  if (s == "cpu") return sim::DeviceSpec::cpu_server();
  throw Error("unknown --device: " + s + " (4090|3090|cpu)");
}

// Loads a dataset in either format; libsvm needs the task + output count.
// A CSV header carries both, so with CSV they are optional and, when given,
// must agree with the header.
data::Dataset load_dataset(const Args& args, const std::string& path_key) {
  const auto path = args.require(path_key);
  const auto format = args.str("format", "csv");
  const auto n_features = static_cast<std::size_t>(args.integer("features", 0));
  if (n_features == 0) throw Error("missing required option --features");
  if (format == "csv") {
    auto dataset = data::read_csv_file(path, n_features);
    const auto task = args.str("task");
    if (!task.empty() && data::parse_task(task) != dataset.task()) {
      throw Error("--task " + task + " disagrees with the CSV header of " +
                  path + ", which says " + data::task_name(dataset.task()));
    }
    const long outputs = args.integer("outputs", 0);
    if (outputs != 0 && outputs != dataset.n_outputs()) {
      throw Error("--outputs " + std::to_string(outputs) +
                  " disagrees with the CSV header of " + path +
                  ", which says " + std::to_string(dataset.n_outputs()));
    }
    return dataset;
  }
  if (format == "libsvm") {
    std::ifstream is(path);
    if (!is.good()) throw Error("cannot open " + path);
    return data::read_libsvm(is, n_features,
                             data::parse_task(args.require("task")),
                             static_cast<int>(args.integer("outputs", 0)));
  }
  throw Error("unknown --format: " + format + " (csv|libsvm)");
}

core::TrainConfig parse_train_config(const Args& args) {
  core::TrainConfig cfg;
  cfg.n_trees = static_cast<int>(args.integer("trees", cfg.n_trees));
  cfg.max_depth = static_cast<int>(args.integer("depth", cfg.max_depth));
  cfg.learning_rate = static_cast<float>(args.number("lr", cfg.learning_rate));
  cfg.max_bins = static_cast<int>(args.integer("bins", cfg.max_bins));
  cfg.min_instances_per_node =
      static_cast<int>(args.integer("min-node", cfg.min_instances_per_node));
  cfg.lambda_l2 = static_cast<float>(args.number("lambda", cfg.lambda_l2));
  cfg.n_devices = static_cast<int>(args.integer("devices", cfg.n_devices));
  cfg.sim_threads = static_cast<int>(args.integer("sim-threads", cfg.sim_threads));
  // Host-parallelism knob for every system (the baselines don't read
  // TrainConfig::sim_threads): apply it process-wide right away.
  if (cfg.sim_threads > 0) sim::set_sim_threads(cfg.sim_threads);
  // Race/memory checker: also process-wide, so baseline systems run under
  // it too. Never downgrades a stronger GBMO_SIM_CHECK=fail default.
  if (args.flag("sim-check") && !sim::sim_check_enabled()) {
    sim::set_sim_check(sim::CheckMode::kReport);
  }
  // Fault injection: armed process-wide (so baseline systems and predict
  // paths see it too) and recorded in the config for the booster.
  if (args.has("sim-faults")) {
    cfg.faults = args.str("sim-faults");
    sim::set_sim_faults(cfg.faults);
  }
  cfg.subsample = args.number("subsample", cfg.subsample);
  cfg.colsample_bytree = args.number("colsample", cfg.colsample_bytree);
  cfg.early_stopping_rounds =
      static_cast<int>(args.integer("early-stop", cfg.early_stopping_rounds));
  cfg.seed = static_cast<std::uint64_t>(args.integer("seed", 0));
  if (args.flag("no-warp-opt")) cfg.warp_opt = false;
  if (args.flag("no-sparsity-aware")) cfg.sparsity_aware = false;
  if (args.flag("csc")) cfg.csc_level_sweep = true;

  const auto hist = args.str("hist", "auto");
  if (hist == "auto") cfg.hist_method = core::HistMethod::kAuto;
  else if (hist == "gmem") cfg.hist_method = core::HistMethod::kGlobal;
  else if (hist == "smem") cfg.hist_method = core::HistMethod::kShared;
  else if (hist == "sort-reduce") cfg.hist_method = core::HistMethod::kSortReduce;
  else throw Error("unknown --hist: " + hist);

  const auto mgpu = args.str("mgpu", "feature");
  if (mgpu == "feature") cfg.multi_gpu = core::MultiGpuMode::kFeatureParallel;
  else if (mgpu == "data") cfg.multi_gpu = core::MultiGpuMode::kDataParallel;
  else if (mgpu == "voting") cfg.multi_gpu = core::MultiGpuMode::kVotingParallel;
  else throw Error("unknown --mgpu: " + mgpu + " (feature|data|voting)");

  // Multi-node topology (DESIGN.md §13): --nodes arranges the devices as
  // N nodes × (devices/N) GPUs; inter-node traffic crosses a network link
  // parameterized by --inter-gbps/--inter-latency-us.
  cfg.n_nodes = static_cast<int>(args.integer("nodes", cfg.n_nodes));
  cfg.voting_k = static_cast<int>(args.integer("voting-k", cfg.voting_k));
  cfg.inter_gbps = args.number("inter-gbps", cfg.inter_gbps);
  cfg.inter_latency_us =
      args.number("inter-latency-us", cfg.inter_latency_us);

  const auto growth = args.str("growth", "level");
  if (growth == "level") cfg.growth = core::GrowthPolicy::kLevelWise;
  else if (growth == "leaf") cfg.growth = core::GrowthPolicy::kLeafWise;
  else throw Error("unknown --growth: " + growth + " (level|leaf)");
  cfg.max_leaves = static_cast<int>(args.integer("max-leaves", cfg.max_leaves));
  if (args.flag("efb")) cfg.efb = true;
  // --goss a,b  (e.g. --goss 0.2,0.1): top-a fraction kept, b fraction of the
  // rest sampled and amplified. Both zero (the default) disables GOSS.
  if (args.has("goss")) {
    const auto spec = args.str("goss");
    const auto comma = spec.find(',');
    if (comma == std::string::npos) {
      throw Error("bad --goss '" + spec + "': expected a,b (e.g. 0.2,0.1)");
    }
    cfg.goss_a = parse_number<double>(spec.substr(0, comma), "--goss");
    cfg.goss_b = parse_number<double>(spec.substr(comma + 1), "--goss");
  }
  // Categorical columns (DESIGN.md §14): --cat-cols 0,3,7 replaces those
  // columns with ordered target statistics before quantization.
  if (args.has("cat-cols")) {
    const auto spec = args.str("cat-cols");
    std::stringstream cols(spec);
    std::string tok;
    while (std::getline(cols, tok, ',')) {
      if (tok.empty()) continue;
      cfg.cat_cols.push_back(parse_number<std::int32_t>(tok, "--cat-cols"));
    }
  }
  cfg.hist_budget_mb =
      static_cast<int>(args.integer("hist-budget-mb", cfg.hist_budget_mb));
  // Out-of-core training (DESIGN.md §12): a device-memory budget for the
  // bin-packed block cache, in MiB here and in bytes in the config, and/or
  // the tile height in rows.
  const long device_mb = args.integer("max-device-mb", 0);
  if (device_mb < 0 || device_mb >= (1L << 44)) {  // N << 20 must fit 64 bits
    throw Error("--max-device-mb must be in [0, 2^44) (got " +
                std::to_string(device_mb) + ")");
  }
  cfg.device_budget_bytes = static_cast<std::uint64_t>(device_mb) << 20;
  cfg.stream_chunk_rows =
      static_cast<int>(args.integer("stream-chunk-rows", cfg.stream_chunk_rows));
  // Surface nonsense combinations here (clear one-line message + exit 1)
  // rather than from an assertion later.
  core::validate_train_config(cfg);
  return cfg;
}

// --profile / --trace-out handling, shared by train, bench and compare.
struct ProfileOptions {
  bool profile = false;
  std::string trace_out;
  bool enabled() const { return profile || !trace_out.empty(); }
};

ProfileOptions parse_profile(const Args& args) {
  ProfileOptions p;
  p.profile = args.flag("profile");
  p.trace_out = args.str("trace-out");
  return p;
}

void emit_profile(const ProfileOptions& opts, const obs::Profiler& profiler,
                  const sim::DeviceSpec& spec, std::ostream& out) {
  if (opts.profile) {
    out << "\nper-kernel profile (modeled):\n" << profiler.profile_table(&spec);
    out << "host block-scheduler threads: " << sim::sim_threads()
        << " (modeled results are thread-count-independent)\n";
  }
  if (sim::sim_check_enabled()) {
    out << sim::CheckReport::instance().summary();
  }
  if (!opts.trace_out.empty()) {
    profiler.write_chrome_trace(opts.trace_out);
    out << "chrome trace written to " << opts.trace_out
        << " (open in chrome://tracing)\n";
  }
}

void print_report(const core::TrainReport& report, int n_devices,
                  std::ostream& out) {
  out << "trees trained:        " << report.trees_trained
      << (report.early_stopped ? " (early stopped)" : "") << "\n";
  out << "modeled device time:  " << report.modeled_seconds << " s\n";
  out << "histogram fraction:   " << 100.0 * report.histogram_fraction()
      << " %\n";
  for (const auto& [phase, seconds] : report.phase_seconds) {
    out << "  " << phase << ": " << seconds << " s\n";
  }
  out << "peak memory:          " << report.peak_device_bytes
      << " bytes modeled device, " << report.peak_host_hist_bytes
      << " bytes host histograms\n";
  if (report.page_hits + report.page_misses > 0) {
    out << "block cache:          " << report.page_hits << " hits, "
        << report.page_misses << " misses, " << report.page_evictions
        << " evictions, " << report.page_bytes_transferred
        << " bytes paged\n";
  }
  if (report.comm_intra_bytes + report.comm_inter_bytes > 0) {
    out << "collective traffic:   " << report.comm_intra_bytes
        << " bytes intra-node, " << report.comm_inter_bytes
        << " bytes inter-node\n";
  }
  if (report.vote_rounds > 0) {
    out << "voting exchanges:     " << report.vote_rounds << " rounds, "
        << report.vote_misses << " canonical-best misses\n";
  }
  if (report.devices_lost > 0) {
    out << "devices lost: " << report.devices_lost << " of " << n_devices
        << " (training failed over to the survivors)\n";
  }
}

// ---------------------------------------------------------------------------
// commands

int cmd_generate(const Args& args, std::ostream& out) {
  const auto task = data::parse_task(args.require("task"));
  const auto n = static_cast<std::size_t>(args.integer("n", 1000));
  const auto m = static_cast<std::size_t>(args.integer("m", 20));
  const auto d = static_cast<int>(args.integer("d", 5));
  const auto sparsity = args.number("sparsity", 0.0);
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 42));
  const auto path = args.require("out");
  const auto format = args.str("format", "csv");
  // Categorical columns (multiclass + ranking generators only): the first
  // --cat features become integer category codes with --cardinality levels.
  const auto n_categorical = static_cast<int>(args.integer("cat", 0));
  const auto cardinality = static_cast<int>(args.integer("cardinality", 8));
  if (n_categorical > 0 && task != data::TaskKind::kMulticlass &&
      task != data::TaskKind::kRanking) {
    throw Error("--cat is only supported for --task multiclass|ranking");
  }

  data::Dataset dataset;
  switch (task) {
    case data::TaskKind::kMulticlass: {
      data::MulticlassSpec spec;
      spec.n_instances = n;
      spec.n_features = m;
      spec.n_classes = d;
      spec.sparsity = sparsity;
      spec.seed = seed;
      spec.n_categorical = n_categorical;
      spec.cat_cardinality = cardinality;
      dataset = data::make_multiclass(spec);
      break;
    }
    case data::TaskKind::kMultilabel: {
      data::MultilabelSpec spec;
      spec.n_instances = n;
      spec.n_features = m;
      spec.n_outputs = d;
      spec.sparsity = sparsity;
      spec.seed = seed;
      dataset = data::make_multilabel(spec);
      break;
    }
    case data::TaskKind::kMultiregression: {
      data::MultiregressionSpec spec;
      spec.n_instances = n;
      spec.n_features = m;
      spec.n_outputs = d;
      spec.sparsity = sparsity;
      spec.seed = seed;
      dataset = data::make_multiregression(spec);
      break;
    }
    case data::TaskKind::kRanking: {
      data::RankingSpec spec;
      spec.docs_per_query =
          static_cast<int>(args.integer("docs-per-query", spec.docs_per_query));
      // --queries wins when given; otherwise --n instances split into
      // queries of (on average) docs-per-query documents.
      spec.n_queries = static_cast<std::size_t>(args.integer(
          "queries",
          std::max<long>(1, static_cast<long>(n) / spec.docs_per_query)));
      spec.n_features = m;
      spec.seed = seed;
      spec.n_categorical = n_categorical;
      spec.cat_cardinality = cardinality;
      dataset = data::make_ranking(spec);
      break;
    }
  }
  args.reject_unknown();
  if (format == "csv") {
    data::write_csv_file(path, dataset);
  } else if (format == "libsvm") {
    std::ofstream os(path);
    if (!os.good()) throw Error("cannot open " + path);
    data::write_libsvm(os, dataset);
  } else {
    throw Error("unknown --format: " + format);
  }
  out << "wrote " << dataset.n_instances() << " instances x "
      << dataset.n_features() << " features, " << dataset.n_outputs()
      << " outputs (" << data::task_name(task) << ") to " << path << "\n";
  return 0;
}

int cmd_train(const Args& args, std::ostream& out) {
  // Config first: an invalid flag combination should fail fast, before the
  // (possibly large) training file is read.
  auto cfg = parse_train_config(args);
  const auto train = load_dataset(args, "data");
  const auto model_path = args.require("model");
  cfg.checkpoint_path = args.str("checkpoint");
  cfg.checkpoint_every =
      static_cast<int>(args.integer("checkpoint-every", cfg.checkpoint_every));
  if (!cfg.checkpoint_path.empty() && cfg.checkpoint_every <= 0) {
    cfg.checkpoint_every = 10;
  }
  cfg.resume = args.flag("resume");
  if (cfg.resume && cfg.checkpoint_path.empty()) {
    throw Error("--resume requires --checkpoint FILE");
  }
  const auto device = parse_device(args.str("device"));
  const auto prof_opts = parse_profile(args);

  std::optional<data::Dataset> valid;
  if (args.has("valid")) {
    const auto valid_path = args.str("valid");
    valid = data::read_csv_file(valid_path, train.n_features());
  }
  // --objective rank selects the pairwise LambdaRank loss explicitly (it is
  // already the default for ranking datasets; the flag makes intent visible
  // and fails fast on a dataset without query groups).
  const auto objective = args.str("objective", "default");
  std::unique_ptr<core::Loss> loss;
  if (objective == "rank" || objective == "lambdarank") {
    if (train.task() != data::TaskKind::kRanking) {
      throw Error("--objective rank needs a ranking dataset (CSV header "
                  "'task,ranking,1' with qid,rel labels)");
    }
    loss = std::make_unique<core::LambdaRankLoss>();
  } else if (objective != "default") {
    throw Error("unknown --objective: " + objective + " (default|rank)");
  }
  args.reject_unknown();

  core::GbmoBooster booster(cfg, device);
  obs::Profiler profiler(/*capture_trace=*/!prof_opts.trace_out.empty());
  if (prof_opts.enabled()) booster.set_sink(&profiler);
  const auto model =
      booster.fit(train, loss.get(), valid.has_value() ? &*valid : nullptr);
  core::save_model(model_path, model);

  out << "trained on " << train.n_instances() << " x " << train.n_features()
      << " (" << data::task_name(train.task()) << ", " << train.n_outputs()
      << " outputs)\n";
  print_report(booster.report(), cfg.n_devices, out);
  const auto eval = model.evaluate(train);
  out << "train " << eval.metric << ": " << eval.value << "\n";
  if (valid.has_value()) {
    const auto veval = model.evaluate(*valid);
    out << "valid " << veval.metric << ": " << veval.value << "\n";
  }
  out << "model saved to " << model_path << "\n";
  if (!cfg.checkpoint_path.empty()) {
    out << "checkpoint every " << cfg.checkpoint_every << " trees: "
        << cfg.checkpoint_path << (cfg.resume ? " (resumed)" : "") << "\n";
  }
  emit_profile(prof_opts, profiler, device, out);
  return 0;
}

int cmd_evaluate(const Args& args, std::ostream& out) {
  const auto model = core::load_model(args.require("model"));
  const auto dataset = load_dataset(args, "data");
  args.reject_unknown();
  const auto eval = model.evaluate(dataset);
  out << eval.metric << ": " << eval.value << "\n";
  return 0;
}

int cmd_predict(const Args& args, std::ostream& out) {
  const auto model =
      std::make_shared<const core::Model>(core::load_model(args.require("model")));
  const auto dataset = load_dataset(args, "data");
  const auto out_path = args.require("out");
  const auto engine_name = args.str("engine", "compiled");
  if (args.has("sim-faults")) sim::set_sim_faults(args.str("sim-faults"));
  args.reject_unknown();

  const auto engine = serve::make_engine(engine_name, model);
  const auto scores = engine->predict(dataset.x);
  std::ofstream os(out_path);
  if (!os.good()) throw Error("cannot open " + out_path);
  const auto d = static_cast<std::size_t>(model->n_outputs);
  for (std::size_t i = 0; i < dataset.n_instances(); ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      os << scores[i * d + k] << (k + 1 < d ? ',' : '\n');
    }
  }
  out << "wrote " << dataset.n_instances() << " score rows (" << d
      << " outputs each) to " << out_path << "\n";
  out << "engine " << engine->name() << ": modeled "
      << engine->modeled_seconds() << " s\n";
  if (engine->fallback_count() > 0) {
    out << "fallback requests: " << engine->fallback_count()
        << " (answered by the reference path)\n";
  }
  return 0;
}

// Multi-tenant serving demo: deploy several named models into a ModelServer,
// replay the dataset as mixed traffic through every model's batcher, and
// report per-model SLO stats (p50/p95/p99, rejections, fallbacks).
int cmd_serve(const Args& args, std::ostream& out) {
  const auto models_arg = args.require("models");
  const auto dataset = load_dataset(args, "data");
  const auto engine_name = args.str("engine", "compiled");
  const auto batch = static_cast<std::size_t>(args.integer("batch", 32));
  const auto delay_ms = args.number("delay-ms", 0.5);
  const auto queue = static_cast<std::size_t>(args.integer("queue", 0));
  const auto rounds = std::max(1L, args.integer("rounds", 1));
  if (args.has("sim-faults")) sim::set_sim_faults(args.str("sim-faults"));
  args.reject_unknown();

  // --models name=path,name=path,... — each model becomes one tenant.
  std::vector<std::string> names;
  serve::ModelServer server;
  std::stringstream specs(models_arg);
  std::string spec;
  while (std::getline(specs, spec, ',')) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      throw Error("bad --models entry (want name=path): " + spec);
    }
    const auto name = spec.substr(0, eq);
    const auto model =
        std::make_shared<const core::Model>(core::load_model(spec.substr(eq + 1)));
    if (model->cuts.n_features() != dataset.n_features()) {
      throw Error("model " + name + " expects " +
                  std::to_string(model->cuts.n_features()) +
                  " features, data has " + std::to_string(dataset.n_features()));
    }
    server.deploy(name, model,
                  serve::DeployOptions{}
                      .engine_name(engine_name)
                      .batcher_config(serve::BatcherConfig{}
                                          .batch(batch)
                                          .delay_ms(delay_ms)
                                          .queue_limit(queue)));
    names.push_back(name);
  }
  if (names.empty()) throw Error("--models named no models");

  // Mixed traffic: every dataset row goes to every tenant, interleaved.
  std::vector<std::future<std::vector<float>>> futures;
  std::uint64_t rejected = 0;
  for (long r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < dataset.n_instances(); ++i) {
      const auto row = dataset.x.row(i);
      for (const auto& name : names) {
        auto sub = server.submit(name, std::vector<float>(row.begin(), row.end()));
        if (sub.accepted()) {
          futures.push_back(std::move(sub.scores));
        } else {
          ++rejected;
        }
      }
    }
  }
  std::uint64_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      ++failed;
    }
  }
  server.drain();

  TextTable table({"model", "ver", "requests", "rejected", "failed", "fallbacks",
                   "batch", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms",
                   "modeled ms"});
  for (const auto& name : names) {
    const auto s = server.stats(name);
    table.add_row({s.model, std::to_string(s.live_version),
                   std::to_string(s.latency.requests),
                   std::to_string(s.latency.rejected_requests),
                   std::to_string(s.latency.failed_requests),
                   std::to_string(s.latency.engine_fallbacks),
                   TextTable::num(s.latency.mean_batch_size(), 1),
                   TextTable::num(s.latency.mean_latency_ms(), 3),
                   TextTable::num(s.latency.p50_ms(), 3),
                   TextTable::num(s.latency.p95_ms(), 3),
                   TextTable::num(s.latency.p99_ms(), 3),
                   TextTable::num(s.latency.max_latency_ms, 3),
                   TextTable::num(s.modeled_seconds * 1e3, 3)});
  }
  out << table.to_string();
  out << "served " << futures.size() << " requests across " << names.size()
      << " models (engine " << engine_name << ", " << rejected << " rejected, "
      << failed << " failed)\n";
  return failed == 0 ? 0 : 1;
}

int cmd_importance(const Args& args, std::ostream& out) {
  const auto model = core::load_model(args.require("model"));
  const auto top = static_cast<std::size_t>(args.integer("top", 10));
  const auto kind = args.str("by", "gain") == "count"
                        ? core::ImportanceKind::kSplitCount
                        : core::ImportanceKind::kGain;
  args.reject_unknown();

  const auto n_features = model.cuts.n_features();
  const auto importance =
      core::feature_importance(model.trees, n_features, kind);
  const auto order = core::top_features(model.trees, n_features, top, kind);
  for (const auto f : order) {
    out << "feature " << f << ": " << importance[f] << "\n";
  }
  return 0;
}

int cmd_info(const Args& args, std::ostream& out) {
  const auto model = core::load_model(args.require("model"));
  args.reject_unknown();
  std::size_t nodes = 0, leaves = 0;
  int depth = 0;
  for (const auto& tree : model.trees) {
    nodes += tree.n_nodes();
    leaves += tree.n_leaves();
    depth = std::max(depth, tree.max_depth_reached());
  }
  out << "task:        " << data::task_name(model.task) << "\n"
      << "outputs:     " << model.n_outputs << "\n"
      << "features:    " << model.cuts.n_features() << "\n"
      << "trees:       " << model.trees.size() << "\n"
      << "nodes:       " << nodes << " (" << leaves << " leaves)\n"
      << "max depth:   " << depth << "\n";
  return 0;
}

int cmd_bench(const Args& args, std::ostream& out) {
  const auto name = args.require("dataset");
  const auto system = args.str("system", "ours");
  auto cfg = parse_train_config(args);
  const auto device = parse_device(args.str("device"));
  const auto prof_opts = parse_profile(args);
  args.reject_unknown();

  const auto& spec = data::find_dataset(name);
  const auto full = data::make_replica(spec);
  const auto split = data::split_dataset(full, 0.2);

  auto sys = baselines::make_system(system, cfg, device);
  obs::Profiler profiler(/*capture_trace=*/!prof_opts.trace_out.empty());
  if (prof_opts.enabled()) sys->set_sink(&profiler);
  sys->fit(split.train);
  const auto eval = sys->evaluate(split.test);
  out << "system " << system << " on " << name << " (bench-scale replica)\n";
  print_report(sys->report(), cfg.n_devices, out);
  out << "test " << eval.metric << ": " << eval.value << "\n";
  emit_profile(prof_opts, profiler, device, out);
  return 0;
}

int cmd_systems(const Args& args, std::ostream& out) {
  args.reject_unknown();
  TextTable table({"name", "aliases", "kind", "description"});
  for (const auto& info : gbmo::registered_systems()) {
    std::string aliases;
    for (const auto& a : info.aliases) {
      if (!aliases.empty()) aliases += ", ";
      aliases += a;
    }
    table.add_row({info.name, aliases.empty() ? "-" : aliases,
                   info.gpu ? "gpu" : "cpu", info.description});
  }
  out << table.to_string();
  out << "host block-scheduler threads: " << sim::sim_threads()
      << " (override with --sim-threads or GBMO_SIM_THREADS)\n";
  return 0;
}

int cmd_compare(const Args& args, std::ostream& out) {
  auto cfg = parse_train_config(args);
  const auto train_full = load_dataset(args, "data");
  const auto device = parse_device(args.str("device"));
  args.reject_unknown();

  const auto split = data::split_dataset(train_full, 0.2);
  TextTable table({"system", "modeled s", "per-round ms", "test metric", "value"});
  for (const auto& name : baselines::gpu_system_names()) {
    auto sys = baselines::make_system(name, cfg, device);
    sys->fit(split.train);
    const auto eval = sys->evaluate(split.test);
    const auto& report = sys->report();
    const double per_round =
        report.per_tree_seconds.empty()
            ? 0.0
            : report.modeled_seconds /
                  static_cast<double>(report.per_tree_seconds.size());
    table.add_row({name, TextTable::num(report.modeled_seconds, 4),
                   TextTable::num(per_round * 1e3, 3), eval.metric,
                   TextTable::num(eval.value, 3)});
  }
  out << table.to_string();
  return 0;
}

}  // namespace

std::string usage() {
  return R"(gbmo — multi-output gradient boosting on a simulated GPU substrate

usage: gbmo <command> [options]

commands:
  generate   --task T --out FILE [--n N --m M --d D --sparsity F --seed N --format csv|libsvm]
             [--cat N --cardinality K] [--queries Q --docs-per-query D (ranking)]
  train      --data FILE --features N --model OUT [--format csv|libsvm --task T --outputs D]
             [--trees N --depth N --lr F --bins N --min-node N --lambda F --seed N]
             [--objective default|rank --cat-cols I,J,...]
             [--hist auto|gmem|smem|sort-reduce --no-warp-opt --no-sparsity-aware]
             [--devices N --mgpu feature|data|voting --device 4090|3090|cpu]
             [--nodes N --voting-k K --inter-gbps F --inter-latency-us F]
             [--subsample F --colsample F --valid FILE --early-stop N]
             [--growth level|leaf --max-leaves N --efb --goss A,B]
             [--hist-budget-mb N --max-device-mb N --stream-chunk-rows N]
             [--sim-threads N --sim-check --sim-faults SPEC]
             [--checkpoint FILE --checkpoint-every N --resume]
  evaluate   --model FILE --data FILE --features N [--format ... --task T --outputs D]
  predict    --model FILE --data FILE --features N --out FILE
             [--engine compiled|reference|resilient] [--sim-faults SPEC]
  serve      --models NAME=FILE[,NAME=FILE...] --data FILE --features N
             [--engine E --batch N --delay-ms F --queue N --rounds N]
             — multi-tenant demo: replay the data as mixed traffic through
             every model's batcher, report per-model p50/p95/p99 SLO stats
  importance --model FILE [--top K --by gain|count]
  info       --model FILE
  bench      --dataset NAME [--system NAME] [--device 4090|3090|cpu + train options]
  compare    --data FILE --features N [+ train options] — all five GPU
             systems on your data, one table
  systems    list every registered training system (canonical name + aliases)

train also accepts --csc (build histograms by streaming binned CSC entries,
the paper's §3.2 storage path).

Categorical features & ranking (DESIGN.md §14): --cat-cols I,J,... (any
command taking train options) marks feature columns as categorical — each is
replaced by a CatBoost-style ordered target statistic before quantization,
the final category tables travel inside the model file, and predict-time
inputs (unseen categories -> prior, NaN stays missing) are encoded through
them automatically. Task "ranking" datasets carry query groups (CSV labels
are "qid,rel"; libsvm labels "qid,rel"); the default loss is pairwise
LambdaRank and the primary metric is ndcg@10. --objective rank selects the
pairwise loss explicitly and fails fast on non-ranking data. generate
--task ranking emits an MSRank-shaped synthetic dataset (--queries,
--docs-per-query, optional --cat/--cardinality categorical columns). Both
workloads keep every bitwise-identity guarantee: same model at every
--sim-threads value, device topology and fault schedule.

Growth & sampling (any command taking train options): --growth leaf grows
trees best-first (highest-gain leaf next, LightGBM-style) instead of
level-by-level; --max-leaves N caps the leaf count under either policy
(0 = unlimited; level-wise keeps the top-gain splits of each level).
--efb merges mutually-exclusive sparse features into shared histogram
columns (exclusive feature bundling; splits always report original feature
ids; ignored under --csc, whose sweep already skips zeros). --goss A,B keeps
the top A-fraction of rows by gradient norm, samples B of the rest and
amplifies them by (1-A)/B — mutually exclusive with --subsample.
--hist-budget-mb N bounds the per-tree histogram pool; when a level or
frontier would exceed it the grower builds one node at a time in scratch
(slower, no sibling subtraction, bounded memory). All of these keep the
bitwise --sim-threads determinism guarantee.

Out-of-core streaming (DESIGN.md §12): --max-device-mb N caps the
device-resident bin-block cache at N MiB — feature blocks page in on demand
over the modeled PCIe link (LRU eviction, transfers charged to the "page"
phase, resident tiles counted as device memory; the cache hard-fails if the
budget cannot hold one feature's working set). --stream-chunk-rows N sets
the height of those blocks in rows. The trained model is bit-identical to
in-core training at every budget, block height and --sim-threads value;
only modeled time changes (monotonically, as the budget shrinks).

Multi-node topology (DESIGN.md §13): --nodes N arranges --devices into N
nodes of devices/N GPUs each; intra-node traffic stays on the GPU link while
inter-node traffic crosses a network link set by --inter-gbps (default 25)
and --inter-latency-us (default 25). --mgpu picks the distribution strategy:
feature (columns partitioned), data (rows partitioned, full histogram
all-reduce) or voting (rows partitioned; each device nominates its local
top --voting-k features and only the globally-elected columns cross the
inter-node ring). All three train bitwise-identical models to a single
device at every topology and --sim-threads value; only modeled time and
link traffic differ. "kill-node=D@K" in --sim-faults takes out device D's
whole node; training fails over to the surviving nodes.

--sim-threads N (any command taking train options) sets how many host
worker threads the simulator's block scheduler uses; the GBMO_SIM_THREADS
environment variable sets the process default (else hardware concurrency,
1 = inline). Purely a host-performance knob: modeled seconds, profiles and
trained models are bit-identical for every value.

--sim-check (any command taking train options) arms the substrate's race &
memory checker: shared-memory data races, out-of-bounds/uninitialized reads
and barrier divergence are detected through the kernel accessor views and
summarized per kernel after the run. GBMO_SIM_CHECK=1|report|2|fail sets the
process default (fail throws on the first violating launch). Detection is
identical for every --sim-threads value.

--sim-faults SPEC (train options and predict) arms the deterministic fault
injector: e.g. "transient=0.01;seed=7" fires seeded transient kernel faults
(retried with modeled backoff — the trained model stays bit-identical),
"kill=1@40" permanently loses device 1 at its 40th launch (training fails
over to the survivors, and train reports the devices lost), "timeout=0.01"
injects collective timeouts. GBMO_SIM_FAULTS sets the process default.
Checkpointing: train --checkpoint FILE --checkpoint-every N writes an atomic
resumable snapshot (model + RNG + scores) every N trees; --resume continues
from it and yields a final model bitwise-identical to an uninterrupted run.

train and bench accept --profile (print a per-kernel table of modeled time,
bytes moved, atomic conflict rates and launch geometry) and --trace-out=FILE
(write a Chrome trace_event JSON of the modeled pipeline — open it in
chrome://tracing or Perfetto). System names for --system: run `gbmo systems`;
both canonical names (gbmo-gpu, sketchboost, cpu-mo, ...) and the paper's
short names (ours, sk-boost, mo-fu, ...) are accepted.
)";
}

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err) {
  if (argv.empty() || argv[0] == "--help" || argv[0] == "help") {
    out << usage();
    return argv.empty() ? 2 : 0;
  }
  using Command = int (*)(const Args&, std::ostream&);
  static const std::map<std::string, Command> kCommands = {
      {"generate", cmd_generate}, {"train", cmd_train},
      {"evaluate", cmd_evaluate}, {"predict", cmd_predict},
      {"serve", cmd_serve},       {"importance", cmd_importance},
      {"info", cmd_info},         {"bench", cmd_bench},
      {"compare", cmd_compare},   {"systems", cmd_systems}};
  const auto command = kCommands.find(argv[0]);
  if (command == kCommands.end()) {
    err << "unknown command: " << argv[0] << "\n" << usage();
    return 2;
  }
  try {
    const Args args(argv, 1);
    if (args.has("help")) {
      out << usage();
      return 0;
    }
    return command->second(args, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gbmo::cli
