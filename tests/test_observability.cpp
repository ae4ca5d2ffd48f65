// Observability layer: the per-kernel registry's sums must equal the device
// aggregates (by construction — every charge routes through the same sink
// path), the Chrome trace must be well-formed JSON with properly nested
// spans, and the registry must round-trip every system name and alias.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "cli.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/collectives.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo {
namespace {

// ---------------------------------------------------------------------------
// a minimal JSON well-formedness checker (objects/arrays/strings/numbers/
// literals). Enough to validate the trace output without a JSON dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const auto start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

data::Dataset tiny_multiclass(std::uint64_t seed = 7) {
  data::MulticlassSpec spec;
  spec.n_instances = 300;
  spec.n_features = 10;
  spec.n_classes = 4;
  spec.cluster_sep = 2.0;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

core::TrainConfig tiny_config() {
  return {.n_trees = 4,
          .max_depth = 4,
          .learning_rate = 0.6f,
          .min_instances_per_node = 5,
          .max_bins = 32};
}

// ---------------------------------------------------------------------------
// per-kernel sums equal the device aggregates

TEST(ProfilerRegistry, DeviceChargesSumToTotals) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  obs::Profiler prof;
  dev.set_sink(&prof);

  sim::KernelStats a;
  a.gmem_coalesced_bytes = 1 << 20;
  a.flops = 1000;
  a.blocks = 8;
  sim::charge_kernel(dev, "kernel_a", a);

  sim::KernelStats b;
  b.atomic_global_ops = 500;
  b.atomic_global_conflicts = 50;
  b.blocks = 2;
  sim::charge_kernel(dev, "kernel_b", b);
  sim::charge_kernel(dev, "kernel_b", b);  // second launch, same name

  ASSERT_EQ(prof.kernels().size(), 2u);
  EXPECT_EQ(prof.kernels().at("kernel_a").events, 1u);
  EXPECT_EQ(prof.kernels().at("kernel_b").events, 2u);
  EXPECT_EQ(prof.kernels().at("kernel_b").stats.atomic_global_ops, 1000u);

  const auto total = prof.total_stats();
  EXPECT_EQ(total.gmem_coalesced_bytes, dev.total_stats().gmem_coalesced_bytes);
  EXPECT_EQ(total.atomic_global_ops, dev.total_stats().atomic_global_ops);
  EXPECT_EQ(total.flops, dev.total_stats().flops);
  EXPECT_EQ(total.blocks, dev.total_stats().blocks);
  EXPECT_DOUBLE_EQ(prof.total_seconds(), dev.modeled_seconds());
  EXPECT_DOUBLE_EQ(prof.device_seconds(dev.id()), dev.modeled_seconds());
}

TEST(ProfilerRegistry, NamedLaunchAndLegacyTwoCallChargesAreCaptured) {
  sim::Device dev(sim::DeviceSpec::rtx4090());
  obs::Profiler prof;
  dev.set_sink(&prof);

  // A functional launch through the named overload.
  std::vector<float> sums(4, 0.0f);
  sim::launch(dev, "tiny_sum", /*grid=*/4, /*block=*/32,
              [&](sim::BlockCtx& blk) { sums[blk.block_id()] += 1.0f; });
  ASSERT_TRUE(prof.kernels().count("tiny_sum"));
  EXPECT_EQ(prof.kernels().at("tiny_sum").events, 1u);

  // A two-call site: counters (with zero seconds) and time charged
  // separately under one name must merge into one row whose stats and
  // seconds match the device deltas exactly.
  const auto seconds_before = dev.modeled_seconds();
  sim::KernelStats s;
  s.gmem_coalesced_bytes = 4096;
  sim::charge_seconds(dev, "two_call_site", 0.0, s);
  sim::charge_seconds(dev, "two_call_site", 1e-5);
  ASSERT_TRUE(prof.kernels().count("two_call_site"));
  const auto& row = prof.kernels().at("two_call_site");
  EXPECT_EQ(row.stats.gmem_coalesced_bytes, 4096u);
  EXPECT_DOUBLE_EQ(row.seconds, dev.modeled_seconds() - seconds_before);
  EXPECT_DOUBLE_EQ(prof.total_seconds(), dev.modeled_seconds());
}

TEST(ProfilerRegistry, BoosterTrainingSumsMatchReport) {
  const auto d = tiny_multiclass();
  core::GbmoBooster booster(tiny_config());
  obs::Profiler prof;
  booster.set_sink(&prof);
  booster.fit(d);
  const auto& report = booster.report();

  // Single device: every charge lands on device 0, so the registry total is
  // exactly the report's modeled time (the acceptance bound is 1%; routing
  // everything through one sink path makes it exact up to fp addition order).
  ASSERT_GT(report.modeled_seconds, 0.0);
  EXPECT_NEAR(prof.total_seconds(), report.modeled_seconds,
              1e-2 * report.modeled_seconds);
  EXPECT_NEAR(prof.max_device_seconds(), report.modeled_seconds,
              1e-2 * report.modeled_seconds);

  // The pipeline's named kernels all appear.
  for (const char* name : {"compute_gradients", "split_gain", "partition_rows",
                           "finalize_leaves", "quantize_bin", "update_scores"}) {
    EXPECT_TRUE(prof.kernels().count(name)) << "missing kernel row: " << name;
  }
  // Nothing fell through to the fallback label.
  EXPECT_FALSE(prof.kernels().count("unattributed"));

  // Per-kernel seconds sum back to the total.
  double sum = 0.0;
  for (const auto& [name, k] : prof.kernels()) sum += k.seconds;
  EXPECT_NEAR(sum, prof.total_seconds(), 1e-9 + 1e-12 * sum);

  // The profile table renders and reports the same total.
  const auto table = prof.profile_table();
  EXPECT_NE(table.find("compute_gradients"), std::string::npos);
  EXPECT_NE(table.find("total modeled:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// trace output

TEST(ProfilerTrace, SpansNestAndJsonIsWellFormed) {
  const auto d = tiny_multiclass();
  core::GbmoBooster booster(tiny_config());
  obs::Profiler prof(/*capture_trace=*/true);
  booster.set_sink(&prof);
  booster.fit(d);

  // All spans closed by the end of fit().
  EXPECT_EQ(prof.span_depth(), 0);

  // Walk the B/E events: depth never goes negative, reaches at least 2
  // (tree span containing a level span), and returns to zero.
  int depth = 0, max_depth = 0;
  bool saw_tree = false, saw_level = false, saw_gradients = false;
  double last_ts = 0.0;
  for (const auto& e : prof.trace_events()) {
    EXPECT_GE(e.ts_us, 0.0);
    if (e.tid == 0) {
      EXPECT_GE(e.ts_us, last_ts) << "pipeline span timestamps must be monotone";
      last_ts = e.ts_us;
      if (e.ph == 'B') {
        ++depth;
        max_depth = std::max(max_depth, depth);
        if (e.name.rfind("tree ", 0) == 0) saw_tree = true;
        if (e.name.rfind("level ", 0) == 0) saw_level = true;
        if (e.name == "gradients") saw_gradients = true;
      } else if (e.ph == 'E') {
        --depth;
        EXPECT_GE(depth, 0) << "span end without matching begin";
      }
    } else {
      EXPECT_EQ(e.ph, 'X');
      EXPECT_GE(e.dur_us, 0.0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_GE(max_depth, 2);
  EXPECT_TRUE(saw_tree);
  EXPECT_TRUE(saw_level);
  EXPECT_TRUE(saw_gradients);

  // Kernel slices carry (tree, level) context once inside the tree loop.
  bool saw_context = false;
  for (const auto& e : prof.trace_events()) {
    if (e.ph == 'X' && e.tree >= 0 && e.level >= 0) saw_context = true;
  }
  EXPECT_TRUE(saw_context);

  const auto json = prof.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << "trace JSON failed to parse";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ProfilerTrace, WriteChromeTraceProducesParsableFile) {
  const auto d = tiny_multiclass();
  core::GbmoBooster booster(tiny_config());
  obs::Profiler prof;
  booster.set_sink(&prof);
  booster.fit(d);

  const std::string path = "/tmp/gbmo_obs_test.trace.json";
  prof.write_chrome_trace(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).valid());
  std::remove(path.c_str());
}

TEST(ProfilerTrace, CaptureDisabledKeepsRegistryOnly) {
  const auto d = tiny_multiclass();
  core::GbmoBooster booster(tiny_config());
  obs::Profiler prof(/*capture_trace=*/false);
  booster.set_sink(&prof);
  booster.fit(d);
  EXPECT_TRUE(prof.trace_events().empty());
  EXPECT_FALSE(prof.kernels().empty());
  EXPECT_GT(prof.total_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// registry round-trip

TEST(SystemRegistry, EveryRegisteredNameAndAliasConstructsAndTrains) {
  const auto d = tiny_multiclass();
  const auto cfg = tiny_config();
  std::size_t checked = 0;
  for (const auto& info : registered_systems()) {
    std::vector<std::string> names = {info.name};
    names.insert(names.end(), info.aliases.begin(), info.aliases.end());
    for (const auto& name : names) {
      SCOPED_TRACE("system: " + name);
      auto sys = make_system(name, cfg);
      ASSERT_NE(sys, nullptr);
      EXPECT_FALSE(sys->name().empty());
      sys->fit(d);
      EXPECT_GT(sys->report().modeled_seconds, 0.0);
      const auto eval = sys->evaluate(d);
      EXPECT_EQ(eval.metric, "accuracy%");
      EXPECT_GT(eval.value, 50.0);
      ++checked;
    }
    EXPECT_FALSE(info.description.empty());
  }
  // 7 canonical systems, 4 of them aliased.
  EXPECT_GE(checked, 11u);
}

TEST(SystemRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_system("not-a-system", tiny_config()), Error);
}

TEST(SystemRegistry, SinkAttachesThroughTrainSystem) {
  const auto d = tiny_multiclass();
  for (const auto& name : {"gbmo-gpu", "sketchboost", "cpu-mo"}) {
    SCOPED_TRACE(name);
    auto sys = make_system(name, tiny_config());
    obs::Profiler prof(/*capture_trace=*/false);
    sys->set_sink(&prof);
    sys->fit(d);
    EXPECT_FALSE(prof.kernels().empty()) << name << " charged no kernels";
    EXPECT_GT(prof.total_seconds(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// CLI surface

std::string obs_tmp(const char* name) {
  return std::string("/tmp/gbmo_obs_cli_") + name;
}

TEST(CliProfile, ProfileFlagAndTraceOutWork) {
  std::ostringstream out, err;
  auto run_cli = [&](std::vector<std::string> args) {
    out.str("");
    err.str("");
    return cli::run(args, out, err);
  };

  ASSERT_EQ(run_cli({"generate", "--task", "multiclass", "--n", "200", "--m",
                     "8", "--d", "3", "--seed", "11", "--out",
                     obs_tmp("d.csv")}),
            0)
      << err.str();

  // --key=value spelling, profile table and trace file in one run.
  const auto trace_path = obs_tmp("t.trace.json");
  ASSERT_EQ(run_cli({"train", "--data", obs_tmp("d.csv"), "--features", "8",
                     "--model", obs_tmp("m.model"), "--trees=5", "--bins=32",
                     "--profile", std::string("--trace-out=") + trace_path}),
            0)
      << err.str();
  const auto text = out.str();
  EXPECT_NE(text.find("per-kernel profile (modeled):"), std::string::npos);
  EXPECT_NE(text.find("compute_gradients"), std::string::npos);
  EXPECT_NE(text.find("chrome trace written to"), std::string::npos);

  std::ifstream is(trace_path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).valid());
  std::remove(trace_path.c_str());

  // bench supports the same flags through the TrainSystem interface.
  ASSERT_EQ(run_cli({"bench", "--dataset", "RF1", "--system", "gbmo-gpu",
                     "--trees", "2", "--bins", "32", "--profile"}),
            0)
      << err.str();
  EXPECT_NE(out.str().find("per-kernel profile (modeled):"), std::string::npos);

  // systems lists the canonical registry.
  ASSERT_EQ(run_cli({"systems"}), 0) << err.str();
  for (const char* name : {"gbmo-gpu", "sketchboost", "cpu-mo", "xgboost"}) {
    EXPECT_NE(out.str().find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace gbmo
