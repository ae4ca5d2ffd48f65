#include "core/config.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace gbmo::core {

const char* growth_policy_name(GrowthPolicy p) {
  switch (p) {
    case GrowthPolicy::kLevelWise:
      return "level";
    case GrowthPolicy::kLeafWise:
      return "leaf";
  }
  return "?";
}

const char* multi_gpu_mode_name(MultiGpuMode m) {
  switch (m) {
    case MultiGpuMode::kFeatureParallel:
      return "feature";
    case MultiGpuMode::kDataParallel:
      return "data";
    case MultiGpuMode::kVotingParallel:
      return "voting";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error("invalid TrainConfig: " + what);
}

}  // namespace

void validate_train_config(const TrainConfig& config) {
  if (config.n_trees < 1) {
    fail("n_trees must be >= 1 (got " + std::to_string(config.n_trees) + ")");
  }
  // max_depth == 0 is a supported edge case: every tree is a single leaf.
  if (config.max_depth < 0) {
    fail("max_depth must be >= 0 (got " + std::to_string(config.max_depth) +
         ")");
  }
  if (config.max_bins < 2 || config.max_bins > 256) {
    fail("max_bins must be in [2, 256] (got " +
         std::to_string(config.max_bins) + ")");
  }
  if (config.min_instances_per_node < 1) {
    fail("min_instances_per_node must be >= 1 (got " +
         std::to_string(config.min_instances_per_node) + ")");
  }
  if (config.max_leaves < 0 || config.max_leaves == 1) {
    fail("max_leaves must be 0 (unbounded) or >= 2 (got " +
         std::to_string(config.max_leaves) + ")");
  }
  if (config.hist_budget_mb < 1) {
    fail("hist_budget_mb must be >= 1 (got " +
         std::to_string(config.hist_budget_mb) + ")");
  }
  if (config.n_devices < 1) {
    fail("n_devices must be >= 1 (got " + std::to_string(config.n_devices) +
         ")");
  }
  if (config.n_nodes < 1) {
    fail("n_nodes must be >= 1 (got " + std::to_string(config.n_nodes) + ")");
  }
  if (config.n_devices % config.n_nodes != 0) {
    fail("n_devices (" + std::to_string(config.n_devices) +
         ") must be divisible by n_nodes (" + std::to_string(config.n_nodes) +
         ")");
  }
  if (config.voting_k < 1) {
    fail("voting_k must be >= 1 (got " + std::to_string(config.voting_k) +
         ")");
  }
  if (!(config.inter_gbps > 0.0)) {
    fail("inter_gbps must be > 0");
  }
  if (config.inter_latency_us < 0.0) {
    fail("inter_latency_us must be >= 0");
  }
  if (!(config.subsample > 0.0) || config.subsample > 1.0) {
    fail("subsample must be in (0, 1]");
  }
  if (!(config.colsample_bytree > 0.0) || config.colsample_bytree > 1.0) {
    fail("colsample_bytree must be in (0, 1]");
  }
  const bool goss_on = config.goss_a > 0.0 || config.goss_b > 0.0;
  if (goss_on) {
    if (!(config.goss_a > 0.0) || config.goss_a >= 1.0) {
      fail("goss_a (top fraction) must be in (0, 1)");
    }
    if (!(config.goss_b > 0.0) || config.goss_b > 1.0) {
      fail("goss_b (sampled fraction) must be in (0, 1]");
    }
    if (config.goss_a + config.goss_b > 1.0 + 1e-12) {
      fail("goss_a + goss_b must be <= 1");
    }
    if (config.subsample < 1.0) {
      fail("GOSS and subsample are mutually exclusive row samplers; "
           "set subsample to 1 or disable GOSS");
    }
  }
  if (config.early_stopping_rounds < 0) {
    fail("early_stopping_rounds must be >= 0");
  }
  {
    std::vector<std::int32_t> cols = config.cat_cols;
    std::sort(cols.begin(), cols.end());
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] < 0) {
        fail("cat_cols must be non-negative (got " + std::to_string(cols[i]) +
             ")");
      }
      if (i > 0 && cols[i] == cols[i - 1]) {
        fail("cat_cols contains duplicate column " + std::to_string(cols[i]));
      }
    }
  }
  if (config.stream_chunk_rows < 0) {
    fail("stream_chunk_rows must be >= 0 (got " +
         std::to_string(config.stream_chunk_rows) + ")");
  }
  if (!(config.learning_rate > 0.0f)) {
    fail("learning_rate must be > 0");
  }
  if (config.lambda_l2 < 0.0f) {
    fail("lambda_l2 must be >= 0");
  }
}

}  // namespace gbmo::core
