#include "core/grower.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "core/gradients.h"
#include "sim/cost_model.h"
#include "sim/launch.h"

namespace gbmo::core {

GrowerContext GrowerContext::create(const data::BinnedMatrix& bins,
                                    const data::BinCuts& cuts, int n_outputs,
                                    const TrainConfig& config) {
  GrowerContext ctx;
  ctx.bins = &bins;
  ctx.cuts = &cuts;
  ctx.layout = HistogramLayout(cuts, n_outputs);
  ctx.config = config;
  ctx.hist_pool_budget = static_cast<std::size_t>(
                             std::max(1, config.hist_budget_mb))
                         << 20;
  return ctx;
}

void GrowerContext::apply_bundling(const data::FeatureBundling& plan,
                                   const data::BinnedMatrix& bundled) {
  GBMO_CHECK(bins != nullptr) << "apply_bundling before create";
  GBMO_CHECK(plan.bundle_of_feature.size() == bins->n_cols());
  GBMO_CHECK(bundled.n_rows() == bins->n_rows());
  bundling = &plan;
  bundled_bins = &bundled;

  std::vector<int> bin_counts;
  std::vector<std::uint8_t> zeros;
  bin_counts.reserve(plan.bundles.size());
  zeros.reserve(plan.bundles.size());
  for (const data::FeatureBundle& b : plan.bundles) {
    bin_counts.push_back(b.n_bins);
    zeros.push_back(0);  // bundled bin 0 = all members at their default
  }
  bundle_layout = HistogramLayout(bin_counts, zeros, layout.n_outputs());
}

TreeGrower::TreeGrower(sim::DeviceGroup& group, const GrowerContext& ctx)
    : group_(group),
      ctx_(ctx),
      row_partitioned_(group.size() > 1 && ctx.config.multi_gpu !=
                                               MultiGpuMode::kFeatureParallel) {
  GBMO_CHECK(group.size() == std::max(1, ctx.config.n_devices));
  all_features_.resize(ctx.bins->n_cols());
  std::iota(all_features_.begin(), all_features_.end(), 0u);
  redistribute_over_alive();
  if (row_partitioned_) {
    // Row-partitioned modes build the functional histogram on an off-group
    // ghost device (see the member comment). Its id sits past every real
    // device so scripted fault plans targeting 0..k-1 never hit it.
    ghost_ = std::make_unique<sim::Device>(group.device(0).spec(),
                                           group.size());
  }
  if (ctx.paged != nullptr) {
    const std::size_t budget =
        static_cast<std::size_t>(ctx.config.device_budget_bytes);
    block_caches_.reserve(static_cast<std::size_t>(group.size()));
    for (int i = 0; i < group.size(); ++i) {
      block_caches_.push_back(std::make_unique<data::BlockCache>(
          group.device(i), *ctx.paged, budget));
    }
  }
}

void TreeGrower::stage_blocks(int dev, std::span<const std::uint32_t> features,
                              std::span<const std::uint32_t> rows) {
  if (block_caches_.empty()) return;
  block_caches_[static_cast<std::size_t>(dev)]->stage_features(features, rows);
}

void TreeGrower::stage_block(int dev, std::uint32_t feature,
                             std::span<const std::uint32_t> rows) {
  if (block_caches_.empty()) return;
  block_caches_[static_cast<std::size_t>(dev)]->stage_feature(feature, rows);
}

data::BlockCacheStats TreeGrower::paging_stats() const {
  data::BlockCacheStats total;
  for (const auto& cache : block_caches_) {
    if (cache) total += cache->stats();
  }
  return total;
}

sim::Device& TreeGrower::charge_device() {
  const int fa = group_.first_alive();
  return group_.device(fa < 0 ? 0 : fa);
}

NodeHistogram TreeGrower::take_hist() {
  if (hist_pool_.empty()) {
    NodeHistogram fresh;
    fresh.resize(ctx_.layout);
    host_hist_bytes_ += ctx_.layout.byte_size();
    return fresh;
  }
  NodeHistogram hist = std::move(hist_pool_.back());
  hist_pool_.pop_back();
  return hist;
}

void TreeGrower::note_alloc_all(std::size_t bytes) {
  for (int i = 0; i < group_.size(); ++i) group_.device(i).note_alloc(bytes);
}

void TreeGrower::note_free_all(std::size_t bytes) {
  for (int i = 0; i < group_.size(); ++i) group_.device(i).note_free(bytes);
}

void TreeGrower::redistribute_over_alive() {
  std::vector<int> alive;
  for (int i = 0; i < group_.size(); ++i) {
    if (!group_.is_lost(i)) alive.push_back(i);
  }
  GBMO_CHECK(!alive.empty()) << "no live device to partition over";
  const auto k = static_cast<std::size_t>(group_.size());
  // Row shards: the survivors partition the full row range evenly; lost
  // devices keep zero-width ranges so the upper_bound owner lookup in the
  // histogram build still lands on a live device.
  const std::size_t n = ctx_.bins->n_rows();
  device_row_bounds_.assign(k + 1, 0);
  std::size_t rank = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!group_.is_lost(static_cast<int>(i))) ++rank;
    device_row_bounds_[i + 1] =
        static_cast<std::uint32_t>(n * rank / alive.size());
  }
  // Columns: contiguous chunks over the survivors (better transfer locality
  // than round-robin). Under EFB the chunks are of bundles, and a bundle's
  // member features go with it: the device that accumulates a bundled column
  // then owns exactly the expanded slots it writes.
  device_features_.assign(k, {});
  device_bundles_.assign(k, {});
  const bool bundled = ctx_.bundling != nullptr;
  const std::size_t n_cols =
      bundled ? ctx_.bundling->bundles.size() : ctx_.bins->n_cols();
  const std::size_t chunk = (n_cols + alive.size() - 1) / alive.size();
  for (std::size_t a = 0; a < alive.size(); ++a) {
    const auto dev = static_cast<std::size_t>(alive[a]);
    auto& df = device_features_[dev];
    for (std::size_t c = a * chunk; c < std::min(n_cols, (a + 1) * chunk); ++c) {
      if (!bundled) {
        df.push_back(static_cast<std::uint32_t>(c));
        continue;
      }
      device_bundles_[dev].push_back(static_cast<std::uint32_t>(c));
      const auto& members = ctx_.bundling->bundles[c].features;
      df.insert(df.end(), members.begin(), members.end());
    }
    std::sort(df.begin(), df.end());
  }
}

void TreeGrower::build_node_histogram(const ActiveNode& node, NodeHistogram& out,
                                      std::span<const float> g,
                                      std::span<const float> h) {
  const auto& cfg = ctx_.config;
  const bool bundled = ctx_.bundling != nullptr;
  HistBuildInput in;
  in.g = g;
  in.h = h;
  in.node_totals = node.totals;
  in.node_count = node.count();
  in.node_rows = node_rows_;
  if (bundled) {
    in.bins = ctx_.bundled_bins;
    in.layout = &ctx_.bundle_layout;
    // The bundled matrix is a plain dense column-major array; warp packing
    // and CSC indirection describe the original storage, not this one.
    in.packed = false;
    // Bundled bin 0 (zero_bin of every bundle) is the shared all-default
    // bin: skipping it is exactly the §3.2 sparsity optimization, and the
    // per-member zero bins are reconstructed from the node totals during
    // expansion.
    in.sparsity_aware = true;
    in.csc_indirection = false;
    if (bundle_scratch_.sums.size() != ctx_.bundle_layout.size()) {
      bundle_scratch_.resize(ctx_.bundle_layout);
    }
  } else {
    in.bins = ctx_.bins;
    in.layout = &ctx_.layout;
    in.packed = cfg.warp_opt && ctx_.bins->packed();
    in.sparsity_aware = cfg.sparsity_aware;
    in.csc_indirection = cfg.csc_storage;
  }
  // One build step over `cin.features` (features, or EFB bundles). Under
  // EFB it accumulates into the bundled scratch and expands into `dst`'s
  // original-layout slots (zero bins reconstructed from `cin`'s totals).
  const auto build = [&](sim::Device& dev, const HistBuildInput& cin,
                         NodeHistogram& dst) {
    if (!bundled) {
      build_histogram(dev, cfg.hist_method, cin, dst);
      return;
    }
    build_histogram(dev, cfg.hist_method, cin, bundle_scratch_);
    expand_bundled_histogram(dev, *ctx_.bundling, ctx_.bundle_layout,
                             ctx_.layout, cin.features, bundle_scratch_,
                             cin.node_totals, cin.node_count, dst);
  };

  if (!row_partitioned_) {
    // Feature-parallel: each device accumulates its own columns into
    // disjoint slots of the shared histogram (bundle-aligned partitioning
    // keeps the expanded slots disjoint too).
    for (int i = 0; i < group_.size(); ++i) {
      const auto dev = static_cast<std::size_t>(i);
      const auto& cols =
          bundled ? grow_device_bundles_[dev] : grow_device_features_[dev];
      if (cols.empty()) continue;
      // Out-of-core: page this device's columns (restricted to the node's
      // rows — GOSS-sampled nodes touch fewer tiles) before the build reads
      // them. Bundled columns are device-resident.
      if (!bundled) stage_blocks(i, cols, node_rows_);
      HistBuildInput dev_in = in;
      dev_in.features = cols;
      build(group_.device(i), dev_in, out);
    }
    return;
  }

  // Row-partitioned modes (data-parallel / voting-parallel): every live
  // device builds a partial histogram from its own row shard — that compute
  // plus the exchange is what the cost model charges — while the functional
  // histogram is built once on the ghost device in the exact single-device
  // accumulation order ("functional canonical, cost modeled"). That split is
  // what makes the trained model bitwise-identical to a 1-device run despite
  // float non-associativity in the partial merge.
  const bool voting = cfg.multi_gpu == MultiGpuMode::kVotingParallel;
  if (voting) vote_tally_.assign(ctx_.bins->n_cols(), 0u);
  const auto& cols = bundled ? grow_bundles_ : grow_features_;
  const int d = ctx_.layout.n_outputs();
  std::vector<std::vector<std::uint32_t>> dev_rows(
      static_cast<std::size_t>(group_.size()));
  for (std::uint32_t r : node_rows_) {
    // Row ownership by original id range (live bounds: zero-width for lost).
    const auto it = std::upper_bound(device_row_bounds_.begin(),
                                     device_row_bounds_.end(), r);
    const int owner = static_cast<int>(it - device_row_bounds_.begin()) - 1;
    dev_rows[static_cast<std::size_t>(owner)].push_back(r);
  }
  if (part_scratch_.sums.size() != ctx_.layout.size()) {
    part_scratch_.resize(ctx_.layout);
  }
  for (int i = 0; i < group_.size(); ++i) {
    if (group_.is_lost(i)) continue;
    const auto& rows = dev_rows[static_cast<std::size_t>(i)];
    // Out-of-core: each device pages every column, but only the tiles
    // covering its own row partition.
    if (!bundled) stage_blocks(i, cols, rows);
    HistBuildInput dev_in = in;
    dev_in.features = cols;
    dev_in.node_rows = rows;
    dev_in.node_count = static_cast<std::uint32_t>(rows.size());
    // Per-device totals for this device's row subset (needed by the zero-bin
    // reconstruction; the per-device reconstructions sum to the global one).
    std::vector<sim::GradPair> dev_totals(static_cast<std::size_t>(d));
    reduce_gradients(group_.device(i), g, h, rows, d, dev_totals);
    dev_in.node_totals = dev_totals;
    build(group_.device(i), dev_in, part_scratch_);
    if (voting) {
      accumulate_local_votes(group_.device(i), part_scratch_, dev_totals,
                             dev_in.node_count);
    }
  }
  // Canonical functional build on the ghost (same spec as the real devices,
  // so the adaptive selector makes identical choices; its charges stay off
  // the group's books and the profiler).
  GBMO_CHECK(ghost_ != nullptr) << "row-partitioned build without a ghost";
  HistBuildInput ghost_in = in;
  ghost_in.features = cols;
  build(*ghost_, ghost_in, out);
  charge_histogram_exchange(node, out);
}

namespace {

// Best split gain a single feature offers over `hist`, mirroring the split
// kernel's Eq. (3) gain with the same min-instance guard and last-bin
// exclusion. Host-side double accumulation: it feeds only the voting
// nomination and the vote-miss diagnostic, never the model.
float local_feature_gain(const HistogramLayout& layout,
                         const NodeHistogram& hist,
                         std::span<const sim::GradPair> totals,
                         std::uint32_t count, const TrainConfig& cfg,
                         std::uint32_t f, std::vector<double>& left) {
  const int d = layout.n_outputs();
  const double lambda = cfg.lambda_l2;
  const auto min_inst =
      static_cast<std::uint32_t>(cfg.min_instances_per_node);
  double parent = 0.0;
  for (int k = 0; k < d; ++k) {
    const auto& t = totals[static_cast<std::size_t>(k)];
    parent += static_cast<double>(t.g) * t.g /
              (static_cast<double>(t.h) + lambda);
  }
  // The running left sums: g in left[0, d), h in left[d, 2d).
  left.assign(2 * static_cast<std::size_t>(d), 0.0);
  const std::span<double> gl(left.data(), static_cast<std::size_t>(d));
  const std::span<double> hl(left.data() + d, static_cast<std::size_t>(d));
  std::uint32_t left_count = 0;
  float best = cfg.min_split_gain;
  bool found = false;
  const int nb = layout.n_bins(f);
  for (int b = 0; b + 1 < nb; ++b) {
    for (int k = 0; k < d; ++k) {
      const auto& p = hist.sums[layout.slot(f, b, k)];
      gl[static_cast<std::size_t>(k)] += p.g;
      hl[static_cast<std::size_t>(k)] += p.h;
    }
    left_count += hist.counts[layout.bin_index(f, b)];
    if (left_count < min_inst || count - left_count < min_inst) continue;
    double score = 0.0;
    for (int k = 0; k < d; ++k) {
      const auto& t = totals[static_cast<std::size_t>(k)];
      const double gr = static_cast<double>(t.g) - gl[static_cast<std::size_t>(k)];
      const double hr = static_cast<double>(t.h) - hl[static_cast<std::size_t>(k)];
      score += gl[static_cast<std::size_t>(k)] * gl[static_cast<std::size_t>(k)] /
                   (hl[static_cast<std::size_t>(k)] + lambda) +
               gr * gr / (hr + lambda);
    }
    const float gain = 0.5f * static_cast<float>(score - parent);
    if (gain > best) {
      best = gain;
      found = true;
    }
  }
  return found ? best : -1.0f;
}

}  // namespace

int TreeGrower::best_local_feature(const NodeHistogram& hist,
                                   std::span<const sim::GradPair> totals,
                                   std::uint32_t count, float* out_gain) {
  // Ascending feature scan with strict `>`: implicit lowest-feature-id
  // tie-break, matching find_best_splits and the BestSplitMsg election rule.
  int best_f = -1;
  float best_gain = ctx_.config.min_split_gain;
  for (std::uint32_t f : grow_features_) {
    const float gain =
        local_feature_gain(ctx_.layout, hist, totals, count, ctx_.config, f,
                           vote_left_);
    if (gain > best_gain) {
      best_gain = gain;
      best_f = static_cast<int>(f);
    }
  }
  if (out_gain != nullptr && best_f >= 0) *out_gain = best_gain;
  return best_f;
}

void TreeGrower::accumulate_local_votes(
    sim::Device& dev, const NodeHistogram& part,
    std::span<const sim::GradPair> dev_totals, std::uint32_t dev_count) {
  // Local nomination (PV-Tree): this shard's top voting_k features by
  // (local gain desc, feature id asc) each receive one vote.
  struct Nomination {
    float gain;
    std::uint32_t feature;
  };
  std::vector<Nomination> noms;
  std::uint64_t scanned_bins = 0;
  for (std::uint32_t f : grow_features_) {
    scanned_bins += static_cast<std::uint64_t>(ctx_.layout.n_bins(f));
    const float gain = local_feature_gain(ctx_.layout, part, dev_totals,
                                          dev_count, ctx_.config, f, vote_left_);
    if (gain > ctx_.config.min_split_gain) noms.push_back({gain, f});
  }
  const auto top = std::min(noms.size(),
                            static_cast<std::size_t>(ctx_.config.voting_k));
  std::partial_sort(noms.begin(),
                    noms.begin() + static_cast<std::ptrdiff_t>(top),
                    noms.end(), [](const Nomination& a, const Nomination& b) {
                      if (a.gain != b.gain) return a.gain > b.gain;
                      return a.feature < b.feature;
                    });
  for (std::size_t i = 0; i < top; ++i) ++vote_tally_[noms[i].feature];

  // Cost: one scan + gain pass over the local histogram (same shape as the
  // split kernel's scan, without the segmented arg-max exchange).
  const int d = ctx_.layout.n_outputs();
  sim::KernelStats st;
  st.flops = scanned_bins * static_cast<std::uint64_t>(d) * 4;
  st.gmem_coalesced_bytes =
      scanned_bins * (static_cast<std::uint64_t>(d) * sizeof(sim::GradPair) +
                      sizeof(std::uint32_t));
  st.blocks = std::max<std::uint64_t>(1, scanned_bins / 256);
  sim::charge_kernel(dev, "vote_local_split", st);
}

void TreeGrower::charge_histogram_exchange(const ActiveNode& node,
                                           const NodeHistogram& out) {
  const std::size_t sum_bytes = out.sums.size() * sizeof(sim::GradPair);
  const std::size_t count_bytes = out.counts.size() * sizeof(std::uint32_t);
  if (ctx_.config.multi_gpu == MultiGpuMode::kDataParallel) {
    // Two ring all-reduces over the full histogram: the float sums, then
    // the u32 counts.
    group_.charge_all_reduce("ring_all_reduce", sum_bytes, sum_bytes);
    group_.charge_all_reduce("ring_all_reduce", count_bytes, count_bytes);
    return;
  }

  // Voting-parallel: elect the top 2*voting_k vote-getters (votes desc,
  // feature id asc — a total order, so the election is deterministic); the
  // full histogram is still reduced inside each node, but only the elected
  // columns plus the ballots themselves cross the inter-node ring.
  ++vote_rounds_;
  struct Candidate {
    std::uint32_t votes;
    std::uint32_t feature;
  };
  std::vector<Candidate> cands;
  for (std::uint32_t f = 0; f < vote_tally_.size(); ++f) {
    if (vote_tally_[f] > 0) cands.push_back({vote_tally_[f], f});
  }
  const auto elect_n = std::min(
      cands.size(), static_cast<std::size_t>(2 * ctx_.config.voting_k));
  std::partial_sort(cands.begin(),
                    cands.begin() + static_cast<std::ptrdiff_t>(elect_n),
                    cands.end(), [](const Candidate& a, const Candidate& b) {
                      if (a.votes != b.votes) return a.votes > b.votes;
                      return a.feature < b.feature;
                    });
  std::vector<bool> elected(vote_tally_.size(), false);
  const int d = ctx_.layout.n_outputs();
  std::size_t elected_bytes = static_cast<std::size_t>(group_.n_alive()) *
                              static_cast<std::size_t>(ctx_.config.voting_k) *
                              2 * sizeof(std::uint32_t);  // the ballots
  for (std::size_t i = 0; i < elect_n; ++i) {
    const std::uint32_t f = cands[i].feature;
    elected[f] = true;
    const auto nb = static_cast<std::size_t>(ctx_.layout.n_bins(f));
    elected_bytes += nb * (static_cast<std::size_t>(d) * sizeof(sim::GradPair) +
                           sizeof(std::uint32_t));
  }
  group_.charge_all_reduce("hist_vote_all_reduce", sum_bytes + count_bytes,
                           elected_bytes);

  // Honesty metric: did the election contain the canonical winner? (The
  // functional model always splits on the canonical winner — this simulator
  // quantifies the approximation a real voting run would have made instead
  // of silently training a different model.)
  const int canonical = best_local_feature(out, node.totals, node.count(),
                                           nullptr);
  if (canonical >= 0 && !elected[static_cast<std::size_t>(canonical)]) {
    ++vote_misses_;
  }
}

SplitResult TreeGrower::select_split(const ActiveNode& node,
                                     const NodeHistogram& hist) {
  NodeSplitInput input{&hist, node.totals, node.count()};
  return select_splits({&input, 1})[0];
}

std::vector<SplitResult> TreeGrower::select_splits(
    std::span<const NodeSplitInput> inputs) {
  const auto& cfg = ctx_.config;
  if (group_.size() == 1) {
    return find_best_splits(group_.device(0), ctx_.layout, inputs,
                            grow_features_, cfg, split_scratch_);
  }

  if (row_partitioned_) {
    // Row-partitioned modes: histograms are replicated after the exchange,
    // so every live device evaluates the full feature set (replicated
    // compute beats another exchange). The results are identical, so the
    // first live device searches and every later live device, in device
    // order, is charged the same kernels. Lost devices are skipped.
    std::vector<SplitResult> res;
    bool have = false;
    for (int i = 0; i < group_.size(); ++i) {
      if (group_.is_lost(i)) continue;
      if (have) {
        charge_split_search(group_.device(i), ctx_.layout, inputs.size(),
                            grow_features_, cfg);
        continue;
      }
      res = find_best_splits(group_.device(i), ctx_.layout, inputs,
                             grow_features_, cfg, split_scratch_);
      have = true;
    }
    GBMO_CHECK(have) << "split selection with no live devices";
    return res;
  }

  // Feature-parallel: local best per device over its feature subset, then a
  // per-node arg-max all-reduce over the device-local winners.
  std::vector<std::vector<SplitResult>> local(static_cast<std::size_t>(group_.size()));
  for (int i = 0; i < group_.size(); ++i) {
    const auto& feats = grow_device_features_[static_cast<std::size_t>(i)];
    if (feats.empty() || group_.is_lost(i)) {
      local[static_cast<std::size_t>(i)].resize(inputs.size());
    } else {
      local[static_cast<std::size_t>(i)] = find_best_splits(
          group_.device(i), ctx_.layout, inputs, feats, cfg, split_scratch_);
    }
  }
  // The whole level's candidates travel in one exchange (nodes x msg bytes,
  // one ring round), then every device applies the same deterministic
  // election rule as BestSplitMsg: gain desc, then lowest feature id, then
  // lowest device id. (The per-feature scan inside find_best_splits already
  // tie-breaks on the lowest feature, so the cross-device feature comparison
  // here makes the whole election a total order — previously a cross-device
  // gain tie silently resolved to whichever device came first.)
  std::vector<SplitResult> results(inputs.size());
  for (std::size_t ni = 0; ni < inputs.size(); ++ni) {
    int best_dev = -1;
    for (int i = 0; i < group_.size(); ++i) {
      const auto& r = local[static_cast<std::size_t>(i)][ni];
      if (!r.valid()) continue;
      if (best_dev < 0) {
        best_dev = i;
        continue;
      }
      const auto& b = local[static_cast<std::size_t>(best_dev)][ni];
      if (r.gain > b.gain || (r.gain == b.gain && r.feature < b.feature)) {
        best_dev = i;
      }
    }
    if (best_dev >= 0) results[ni] = local[static_cast<std::size_t>(best_dev)][ni];
  }
  group_.charge_broadcast(2 * inputs.size() * sizeof(sim::BestSplitMsg));
  return results;
}

void TreeGrower::compute_leaf(Tree& tree, const ActiveNode& node,
                              std::span<const std::uint32_t> row_order,
                              std::vector<std::int32_t>& leaf_of_row) {
  const int d = ctx_.layout.n_outputs();
  const float lr = ctx_.config.learning_rate;
  const float lambda = ctx_.config.lambda_l2;
  std::vector<float> values(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) {
    const auto& t = node.totals[static_cast<std::size_t>(k)];
    values[static_cast<std::size_t>(k)] = -lr * t.g / (t.h + lambda);
  }
  tree.set_leaf(node.tree_node, values);
  for (std::uint32_t i = node.begin; i < node.end; ++i) {
    leaf_of_row[row_order[i]] = node.tree_node;
  }
  ++finalized_leaves_;
  // Leaf-value math + leaf-assignment scatter, accumulated into one
  // finalize-leaves kernel per tree (flushed at the end of grow()).
  pending_leaf_stats_.flops += static_cast<std::uint64_t>(d) * 3;
  pending_leaf_stats_.gmem_coalesced_bytes +=
      static_cast<std::uint64_t>(node.count()) * sizeof(std::int32_t) +
      static_cast<std::uint64_t>(d) * sizeof(float);
  has_pending_leaf_charges_ = true;
}

void TreeGrower::flush_leaf_charges() {
  if (!has_pending_leaf_charges_) return;
  group_.set_phase("leaf");
  pending_leaf_stats_.blocks = std::max<std::uint64_t>(
      1, pending_leaf_stats_.gmem_coalesced_bytes / (256 * sizeof(std::int32_t)));
  sim::charge_kernel(charge_device(), "finalize_leaves", pending_leaf_stats_);
  pending_leaf_stats_ = sim::KernelStats{};
  has_pending_leaf_charges_ = false;
}

void TreeGrower::subtract_node_histograms(const NodeHistogram& smaller,
                                          NodeHistogram& parent) {
  if (row_partitioned_) {
    // Replicated histograms: one live device derives the sibling (the old
    // break-after-device-0 skipped the subtraction entirely — leaving the
    // derived histogram zero — whenever device 0 happened to be the lost
    // one).
    const int fa = group_.first_alive();
    GBMO_CHECK(fa >= 0) << "sibling subtraction with no live devices";
    subtract_histograms(group_.device(fa), ctx_.layout, grow_features_,
                        smaller, parent);
    return;
  }
  for (int dev = 0; dev < group_.size(); ++dev) {
    const auto& feats = group_.size() == 1
                            ? grow_features_
                            : grow_device_features_[static_cast<std::size_t>(dev)];
    if (!feats.empty() && !group_.is_lost(dev)) {
      subtract_histograms(group_.device(dev), ctx_.layout, feats, smaller,
                          parent);
    }
  }
}

void TreeGrower::reduce_node_totals(std::span<const float> g,
                                    std::span<const float> h,
                                    std::span<const std::uint32_t> rows,
                                    std::vector<sim::GradPair>& totals) {
  const int d = ctx_.layout.n_outputs();
  if (row_partitioned_) {
    // One live device reduces for everyone (the old break-after-device-0
    // left the totals at zero whenever device 0 was the lost one — every
    // downstream gain then silently used an empty parent).
    const int fa = group_.first_alive();
    GBMO_CHECK(fa >= 0) << "node-total reduction with no live devices";
    reduce_gradients(group_.device(fa), g, h, rows, d, totals);
    return;
  }
  for (int dev = 0; dev < group_.size(); ++dev) {
    if (!group_.is_lost(dev)) {
      reduce_gradients(group_.device(dev), g, h, rows, d, totals);
    }
  }
}

std::uint32_t TreeGrower::partition_rows(const ActiveNode& a,
                                         const SplitResult& s,
                                         std::vector<std::uint32_t>& row_order) {
  group_.set_phase("partition");
  const auto node_rows =
      std::span<const std::uint32_t>(row_order).subspan(a.begin, a.count());
  // Split features are always original feature ids (EFB never leaks bundles
  // past histogram construction), so the partition reads the original bins.
  // Out-of-core: page the split feature's tiles for this node's rows on the
  // charging device.
  const int fa = group_.first_alive();
  stage_block(fa < 0 ? 0 : fa, static_cast<std::uint32_t>(s.feature),
              node_rows);
  const auto col = ctx_.bins->col(static_cast<std::size_t>(s.feature));
  const auto split_bin = static_cast<std::uint8_t>(s.bin);
  const auto begin_it = row_order.begin() + a.begin;
  const auto end_it = row_order.begin() + a.end;
  const auto mid_it = std::stable_partition(
      begin_it, end_it, [&](std::uint32_t r) { return col[r] <= split_bin; });
  const std::uint32_t mid =
      a.begin + static_cast<std::uint32_t>(mid_it - begin_it);
  GBMO_CHECK(mid - a.begin == s.n_left)
      << "partition count mismatch on feature " << s.feature;
  return mid;
}

void TreeGrower::charge_partition(std::uint64_t rows) {
  group_.set_phase("partition");
  // Read the split feature's bins and rewrite the row range.
  sim::KernelStats st;
  st.gmem_random_accesses = rows;
  st.gmem_coalesced_bytes = rows * 2 * sizeof(std::uint32_t);
  st.blocks = std::max<std::uint64_t>(1, rows / 256);
  sim::charge_kernel(charge_device(), "partition_rows", st);
  if (group_.size() > 1 && !row_partitioned_) {
    // The split owners broadcast the partitioned nodes' left/right bitmaps.
    group_.charge_broadcast(rows / 8 + 1);
  }
}

std::pair<TreeGrower::ActiveNode, TreeGrower::ActiveNode>
TreeGrower::split_children(Tree& tree, const ActiveNode& a,
                           const SplitResult& s, std::uint32_t mid, int depth,
                           std::span<const float> g, std::span<const float> h,
                           std::span<const std::uint32_t> row_order) {
  const int d = ctx_.layout.n_outputs();
  const auto [left_id, right_id] = tree.split_node(
      a.tree_node, s.feature, s.bin,
      ctx_.cuts->threshold_for(static_cast<std::size_t>(s.feature), s.bin),
      s.gain, s.n_left, s.n_right, depth);

  const bool left_smaller = s.n_left <= s.n_right;
  ActiveNode small, large;
  small.tree_node = left_smaller ? left_id : right_id;
  small.begin = left_smaller ? a.begin : mid;
  small.end = left_smaller ? mid : a.end;
  large.tree_node = left_smaller ? right_id : left_id;
  large.begin = left_smaller ? mid : a.begin;
  large.end = left_smaller ? a.end : mid;
  small.parent = large.parent = a.tree_node;
  small.sibling = large.tree_node;
  large.sibling = small.tree_node;
  small.is_smaller = true;
  large.is_smaller = false;

  // Child totals: the smaller child is reduced directly, the larger one is
  // the parent minus the smaller (one cheap vector op). The reductions feed
  // the children's zero-bin reconstruction.
  group_.set_phase("histogram");
  small.totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
  reduce_node_totals(g, h, row_order.subspan(small.begin, small.count()),
                     small.totals);
  large.totals.resize(static_cast<std::size_t>(d));
  for (std::size_t k = 0; k < large.totals.size(); ++k) {
    large.totals[k] = sim::GradPair{a.totals[k].g - small.totals[k].g,
                                    a.totals[k].h - small.totals[k].h};
  }
  return {std::move(small), std::move(large)};
}

GrownTree TreeGrower::grow(std::span<const float> g, std::span<const float> h,
                           std::span<const std::uint32_t> sampled_rows,
                           std::span<const std::uint32_t> sampled_features) {
  const std::size_t n = ctx_.bins->n_rows();
  const int d = ctx_.layout.n_outputs();
  const auto& cfg = ctx_.config;
  GBMO_CHECK(g.size() == n * static_cast<std::size_t>(d));
  GBMO_CHECK(h.size() == g.size());

  // Resolve this tree's feature view: full set, or the sampled subset
  // intersected with each device's column partition. With EFB, the bundle
  // view follows: a bundle participates when any member is sampled (its
  // unsampled members get expanded too, but split search never sees them).
  if (sampled_features.empty()) {
    grow_features_ = all_features_;
    grow_device_features_ = device_features_;
    if (ctx_.bundling != nullptr) {
      grow_bundles_.resize(ctx_.bundling->bundles.size());
      std::iota(grow_bundles_.begin(), grow_bundles_.end(), 0u);
      grow_device_bundles_ = device_bundles_;
    }
  } else {
    grow_features_.assign(sampled_features.begin(), sampled_features.end());
    std::vector<bool> keep(ctx_.bins->n_cols(), false);
    for (std::uint32_t f : sampled_features) keep[f] = true;
    grow_device_features_.assign(device_features_.size(), {});
    for (std::size_t dvc = 0; dvc < device_features_.size(); ++dvc) {
      for (std::uint32_t f : device_features_[dvc]) {
        if (keep[f]) grow_device_features_[dvc].push_back(f);
      }
    }
    if (ctx_.bundling != nullptr) {
      auto bundle_sampled = [&](std::uint32_t bi) {
        for (std::uint32_t f : ctx_.bundling->bundles[bi].features) {
          if (keep[f]) return true;
        }
        return false;
      };
      grow_bundles_.clear();
      for (std::uint32_t bi = 0;
           bi < static_cast<std::uint32_t>(ctx_.bundling->bundles.size()); ++bi) {
        if (bundle_sampled(bi)) grow_bundles_.push_back(bi);
      }
      grow_device_bundles_.assign(device_bundles_.size(), {});
      for (std::size_t dvc = 0; dvc < device_bundles_.size(); ++dvc) {
        for (std::uint32_t bi : device_bundles_[dvc]) {
          if (bundle_sampled(bi)) grow_device_bundles_[dvc].push_back(bi);
        }
      }
    }
  }

  // A mid-grow exception (injected fault that exhausts retries, or a device
  // loss the booster recovers from) must not leak the previous attempt's
  // accumulated leaf charges into this one.
  pending_leaf_stats_ = sim::KernelStats{};
  has_pending_leaf_charges_ = false;
  finalized_leaves_ = 0;

  GrownTree out;
  out.tree = Tree(d);
  out.leaf_of_row.assign(n, -1);
  Tree& tree = out.tree;

  std::vector<std::uint32_t> row_order;
  if (sampled_rows.empty()) {
    row_order.resize(n);
    std::iota(row_order.begin(), row_order.end(), 0u);
  } else {
    row_order.assign(sampled_rows.begin(), sampled_rows.end());
  }
  const std::size_t n_active = row_order.size();

  tree.add_root(static_cast<std::uint32_t>(n_active));

  // Root totals (replicated across devices in feature-parallel mode; each
  // device pays for its own reduction, which is cheaper than a broadcast).
  ActiveNode root;
  root.tree_node = 0;
  root.begin = 0;
  root.end = static_cast<std::uint32_t>(n_active);
  root.totals.assign(static_cast<std::size_t>(d), sim::GradPair{});
  group_.set_phase("histogram");
  for (int i = 0; i < group_.size(); ++i) {
    if (group_.is_lost(i)) continue;  // failover: survivors recompute in full
    reduce_gradients(group_.device(i), g, h, row_order, d, root.totals);
  }

  const bool bundled = ctx_.bundling != nullptr;
  if (bundled) note_alloc_all(ctx_.bundle_layout.byte_size());

  if (cfg.max_depth > 0 &&
      root.count() >= 2 * static_cast<std::uint32_t>(cfg.min_instances_per_node)) {
    if (cfg.growth == GrowthPolicy::kLeafWise) {
      grow_leaf_wise(g, h, row_order, tree, out, std::move(root));
    } else {
      grow_level_wise(g, h, row_order, tree, out, std::move(root));
    }
  } else {
    compute_leaf(tree, root, row_order, out.leaf_of_row);
  }
  group_.set_trace_level(-1);

  flush_leaf_charges();
  if (bundled) note_free_all(ctx_.bundle_layout.byte_size());
  return out;
}

void TreeGrower::grow_level_wise(std::span<const float> g,
                                 std::span<const float> h,
                                 std::vector<std::uint32_t>& row_order,
                                 Tree& tree, GrownTree& out,
                                 ActiveNode&& root) {
  const std::size_t n = ctx_.bins->n_rows();
  const auto& cfg = ctx_.config;

  std::vector<ActiveNode> active;
  active.push_back(std::move(root));

  std::unordered_map<std::int32_t, NodeHistogram> prev_hists, cur_hists;
  NodeHistogram scratch_hist;
  std::size_t prev_bytes = 0;
  const auto release = [&](std::unordered_map<std::int32_t, NodeHistogram>& hists) {
    for (auto& [node, hist] : hists) hist_pool_.push_back(std::move(hist));
    hists.clear();
  };

  for (int level = 0; level < cfg.max_depth && !active.empty(); ++level) {
    sim::TraceSpan level_span(group_, "level " + std::to_string(level));
    group_.set_trace_level(level);
    const std::size_t level_bytes = active.size() * ctx_.layout.byte_size();
    const bool subtract_mode =
        cfg.sibling_subtraction &&
        level_bytes + prev_bytes <= ctx_.hist_pool_budget;

    std::vector<SplitResult> decisions(active.size());

    if (subtract_mode) {
      note_alloc_all(level_bytes);
      group_.set_phase("histogram");

      // Phase 1: classify each node — derived (parent minus smaller
      // sibling) or directly built. Derivation requires the parent's
      // histogram (previous level) *and* an active smaller sibling (a
      // sibling finalized as a leaf has no histogram). A derived node takes
      // its parent's histogram, which phase 3 turns into its own in place.
      // The parent histograms no node takes go back to the pool, and each
      // direct node takes one from it (stale contents: the build writes
      // every slot split search reads). So the host holds one histogram per
      // active node, never two levels' worth.
      for (const auto& a : active) cur_hists.try_emplace(a.tree_node);
      std::vector<std::size_t> direct_nodes, derived_nodes;
      for (std::size_t i = 0; i < active.size(); ++i) {
        const ActiveNode& a = active[i];
        const auto parent = prev_hists.find(a.parent);
        if (!a.is_smaller && parent != prev_hists.end() &&
            cur_hists.count(a.sibling) > 0) {
          cur_hists[a.tree_node] = std::move(parent->second);
          prev_hists.erase(parent);
          derived_nodes.push_back(i);
        } else {
          direct_nodes.push_back(i);
        }
      }
      release(prev_hists);
      for (const std::size_t i : direct_nodes) {
        cur_hists[active[i].tree_node] = take_hist();
      }

      // Phase 2: direct builds. With the CSC view available (and a row
      // partitioning that keeps every row on every device), one sweep over
      // the stored nonzeros covers all direct nodes of the level (§3.2);
      // otherwise each node streams its dense rows.
      const bool use_csc_sweep =
          ctx_.csc != nullptr && cfg.csc_level_sweep && !ctx_.bundling &&
          !row_partitioned_;
      if (use_csc_sweep && !direct_nodes.empty()) {
        std::vector<std::int32_t> node_slot(n, -1);
        std::vector<LevelNodeInput> inputs(direct_nodes.size());
        for (std::size_t s = 0; s < direct_nodes.size(); ++s) {
          const ActiveNode& a = active[direct_nodes[s]];
          for (std::uint32_t i = a.begin; i < a.end; ++i) {
            node_slot[row_order[i]] = static_cast<std::int32_t>(s);
          }
          inputs[s] = {&cur_hists.at(a.tree_node), a.totals, a.count()};
        }
        for (int dev = 0; dev < group_.size(); ++dev) {
          const auto& feats = group_.size() == 1
                                  ? grow_features_
                                  : grow_device_features_[static_cast<std::size_t>(dev)];
          if (feats.empty()) continue;
          build_level_histograms_csc(group_.device(dev), *ctx_.csc, node_slot,
                                     inputs, g, h, ctx_.layout, feats);
        }
      } else {
        for (const std::size_t i : direct_nodes) {
          ActiveNode& a = active[i];
          node_rows_ = std::span<const std::uint32_t>(row_order).subspan(
              a.begin, a.count());
          build_node_histogram(a, cur_hists.at(a.tree_node), g, h);
        }
      }

      // Phase 3: derived nodes by subtraction (their smaller siblings are
      // direct nodes, built above).
      for (const std::size_t i : derived_nodes) {
        ActiveNode& a = active[i];
        subtract_node_histograms(cur_hists.at(a.sibling),
                                 cur_hists.at(a.tree_node));
      }
    } else {
      release(prev_hists);
      for (std::size_t i = 0; i < active.size(); ++i) {
        ActiveNode& a = active[i];
        node_rows_ = std::span<const std::uint32_t>(row_order).subspan(
            a.begin, a.count());
        group_.set_phase("histogram");
        if (scratch_hist.sums.size() != ctx_.layout.size()) {
          scratch_hist = take_hist();
          note_alloc_all(ctx_.layout.byte_size());
        }
        build_node_histogram(a, scratch_hist, g, h);
        // The scratch buffer is reused per node, so selection cannot be
        // deferred — this is the memory-bounded fallback path.
        group_.set_phase("split");
        decisions[i] = select_split(a, scratch_hist);
      }
    }

    if (subtract_mode) {
      // All of the level's histograms are alive: one batched scan + gain +
      // segmented-reduction kernel set selects every node's split (§3.1.3).
      group_.set_phase("split");
      std::vector<NodeSplitInput> inputs(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        inputs[i] = {&cur_hists.at(active[i].tree_node), active[i].totals,
                     active[i].count()};
      }
      decisions = select_splits(inputs);
    }

    if (cfg.max_leaves > 0) {
      // Leaf budget: splitting S of the A active nodes yields
      // finalized + (A − S) + 2·S leaves if growth stopped here, so at most
      // S = max_leaves − finalized − A splits may proceed; keep the top ones
      // by (gain desc, node id asc). The histograms built for trimmed nodes
      // are wasted work — exactly the level-wise overhead the leaf-wise
      // policy avoids at an equal leaf budget.
      const auto cap = static_cast<std::size_t>(cfg.max_leaves);
      const std::size_t committed = finalized_leaves_ + active.size();
      const std::size_t allowed = cap > committed ? cap - committed : 0;
      std::vector<std::size_t> valid;
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (decisions[i].valid()) valid.push_back(i);
      }
      if (valid.size() > allowed) {
        std::sort(valid.begin(), valid.end(),
                  [&](std::size_t x, std::size_t y) {
                    if (decisions[x].gain != decisions[y].gain) {
                      return decisions[x].gain > decisions[y].gain;
                    }
                    return active[x].tree_node < active[y].tree_node;
                  });
        for (std::size_t i = allowed; i < valid.size(); ++i) {
          decisions[valid[i]] = SplitResult{};
        }
      }
    }

    // The device frees the previous level only now; the host's copies went
    // back to the pool (or became this level's derived histograms) before
    // the builds.
    note_free_all(prev_bytes);
    prev_bytes = 0;
    if (subtract_mode) {
      prev_hists.swap(cur_hists);
      prev_bytes = level_bytes;
    }

    // Apply splits: partition rows, create children, route them. The
    // partition kernel covers the whole level in one launch, charged once.
    std::uint64_t level_partition_rows = 0;
    std::vector<ActiveNode> next;
    for (std::size_t i = 0; i < active.size(); ++i) {
      ActiveNode& a = active[i];
      const SplitResult& s = decisions[i];
      if (!s.valid()) {
        compute_leaf(tree, a, row_order, out.leaf_of_row);
        continue;
      }
      const std::uint32_t mid = partition_rows(a, s, row_order);
      level_partition_rows += a.count();
      auto [small_child, large_child] =
          split_children(tree, a, s, mid, level + 1, g, h, row_order);
      auto route = [&](ActiveNode&& c) {
        if (level + 1 < cfg.max_depth &&
            c.count() >= 2 * static_cast<std::uint32_t>(cfg.min_instances_per_node)) {
          next.push_back(std::move(c));
        } else {
          compute_leaf(tree, c, row_order, out.leaf_of_row);
        }
      };
      route(std::move(small_child));  // smaller first: enables subtraction
      route(std::move(large_child));
    }
    if (level_partition_rows > 0) charge_partition(level_partition_rows);
    active = std::move(next);
  }

  // Defensive: every remaining active node becomes a leaf (cannot normally
  // happen — routing above finalizes depth-limited children).
  for (auto& a : active) compute_leaf(tree, a, row_order, out.leaf_of_row);

  note_free_all(prev_bytes);
  release(prev_hists);
  if (scratch_hist.sums.size() == ctx_.layout.size()) {
    note_free_all(ctx_.layout.byte_size());
    hist_pool_.push_back(std::move(scratch_hist));
  }
}

void TreeGrower::grow_leaf_wise(std::span<const float> g,
                                std::span<const float> h,
                                std::vector<std::uint32_t>& row_order,
                                Tree& tree, GrownTree& out, ActiveNode&& root) {
  const auto& cfg = ctx_.config;
  const std::size_t hist_bytes = ctx_.layout.byte_size();

  // Frontier histograms count against the pool budget; when it is exhausted
  // the two reusable scratch buffers take over (children lose sibling
  // subtraction for the nodes whose parents could not be kept — leaf-wise's
  // face of the level-wise one-node-at-a-time fallback).
  std::size_t live_hist_bytes = 0;
  NodeHistogram scratch_a, scratch_b;

  auto acquire_hist = [&]() -> std::unique_ptr<NodeHistogram> {
    if (!cfg.sibling_subtraction ||
        live_hist_bytes + hist_bytes > ctx_.hist_pool_budget) {
      return nullptr;
    }
    auto hp = std::make_unique<NodeHistogram>(take_hist());
    note_alloc_all(hist_bytes);
    live_hist_bytes += hist_bytes;
    return hp;
  };
  auto get_scratch = [&](NodeHistogram& s) -> NodeHistogram& {
    if (s.sums.size() != ctx_.layout.size()) {
      s = take_hist();
      note_alloc_all(hist_bytes);
    }
    return s;
  };
  auto drop_hist = [&](LeafCandidate& c) {
    if (c.hist) {
      hist_pool_.push_back(std::move(*c.hist));
      c.hist.reset();
      note_free_all(hist_bytes);
      live_hist_bytes -= hist_bytes;
    }
  };
  auto build_into = [&](const ActiveNode& node, NodeHistogram& hist) {
    node_rows_ = std::span<const std::uint32_t>(row_order).subspan(
        node.begin, node.count());
    group_.set_phase("histogram");
    build_node_histogram(node, hist, g, h);
  };

  std::vector<LeafCandidate> frontier;
  std::size_t n_leaves = 1;  // the root counts until it splits

  {
    LeafCandidate c;
    c.node = std::move(root);
    c.depth = 0;
    auto hp = acquire_hist();
    NodeHistogram& hist = hp ? *hp : get_scratch(scratch_a);
    build_into(c.node, hist);
    group_.set_phase("split");
    c.split = select_split(c.node, hist);
    c.hist = std::move(hp);
    if (c.split.valid()) {
      frontier.push_back(std::move(c));
    } else {
      drop_hist(c);
      compute_leaf(tree, c.node, row_order, out.leaf_of_row);
    }
  }

  while (!frontier.empty() &&
         (cfg.max_leaves == 0 ||
          n_leaves < static_cast<std::size_t>(cfg.max_leaves))) {
    // Pop the best candidate: max gain, ties to the lowest tree node id —
    // a deterministic total order, so the grown tree is identical at any
    // --sim-threads and independent of frontier insertion history.
    std::size_t best = 0;
    for (std::size_t i = 1; i < frontier.size(); ++i) {
      const auto& fi = frontier[i];
      const auto& fb = frontier[best];
      if (fi.split.gain > fb.split.gain ||
          (fi.split.gain == fb.split.gain &&
           fi.node.tree_node < fb.node.tree_node)) {
        best = i;
      }
    }
    LeafCandidate cand = std::move(frontier[best]);
    frontier.erase(frontier.begin() +
                   static_cast<std::ptrdiff_t>(best));

    ActiveNode& a = cand.node;
    const SplitResult& s = cand.split;
    sim::TraceSpan split_span(group_, "leaf-split node " +
                                          std::to_string(a.tree_node));
    group_.set_trace_level(cand.depth);

    const std::uint32_t mid = partition_rows(a, s, row_order);
    charge_partition(a.count());
    const int cdepth = cand.depth + 1;
    auto [small_child, large_child] =
        split_children(tree, a, s, mid, cdepth, g, h, row_order);
    ++n_leaves;

    auto eligible = [&](const ActiveNode& c) {
      return cdepth < cfg.max_depth &&
             c.count() >=
                 2 * static_cast<std::uint32_t>(cfg.min_instances_per_node);
    };
    const bool small_elig = eligible(small_child);
    const bool large_elig = eligible(large_child);

    LeafCandidate sc, lc;
    sc.node = std::move(small_child);
    sc.depth = cdepth;
    lc.node = std::move(large_child);
    lc.depth = cdepth;

    std::unique_ptr<NodeHistogram> small_hp, large_hp;
    NodeHistogram* small_hist = nullptr;
    NodeHistogram* large_hist = nullptr;

    if (small_elig) {
      small_hp = acquire_hist();
      small_hist = small_hp ? small_hp.get() : &get_scratch(scratch_a);
      build_into(sc.node, *small_hist);
    } else if (large_elig && cand.hist) {
      // The smaller child's histogram is still worth building (into scratch:
      // no candidate will keep it) — building the smaller side plus one
      // subtraction beats streaming the larger side's rows.
      small_hist = &get_scratch(scratch_a);
      build_into(sc.node, *small_hist);
    }
    if (large_elig) {
      large_hp = acquire_hist();
      large_hist = large_hp ? large_hp.get() : &get_scratch(scratch_b);
      if (cand.hist && small_hist) {
        // In place: the larger child takes the parent's buffer, and the
        // parent leaves with the one just acquired, which drop_hist below
        // returns to the pool.
        std::swap(*large_hist, *cand.hist);
        subtract_node_histograms(*small_hist, *large_hist);
      } else {
        build_into(lc.node, *large_hist);
      }
    }

    // One batched scan/gain/reduction kernel set covers both children.
    if (small_elig || large_elig) {
      group_.set_phase("split");
      std::vector<NodeSplitInput> inputs;
      std::vector<LeafCandidate*> cands;
      if (small_elig) {
        inputs.push_back({small_hist, sc.node.totals, sc.node.count()});
        cands.push_back(&sc);
      }
      if (large_elig) {
        inputs.push_back({large_hist, lc.node.totals, lc.node.count()});
        cands.push_back(&lc);
      }
      const auto results = select_splits(inputs);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        cands[i]->split = results[i];
      }
    }

    drop_hist(cand);  // the parent's histogram has served its subtraction

    sc.hist = std::move(small_hp);
    lc.hist = std::move(large_hp);
    auto route_child = [&](LeafCandidate&& c) {
      if (c.split.valid()) {
        frontier.push_back(std::move(c));
      } else {
        drop_hist(c);
        compute_leaf(tree, c.node, row_order, out.leaf_of_row);
      }
    };
    route_child(std::move(sc));
    route_child(std::move(lc));
  }

  // Leaf budget reached (or no splittable leaves left): finalize the rest.
  for (auto& c : frontier) {
    drop_hist(c);
    compute_leaf(tree, c.node, row_order, out.leaf_of_row);
  }

  for (NodeHistogram* scratch : {&scratch_a, &scratch_b}) {
    if (scratch->sums.size() == ctx_.layout.size()) {
      note_free_all(hist_bytes);
      hist_pool_.push_back(std::move(*scratch));
    }
  }
}

}  // namespace gbmo::core
