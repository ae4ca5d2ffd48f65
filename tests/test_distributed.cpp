// Multi-node topology suite (DESIGN.md §13): hierarchical DeviceGroup
// helpers, the three distribution strategies (feature / data / voting
// parallel), and the collectives-layer determinism and fault edges.
//
// The load-bearing property: every strategy trains the bitwise-identical
// model to a single device at every topology and --sim-threads value —
// including under whole-node loss mid-round. Only modeled time and link
// traffic may differ.
//
// Naming doubles as ctest routing (tests/CMakeLists.txt): DistributedFast.*
// runs in the default suite, DistributedSlow.* carries the full
// thread x topology sweep, DistributedChaos.* the fault edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "obs/profiler.h"
#include "sim/collectives.h"
#include "sim/faults.h"
#include "sim/scheduler.h"

namespace gbmo {
namespace {

struct ScopedThreads {
  explicit ScopedThreads(int n) : prev_(sim::sim_threads()) {
    sim::set_sim_threads(n);
  }
  ~ScopedThreads() { sim::set_sim_threads(prev_); }
  int prev_;
};

struct ScopedFaults {
  explicit ScopedFaults(const std::string& spec) { sim::set_sim_faults(spec); }
  ~ScopedFaults() { sim::reset_sim_faults(); }
};

data::Dataset make_data(std::uint64_t seed = 7, std::size_t n_features = 12) {
  data::MulticlassSpec spec;
  spec.n_instances = 300;
  spec.n_features = n_features;
  spec.n_classes = 4;
  spec.cluster_sep = 1.6;
  spec.seed = seed;
  return data::make_multiclass(spec);
}

core::TrainConfig cfg_base() {
  core::TrainConfig cfg;
  cfg.n_trees = 8;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.5f;
  cfg.min_instances_per_node = 8;
  cfg.max_bins = 32;
  return cfg;
}

core::TrainConfig cfg_topo(core::MultiGpuMode mode, int nodes, int gpus) {
  auto cfg = cfg_base();
  cfg.multi_gpu = mode;
  cfg.n_devices = nodes * gpus;
  cfg.n_nodes = nodes;
  return cfg;
}

// Exact structural equality: same splits, same thresholds, same leaf floats.
void expect_models_identical(const core::Model& a, const core::Model& b) {
  ASSERT_EQ(a.trees.size(), b.trees.size());
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    ASSERT_EQ(a.trees[t].n_nodes(), b.trees[t].n_nodes()) << "tree " << t;
    for (std::size_t n = 0; n < a.trees[t].n_nodes(); ++n) {
      const auto& na = a.trees[t].node(n);
      const auto& nb = b.trees[t].node(n);
      EXPECT_EQ(na.feature, nb.feature) << "tree " << t << " node " << n;
      EXPECT_EQ(na.split_bin, nb.split_bin) << "tree " << t << " node " << n;
      EXPECT_EQ(na.threshold, nb.threshold) << "tree " << t << " node " << n;
    }
    const auto va = a.trees[t].all_leaf_values();
    const auto vb = b.trees[t].all_leaf_values();
    ASSERT_EQ(va.size(), vb.size()) << "tree " << t;
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)), 0)
        << "tree " << t;
  }
}

void expect_predictions_identical(const core::Model& a, const core::Model& b,
                                  const data::Dataset& d) {
  const auto pa = a.predict(d.x);
  const auto pb = b.predict(d.x);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0);
}

sim::DeviceGroup make_group_2x2() {
  return sim::DeviceGroup(sim::DeviceSpec::rtx4090(), sim::Topology{2, 2},
                          sim::LinkSpec::pcie4(), sim::LinkSpec{25e9 / 8.0, 25e-6});
}

// Sparse replica (90% exact zeros) on which EFB finds mergeable features.
data::Dataset make_sparse_data() {
  data::MulticlassSpec spec;
  spec.n_instances = 400;
  spec.n_features = 16;
  spec.n_classes = 4;
  spec.sparsity = 0.9;
  spec.seed = 13;
  return data::make_multiclass(spec);
}

core::TrainConfig cfg_pinned(core::GrowthPolicy growth, bool efb) {
  auto cfg = cfg_base();
  cfg.growth = growth;
  if (growth == core::GrowthPolicy::kLeafWise) cfg.max_leaves = 10;
  cfg.efb = efb;
  return cfg;
}

// One 2x2 run's modeled charges, pinned exactly. The grower computes the
// model once in single-device order and charges each distribution mode's
// partial builds, exchanges and broadcasts to the cost model; these values
// fix that accounting per mode, growth policy and EFB setting.
struct PinnedCharges {
  core::MultiGpuMode mode;
  core::GrowthPolicy growth;
  bool efb;
  double modeled_seconds;
  std::uint64_t intra_bytes;
  std::uint64_t inter_bytes;
  std::uint64_t vote_rounds;
  std::uint64_t vote_misses;
  std::uint64_t events;
  // Per device: modeled_seconds is only their maximum, so a charge moved
  // onto a less busy device would not show there.
  double device_seconds[4];
};

// Trains every pinned case on a 2x2 topology under `faults`: each model must
// be bitwise-identical to one device with the same growth and EFB setting,
// EFB runs must expand bundled histograms, and every charge must match.
void expect_pinned_charges(std::span<const PinnedCharges> pins,
                           const std::string& faults) {
  const auto d = make_sparse_data();
  for (const auto& pin : pins) {
    SCOPED_TRACE(std::string(multi_gpu_mode_name(pin.mode)) + " " +
                 growth_policy_name(pin.growth) + (pin.efb ? " efb" : "") +
                 (faults.empty() ? "" : " " + faults));
    core::GbmoBooster single(cfg_pinned(pin.growth, pin.efb));
    const auto ref = single.fit(d);

    auto cfg = cfg_pinned(pin.growth, pin.efb);
    cfg.multi_gpu = pin.mode;
    cfg.n_devices = 4;
    cfg.n_nodes = 2;
    cfg.faults = faults;
    obs::Profiler prof(/*capture_trace=*/false);
    core::GbmoBooster dist(cfg);
    dist.set_sink(&prof);
    const auto got = dist.fit(d);
    expect_models_identical(ref, got);
    EXPECT_EQ(prof.kernels().count("efb_expand"), pin.efb ? 1u : 0u);

    const auto& r = dist.report();
    EXPECT_EQ(r.modeled_seconds, pin.modeled_seconds);
    EXPECT_EQ(r.comm_intra_bytes, pin.intra_bytes);
    EXPECT_EQ(r.comm_inter_bytes, pin.inter_bytes);
    EXPECT_EQ(r.vote_rounds, pin.vote_rounds);
    EXPECT_EQ(r.vote_misses, pin.vote_misses);
    EXPECT_EQ(prof.total_events(), pin.events);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(prof.device_seconds(i), pin.device_seconds[i]) << "device " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// DistributedFast: topology helpers, per-mode bitwise identity, tie-breaks,
// traffic accounting, pinned charges.

TEST(DistributedFast, TopologyHelpersAndLeaderElection) {
  auto group = make_group_2x2();
  EXPECT_EQ(group.size(), 4);
  EXPECT_EQ(group.topology().nodes, 2);
  EXPECT_EQ(group.topology().gpus_per_node, 2);
  EXPECT_EQ(group.node_of(0), 0);
  EXPECT_EQ(group.node_of(1), 0);
  EXPECT_EQ(group.node_of(2), 1);
  EXPECT_EQ(group.node_of(3), 1);
  EXPECT_EQ(group.n_alive_nodes(), 2);

  // Losing one device leaves its node alive.
  group.mark_lost(0);
  EXPECT_EQ(group.n_alive_in_node(0), 1);
  EXPECT_EQ(group.n_alive_nodes(), 2);

  // Whole-node failure: the node drops out of the ring.
  group.kill_node(0);
  EXPECT_TRUE(group.is_lost(1));
  EXPECT_EQ(group.n_alive_in_node(0), 0);
  EXPECT_EQ(group.n_alive_nodes(), 1);
  EXPECT_EQ(group.first_alive(), 2);
}

TEST(DistributedFast, FlatCtorIsSingleNodeTopology) {
  sim::DeviceGroup group(sim::DeviceSpec::rtx4090(), 4);
  EXPECT_EQ(group.topology().nodes, 1);
  EXPECT_EQ(group.topology().gpus_per_node, 4);
  EXPECT_EQ(group.node_of(3), 0);
}

TEST(DistributedFast, DataParallelBitwiseMatchesSingleDevice) {
  const auto d = make_data();
  core::GbmoBooster single(cfg_base());
  const auto ref = single.fit(d);

  core::GbmoBooster dist(cfg_topo(core::MultiGpuMode::kDataParallel, 2, 2));
  const auto got = dist.fit(d);
  expect_models_identical(ref, got);
  expect_predictions_identical(ref, got, d);
}

TEST(DistributedFast, VotingParallelBitwiseMatchesSingleDevice) {
  const auto d = make_data();
  core::GbmoBooster single(cfg_base());
  const auto ref = single.fit(d);

  auto cfg = cfg_topo(core::MultiGpuMode::kVotingParallel, 2, 2);
  cfg.voting_k = 2;
  core::GbmoBooster dist(cfg);
  const auto got = dist.fit(d);
  expect_models_identical(ref, got);
  expect_predictions_identical(ref, got, d);
  EXPECT_GT(dist.report().vote_rounds, 0u);
}

TEST(DistributedFast, InterNodeTrafficOnlyWithMultipleNodes) {
  const auto d = make_data();

  // Flat 4-GPU data-parallel: everything rides the intra-node link.
  core::GbmoBooster flat(cfg_topo(core::MultiGpuMode::kDataParallel, 1, 4));
  (void)flat.fit(d);
  EXPECT_GT(flat.report().comm_intra_bytes, 0u);
  EXPECT_EQ(flat.report().comm_inter_bytes, 0u);

  // 2x2: the histogram exchange crosses the network.
  core::GbmoBooster hier(cfg_topo(core::MultiGpuMode::kDataParallel, 2, 2));
  (void)hier.fit(d);
  EXPECT_GT(hier.report().comm_intra_bytes, 0u);
  EXPECT_GT(hier.report().comm_inter_bytes, 0u);
}

TEST(DistributedFast, VotingMovesFewerInterBytesThanData) {
  // Wide enough that the elected set (2 * voting_k columns) is a strict
  // subset of the feature space — the voting-parallel selling point.
  const auto d = make_data(/*seed=*/7, /*n_features=*/24);

  auto data_cfg = cfg_topo(core::MultiGpuMode::kDataParallel, 2, 2);
  core::GbmoBooster data_b(data_cfg);
  const auto data_model = data_b.fit(d);

  auto vote_cfg = cfg_topo(core::MultiGpuMode::kVotingParallel, 2, 2);
  vote_cfg.voting_k = 2;
  core::GbmoBooster vote_b(vote_cfg);
  const auto vote_model = vote_b.fit(d);

  // Equal model quality — in fact the identical model — at strictly less
  // inter-node traffic.
  expect_models_identical(data_model, vote_model);
  EXPECT_LT(vote_b.report().comm_inter_bytes, data_b.report().comm_inter_bytes);
  EXPECT_GT(vote_b.report().comm_inter_bytes, 0u);
}

TEST(DistributedFast, GainTieAcrossDevicesMatchesSingleDeviceElection) {
  // Duplicated feature columns land on different devices under the
  // contiguous feature partition, so every split gain at feature j + 3 is an
  // exact float tie with feature j. The documented tie-break (lowest feature
  // id) must make the distributed election agree with the single-device
  // ascending scan — bitwise.
  const auto base = make_data(/*seed=*/11, /*n_features=*/3);
  data::DenseMatrix x(base.x.n_rows(), 6);
  for (std::size_t r = 0; r < base.x.n_rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      x.at(r, c) = base.x.at(r, c);
      x.at(r, c + 3) = base.x.at(r, c);
    }
  }
  data::Dataset d{"tie", std::move(x), base.y};

  auto cfg = cfg_base();
  cfg.n_trees = 4;
  core::GbmoBooster single(cfg);
  const auto ref = single.fit(d);

  for (const auto mode :
       {core::MultiGpuMode::kFeatureParallel, core::MultiGpuMode::kDataParallel,
        core::MultiGpuMode::kVotingParallel}) {
    auto dist_cfg = cfg;
    dist_cfg.n_devices = 2;
    dist_cfg.multi_gpu = mode;
    core::GbmoBooster dist(dist_cfg);
    const auto got = dist.fit(d);
    expect_models_identical(ref, got);
  }
}

TEST(DistributedFast, PinnedChargesPerModeGrowthAndEfb) {
  using core::GrowthPolicy;
  using core::MultiGpuMode;
  static constexpr PinnedCharges kPins[] = {
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLevelWise, false,
       0x1.0d52c27f16fefp-8, 6852, 3426, 0, 0, 1400,
       {0x1.0d52c27f16fefp-8, 0x1.c3fef30e6948fp-9,
        0x1.bfa9d864561d8p-9, 0x1.bef0fefcd7922p-9}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLevelWise, true,
       0x1.2f0ce721cd54ep-8, 6852, 3426, 0, 0, 1548,
       {0x1.2f0ce721cd54ep-8, 0x1.fdc6d1e69a0d1p-9,
        0x1.fa18bf9c0fdeap-9, 0x1.e872cdac0304ep-9}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLeafWise, false,
       0x1.2e46878e84396p-8, 6858, 3429, 0, 0, 1619,
       {0x1.2e46878e84396p-8, 0x1.0298fd1b3cf97p-8,
        0x1.fc4bf8283c9f6p-9, 0x1.fcb9c19ae5ef7p-9}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLeafWise, true,
       0x1.457d0d66f5b74p-8, 6858, 3429, 0, 0, 1767,
       {0x1.457d0d66f5b74p-8, 0x1.1415d597de6aap-8,
        0x1.12d463828b39ep-8, 0x1.097a9c5bd6fep-8}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLevelWise, false,
       0x1.c5a0c461a8839p-8, 2575440, 1287720, 0, 0, 1679,
       {0x1.c5a0c461a8839p-8, 0x1.822c1256223f9p-8,
        0x1.8249bf852156ep-8, 0x1.828c0252ac372p-8}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLevelWise, true,
       0x1.d4ff26e8382aep-8, 2575440, 1287720, 0, 0, 1827,
       {0x1.d4ff26e8382aep-8, 0x1.918507b72a343p-8,
        0x1.91ae36e2814efp-8, 0x1.91e7b45d1dff5p-8}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLeafWise, false,
       0x1.ce7ad83779b6bp-8, 2575440, 1287720, 0, 0, 1741,
       {0x1.ce7ad83779b6bp-8, 0x1.83468fb05466bp-8,
        0x1.836ed65656c74p-8, 0x1.8382bd425edd7p-8}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLeafWise, true,
       0x1.db7fc4b31dc83p-8, 2575440, 1287720, 0, 0, 1889,
       {0x1.db7fc4b31dc83p-8, 0x1.9040ab10fab16p-8,
        0x1.9083ae9a44597p-8, 0x1.9088a7faa7e26p-8}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLevelWise, false,
       0x1.3914cf075e344p-8, 2575440, 534016, 35, 17, 1399,
       {0x1.3914cf075e344p-8, 0x1.eb4039f7afe03p-9,
        0x1.eb7b9455ae0e6p-9, 0x1.ec0019f0c3cf7p-9}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLevelWise, true,
       0x1.4873318deddbbp-8, 2575440, 534016, 35, 17, 1547,
       {0x1.4873318deddbbp-8, 0x1.04f9125cdfe4bp-8,
        0x1.0522418836ff5p-8, 0x1.055bbf02d3affp-8}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLeafWise, false,
       0x1.3ed73ce17a558p-8, 2575440, 239104, 35, 12, 1461,
       {0x1.3ed73ce17a558p-8, 0x1.e745e8b4aa0a2p-9,
        0x1.e7967600aecacp-9, 0x1.e7be43d8bef75p-9}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLeafWise, true,
       0x1.4bdc295d1e66fp-8, 2575440, 239104, 35, 12, 1609,
       {0x1.4bdc295d1e66fp-8, 0x1.009d0fbafb4ffp-8,
        0x1.00e0134444f7bp-8, 0x1.00e50ca4a8809p-8}},
  };
  expect_pinned_charges(kPins, "");
}

// ---------------------------------------------------------------------------
// DistributedSlow: the full thread x topology x mode sweep.

TEST(DistributedSlow, ThreadTopologySweepBitwise) {
  const auto d = make_data();
  core::GbmoBooster single(cfg_base());
  const auto ref = single.fit(d);

  struct Topo {
    int nodes;
    int gpus;
  };
  const Topo topos[] = {{1, 1}, {1, 4}, {2, 2}, {4, 2}};
  const core::MultiGpuMode modes[] = {core::MultiGpuMode::kFeatureParallel,
                                      core::MultiGpuMode::kDataParallel,
                                      core::MultiGpuMode::kVotingParallel};
  for (const auto mode : modes) {
    for (const auto& topo : topos) {
      // Per (mode, topology): model bitwise-equal to the 1-device reference,
      // and modeled seconds + profiler totals identical across scheduler
      // thread counts (the substrate's determinism guarantee).
      double seconds = -1.0;
      double prof_seconds = -1.0;
      std::uint64_t prof_events = 0;
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("mode=" + std::string(multi_gpu_mode_name(mode)) +
                     " nodes=" + std::to_string(topo.nodes) +
                     " gpus=" + std::to_string(topo.gpus) +
                     " threads=" + std::to_string(threads));
        ScopedThreads st(threads);
        obs::Profiler prof(/*capture_trace=*/false);
        core::GbmoBooster b(cfg_topo(mode, topo.nodes, topo.gpus));
        b.set_sink(&prof);
        const auto got = b.fit(d);
        expect_models_identical(ref, got);
        if (seconds < 0.0) {
          seconds = b.report().modeled_seconds;
          prof_seconds = prof.total_seconds();
          prof_events = prof.total_events();
        } else {
          EXPECT_DOUBLE_EQ(b.report().modeled_seconds, seconds);
          EXPECT_DOUBLE_EQ(prof.total_seconds(), prof_seconds);
          EXPECT_EQ(prof.total_events(), prof_events);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DistributedChaos: node-kill failover, all-devices-lost edges, leader loss.

TEST(DistributedChaos, NodeKillFailoverBitwise) {
  const auto d = make_data();
  core::GbmoBooster single(cfg_base());
  const auto ref = single.fit(d);

  for (const auto mode : {core::MultiGpuMode::kDataParallel,
                          core::MultiGpuMode::kVotingParallel,
                          core::MultiGpuMode::kFeatureParallel}) {
    SCOPED_TRACE(multi_gpu_mode_name(mode));
    auto cfg = cfg_topo(mode, 2, 2);
    cfg.faults = "kill-node=2@25";  // device 2 drags down all of node 1
    core::GbmoBooster failover(cfg);
    const auto got = failover.fit(d);
    expect_models_identical(ref, got);
    expect_predictions_identical(ref, got, d);
    EXPECT_EQ(failover.report().devices_lost, 2);
  }

  // The same loss on the sparse replica, per mode x growth x EFB, with every
  // charge of the failover run pinned.
  using core::GrowthPolicy;
  using core::MultiGpuMode;
  static constexpr PinnedCharges kPins[] = {
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLevelWise, false,
       0x1.8589e7e162f54p-9, 4213, 787, 0, 0, 798,
       {0x1.8589e7e162f54p-9, 0x1.26d7a6c446098p-9,
        0x1.ecb89c8019327p-11, 0x1.eb35ea46c1fd9p-11}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLevelWise, true,
       0x1.c18cf67a9c9bap-9, 4213, 787, 0, 0, 892,
       {0x1.c18cf67a9c9bap-9, 0x1.621708d22b534p-9,
        0x1.1690b421c065fp-10, 0x1.0e7002e279f11p-10}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLeafWise, false,
       0x1.a1b6c57381d8cp-9, 4216, 787, 0, 0, 905,
       {0x1.a1b6c57381d8cp-9, 0x1.3e7619ef2cb13p-9,
        0x1.0383c6ff15761p-10, 0x1.03a19138df897p-10}},
      {MultiGpuMode::kFeatureParallel, GrowthPolicy::kLeafWise, true,
       0x1.c850dc92f9938p-9, 4216, 787, 0, 0, 999,
       {0x1.c850dc92f9938p-9, 0x1.67c1202fb3ce2p-9,
        0x1.184d57667ce3p-10, 0x1.0fa7a28fc95c3p-10}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLevelWise, false,
       0x1.1b3b6090befep-8, 1655640, 331128, 0, 0, 1030,
       {0x1.1b3b6090befep-8, 0x1.aca52aa76ccd6p-9,
        0x1.acc1bd0d28588p-10, 0x1.ac332ba57dae2p-10}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLevelWise, true,
       0x1.2e8dab4d32bb6p-8, 1655640, 331128, 0, 0, 1130,
       {0x1.2e8dab4d32bb6p-8, 0x1.d381702d43ec9p-9,
        0x1.bf692a9794914p-10, 0x1.bea4e7a7d7dd8p-10}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLeafWise, false,
       0x1.2271f078801dap-8, 1655640, 331128, 0, 0, 1074,
       {0x1.2271f078801dap-8, 0x1.abd56fd86b2c8p-9,
        0x1.a96c6a49d72cbp-10, 0x1.a89caa526d46ep-10}},
      {MultiGpuMode::kDataParallel, GrowthPolicy::kLeafWise, true,
       0x1.31c976254c23dp-8, 1655640, 331128, 0, 0, 1174,
       {0x1.31c976254c23dp-8, 0x1.cac50d705e8e7p-9,
        0x1.b8e8352467204p-10, 0x1.b807e0fe2e21fp-10}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLevelWise, false,
       0x1.d4c73ccfa03dep-9, 1655640, 195840, 36, 11, 906,
       {0x1.d4c73ccfa03dep-9, 0x1.4af5a6558f0fap-9,
        0x1.1ea626f3bcc8p-10, 0x1.1e17958c121dbp-10}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLevelWise, true,
       0x1.fb6bd24887b84p-9, 1655640, 195840, 36, 11, 1006,
       {0x1.fb6bd24887b84p-9, 0x1.71d1ebdb662e4p-9,
        0x1.314d947e2900ap-10, 0x1.3089518e6c4cfp-10}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLeafWise, false,
       0x1.e0eefeba4983ep-9, 1655640, 87552, 36, 9, 950,
       {0x1.e0eefeba4983ep-9, 0x1.47e08da1b4759p-9,
        0x1.16c61866b9a99p-10, 0x1.15f6586f4fc3fp-10}},
      {MultiGpuMode::kVotingParallel, GrowthPolicy::kLeafWise, true,
       0x1.ff9e0a13e1907p-9, 1655640, 87552, 36, 9, 1050,
       {0x1.ff9e0a13e1907p-9, 0x1.66d02b39a7d6fp-9,
        0x1.2641e341499dp-10, 0x1.25618f1b109ecp-10}},
  };
  expect_pinned_charges(kPins, "kill-node=2@25");
}

TEST(DistributedChaos, NodeKillWithNoSurvivorsAborts) {
  const auto d = make_data();
  auto cfg = cfg_topo(core::MultiGpuMode::kDataParallel, 1, 2);
  cfg.faults = "kill-node=0@5";  // the only node: nobody left to fail over to
  core::GbmoBooster booster(cfg);
  EXPECT_THROW(booster.fit(d), Error);
}

TEST(DistributedChaos, EveryCollectiveSurfacesAllDevicesLost) {
  auto group = make_group_2x2();
  group.kill_node(0);
  group.kill_node(1);

  EXPECT_THROW(group.charge_broadcast(1024), sim::AllDevicesLost);
  EXPECT_THROW(group.charge_all_reduce("test_reduce", 1024, 1024),
               sim::AllDevicesLost);
  try {
    group.charge_all_reduce("test_hier", 1024, 128);
    FAIL() << "expected AllDevicesLost";
  } catch (const sim::AllDevicesLost& e) {
    EXPECT_EQ(e.collective(), "test_hier");
  }
}

TEST(DistributedChaos, LeaderLossMidRunIsDeterministic) {
  // Two identically-built groups, same leader loss, same exchange: the
  // modeled clock must agree bitwise (each collective recounts the live
  // devices per node from scratch; nothing is cached).
  auto run = [](sim::DeviceGroup& group) {
    group.mark_lost(0);  // node 0's leader
    group.charge_all_reduce("ring_all_reduce", 3 * sizeof(float),
                            3 * sizeof(float));
    return group.max_modeled_seconds();
  };

  auto g1 = make_group_2x2();
  auto g2 = make_group_2x2();
  const double secs1 = run(g1);
  const double secs2 = run(g2);
  EXPECT_GT(secs1, 0.0);
  EXPECT_DOUBLE_EQ(secs1, secs2);
}

}  // namespace
}  // namespace gbmo
