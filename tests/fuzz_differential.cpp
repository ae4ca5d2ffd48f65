// Differential fuzz harness across every registered training system.
//
// Each iteration draws a seeded random dataset and configuration (rows,
// features, outputs, bin budget, depth, tree count, bin packing, histogram
// strategy, CSC level sweep, sparsity handling, device count) and trains
// every make_system() registry entry with the substrate's race & memory
// checker armed in hard-fail mode. Per system and iteration it asserts:
//
//   1. zero checker violations, with identical (clean) checker output at 1
//      and 4 scheduler threads;
//   2. bit-identical predictions between 1 and 4 scheduler threads (the
//      substrate's determinism guarantee, under arbitrary configurations);
//   3. finite predictions of the training dimensionality;
//   4. for the GBDT-MO family (gbmo-gpu, gbmo-data, gbmo-voting, cpu-mo,
//      cpu-mo-sparse) — the systems that share the multi-output tree
//      algorithm — epsilon
//      agreement with the scalar CPU reference (cpu-mo, dense, global
//      histograms). The single-output and sketching baselines run different
//      algorithms, so for them raw-score agreement is not a property;
//      invariants 1-3 still apply.
//
// Iteration budget: GBMO_FUZZ_ITERS (default 50). Exit code 0 iff every
// iteration passed; failures are logged and counted, not fatal, so one bad
// seed reports all its findings.
//
// Chaos mode: GBMO_FUZZ_FAULT_RATE=R (R in (0,1]) arms the deterministic
// fault injector (sim/faults.h) with a transient rate of R for the whole
// run. Every launch redraws its transient faults at entry, before any block
// runs, so all the invariants above — clean checker, 1-vs-4 thread bitwise
// equality, reference agreement — must hold unchanged while faults fire and
// are retried.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/system.h"
#include "core/config.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "sim/checker.h"
#include "sim/faults.h"
#include "sim/scheduler.h"

namespace {

int g_failures = 0;

#define FUZZ_EXPECT(cond, msg)                                   \
  do {                                                           \
    if (!(cond)) {                                               \
      ++g_failures;                                              \
      std::cerr << "FAIL " << (msg) << " [" #cond "]\n";         \
    }                                                            \
  } while (0)

// Fraction of feature cells replaced with NaN before training/prediction
// (missing values go through quantization as bin 0 and through raw
// traversal via default-left — the same rows either way). Override with
// GBMO_FUZZ_NAN_FRAC; 0 disables injection.
double nan_frac() {
  static const double frac = [] {
    if (const char* env = std::getenv("GBMO_FUZZ_NAN_FRAC")) {
      return std::atof(env);
    }
    return 0.05;
  }();
  return frac;
}

// Workloads mode: GBMO_FUZZ_WORKLOADS=1 forces every iteration to draw
// categorical columns and alternates multiclass/ranking objectives — the
// dedicated "workloads" ctest stage runs a short budget this way so both
// new workloads get differential coverage every time.
bool workloads_only() {
  static const bool on = std::getenv("GBMO_FUZZ_WORKLOADS") != nullptr;
  return on;
}

struct DrawnCase {
  gbmo::data::MulticlassSpec data;
  gbmo::data::RankingSpec rank;
  bool ranking = false;
  gbmo::core::TrainConfig cfg;
  std::string describe() const {
    std::ostringstream os;
    if (ranking) {
      os << "rank q=" << rank.n_queries << " dpq=" << rank.docs_per_query
         << " m=" << rank.n_features << " maxrel=" << rank.max_relevance;
    } else {
      os << "n=" << data.n_instances << " m=" << data.n_features
         << " d=" << data.n_classes;
    }
    os << " cat=" << data.n_categorical << "x" << data.cat_cardinality
       << " nan=" << nan_frac()
       << " trees=" << cfg.n_trees
       << " depth=" << cfg.max_depth << " bins=" << cfg.max_bins
       << " hist=" << gbmo::core::hist_method_name(cfg.hist_method)
       << " csc_sweep=" << cfg.csc_level_sweep << " warp=" << cfg.warp_opt
       << " sparse=" << cfg.sparsity_aware << " devices=" << cfg.n_devices
       << " growth=" << gbmo::core::growth_policy_name(cfg.growth)
       << " leaves=" << cfg.max_leaves << " efb=" << cfg.efb
       << " goss=" << cfg.goss_a << "," << cfg.goss_b
       << " ooc_budget=" << cfg.device_budget_bytes
       << " chunk=" << cfg.stream_chunk_rows
       << " mgpu=" << gbmo::core::multi_gpu_mode_name(cfg.multi_gpu)
       << " nodes=" << cfg.n_nodes << " vote_k=" << cfg.voting_k;
    return os.str();
  }
};

DrawnCase draw_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  DrawnCase c;
  c.data.n_instances = static_cast<std::size_t>(pick(40, 160));
  c.data.n_features = static_cast<std::size_t>(pick(3, 10));
  c.data.n_classes = pick(2, 5);
  c.data.cluster_sep = 2.0;
  c.data.sparsity = pick(0, 1) == 0 ? 0.0 : 0.3;
  c.data.seed = seed;

  // Categorical columns + ranking objective (DESIGN.md §14). The leading
  // n_cat features become category codes and train through the ordered-
  // target-statistics encoder (cfg.cat_cols); NaN injection below hits
  // categorical cells too, exercising the NaN-is-missing-not-a-category
  // rule. The mo-family systems all share the GbmoBooster encode pass, so
  // the epsilon-agreement invariant is unchanged. The single-output
  // baselines treat the raw codes ordinally — a different (honest) model,
  // covered by invariants 1-3 only, same as their non-categorical runs.
  const int n_cat =
      (workloads_only() || pick(0, 2) == 0) ? pick(1, 3) : 0;
  c.data.n_categorical = n_cat;
  c.data.cat_cardinality = pick(2, 24);
  for (int j = 0; j < n_cat; ++j) c.cfg.cat_cols.push_back(j);
  c.ranking = workloads_only() ? (seed % 2 == 1) : pick(0, 3) == 0;
  if (c.ranking) {
    c.rank.n_queries = static_cast<std::size_t>(pick(8, 24));
    c.rank.docs_per_query = pick(2, 8);
    c.rank.n_features = c.data.n_features;
    c.rank.max_relevance = pick(1, 4);
    c.rank.n_categorical = n_cat;
    c.rank.cat_cardinality = c.data.cat_cardinality;
    c.rank.seed = seed;
  }

  c.cfg.n_trees = pick(2, 4);
  c.cfg.max_depth = pick(2, 4);
  c.cfg.learning_rate = 0.5f;
  c.cfg.min_instances_per_node = 4;
  const int bin_choices[] = {4, 16, 64, 256};
  c.cfg.max_bins = bin_choices[pick(0, 3)];
  const gbmo::core::HistMethod hist_choices[] = {
      gbmo::core::HistMethod::kAuto, gbmo::core::HistMethod::kGlobal,
      gbmo::core::HistMethod::kShared, gbmo::core::HistMethod::kSortReduce};
  c.cfg.hist_method = hist_choices[pick(0, 3)];
  c.cfg.warp_opt = pick(0, 1) == 1;
  c.cfg.sparsity_aware = pick(0, 1) == 1;
  c.cfg.csc_level_sweep = pick(0, 3) == 0;
  c.cfg.sibling_subtraction = pick(0, 1) == 1;
  // Growth policy & sampling (DESIGN.md §11). All of these flow through the
  // shared GbmoBooster pipeline, so the cpu-mo scalar reference applies the
  // identical leaf budget / bundling / GOSS selection (same cfg, same seed)
  // and the epsilon-agreement invariant keeps holding.
  c.cfg.growth = pick(0, 1) == 0 ? gbmo::core::GrowthPolicy::kLevelWise
                                 : gbmo::core::GrowthPolicy::kLeafWise;
  const int leaf_choices[] = {0, 0, 6, 11};  // mostly unbounded
  c.cfg.max_leaves = leaf_choices[pick(0, 3)];
  c.cfg.efb = pick(0, 2) == 0;  // a no-op unless the draw made features sparse
  if (pick(0, 3) == 0) {
    c.cfg.goss_a = 0.2 + 0.1 * pick(0, 1);
    c.cfg.goss_b = 0.2 + 0.2 * pick(0, 1);
  }
  // Distribution strategy x topology (DESIGN.md §13). Row-partitioned modes
  // (data/voting) build the canonical histogram in exact 1-device
  // accumulation order, so every mode keeps both the bitwise thread-equality
  // and the scalar-reference agreement invariants; only modeled time and
  // link traffic differ across topologies.
  const int topo_choices[][2] = {{1, 1}, {2, 1}, {2, 2}, {4, 2}};  // {dev,nodes}
  const int topo = pick(0, 3);
  c.cfg.n_devices = topo_choices[topo][0];
  c.cfg.n_nodes = topo_choices[topo][1];
  const gbmo::core::MultiGpuMode mode_choices[] = {
      gbmo::core::MultiGpuMode::kFeatureParallel,
      gbmo::core::MultiGpuMode::kDataParallel,
      gbmo::core::MultiGpuMode::kVotingParallel};
  c.cfg.multi_gpu = mode_choices[pick(0, 2)];
  c.cfg.voting_k = pick(1, 4);
  // Out-of-core training (DESIGN.md §12). Paging is accounting-only and the
  // cuts are the in-core ones, so arming it must leave every invariant
  // (bitwise thread equality, reference agreement) intact.
  // 2 KiB always holds one feature's working set at n<=160 rows, yet is
  // small enough to force real eviction traffic. Chaos mode exercises the
  // block_h2d retry path for free via GBMO_FUZZ_FAULT_RATE.
  if (pick(0, 2) == 0) {
    c.cfg.device_budget_bytes = 2048;
    const int chunk_choices[] = {0, 7, 32};
    c.cfg.stream_chunk_rows = chunk_choices[pick(0, 2)];
  }
  c.cfg.seed = seed;
  return c;
}

bool is_mo_family(const std::string& name) {
  // gbmo-data / gbmo-voting train the identical multi-output model (the
  // canonical histogram is built in 1-device order), so the reference
  // agreement applies to them too.
  return name == "gbmo-gpu" || name == "gbmo-data" || name == "gbmo-voting" ||
         name == "cpu-mo" || name == "cpu-mo-sparse";
}

struct RunOutput {
  std::vector<float> preds;
  std::string check_summary;
  bool ok = false;
};

// One fit+predict at a fixed scheduler thread count, checker hard-armed.
RunOutput run_system(const std::string& name, const DrawnCase& c,
                     const gbmo::data::Dataset& d, int threads) {
  RunOutput out;
  gbmo::sim::CheckReport::instance().clear();
  gbmo::sim::set_sim_threads(threads);
  try {
    auto system = gbmo::baselines::make_system(name, c.cfg);
    system->fit(d);
    out.preds = system->predict(d.x);
    out.ok = true;
  } catch (const gbmo::sim::SimCheckError& e) {
    ++g_failures;
    std::cerr << "FAIL " << name << " @" << threads << " threads ["
              << c.describe() << "]: " << e.what() << "\n";
  } catch (const std::exception& e) {
    ++g_failures;
    std::cerr << "FAIL " << name << " @" << threads << " threads ["
              << c.describe() << "]: unexpected exception: " << e.what()
              << "\n";
  }
  out.check_summary = gbmo::sim::CheckReport::instance().summary();
  return out;
}

void fuzz_iteration(int it) {
  const std::uint64_t seed = 0xF00Du + static_cast<std::uint64_t>(it);
  const DrawnCase c = draw_case(seed);
  auto d = c.ranking ? gbmo::data::make_ranking(c.rank)
                     : gbmo::data::make_multiclass(c.data);
  if (nan_frac() > 0.0) {
    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto vals = d.x.values();
    for (auto& v : vals) {
      if (unit(rng) < nan_frac()) v = std::numeric_limits<float>::quiet_NaN();
    }
  }
  const std::string where = "iter " + std::to_string(it);
  std::cerr << where << ": " << c.describe() << "\n";

  // Scalar CPU reference: cpu-mo pins dense storage + global histograms +
  // no warp packing internally, so it is the same multi-output algorithm
  // with the simplest accumulation path.
  const auto ref = run_system("cpu-mo", c, d, /*threads=*/1);
  if (!ref.ok) return;

  for (const auto& info : gbmo::baselines::registered_systems()) {
    const std::string tag = where + " " + info.name + " [" + c.describe() + "]";
    const auto r1 = run_system(info.name, c, d, /*threads=*/1);
    const auto r4 = run_system(info.name, c, d, /*threads=*/4);
    if (!r1.ok || !r4.ok) continue;

    FUZZ_EXPECT(r1.check_summary == "sim-check: clean (0 violations)\n",
                tag + ": checker not clean @1: " + r1.check_summary);
    FUZZ_EXPECT(r1.check_summary == r4.check_summary,
                tag + ": checker output differs between 1 and 4 threads");

    FUZZ_EXPECT(r1.preds.size() ==
                    d.x.n_rows() * static_cast<std::size_t>(d.n_outputs()),
                tag + ": wrong prediction shape");
    FUZZ_EXPECT(r1.preds.size() == r4.preds.size() &&
                    std::memcmp(r1.preds.data(), r4.preds.data(),
                                r1.preds.size() * sizeof(float)) == 0,
                tag + ": predictions differ between 1 and 4 threads");

    bool finite = true;
    for (float p : r1.preds) finite = finite && std::isfinite(p);
    FUZZ_EXPECT(finite, tag + ": non-finite prediction");

    if (is_mo_family(info.name) && r1.preds.size() == ref.preds.size()) {
      // Same algorithm, different histogram accumulation order: scores agree
      // within a scale-aware epsilon (O(1) logits here) — except when a
      // near-tie split gain lands on the rounding difference, which flips
      // one split and rebuilds that subtree (at coarse bin budgets even the
      // root can tie: distinct features reach identical partitions with
      // exactly equal gains). That is legitimate float behavior, not a bug,
      // so the fallback requires the training metric to be preserved: a tie
      // flip swaps equivalent splits and keeps quality, while a real defect
      // (wrong gradients, corrupted histograms) tanks it.
      std::size_t within = 0;
      for (std::size_t i = 0; i < r1.preds.size(); ++i) {
        const float tol = 1e-3f + 1e-3f * std::fabs(ref.preds[i]);
        if (std::fabs(r1.preds[i] - ref.preds[i]) <= tol) ++within;
      }
      if (within < r1.preds.size()) {
        const double frac =
            static_cast<double>(within) / static_cast<double>(r1.preds.size());
        const auto m_sys = gbmo::core::evaluate_primary(r1.preds, d.y);
        const auto m_ref = gbmo::core::evaluate_primary(ref.preds, d.y);
        const double dm = std::fabs(m_sys.value - m_ref.value);
        std::cerr << where << " " << info.name
                  << ": near-tie divergence from reference (within-eps frac="
                  << frac << ", |d " << m_sys.metric << "|=" << dm << ")\n";
        // A tie flip swaps equivalent splits and relocates a handful of
        // rows; on tiny replicas that is percent-scale movement (NaN
        // injection makes bin 0 heavy, so the zero-bin reconstruction's
        // different accumulation order flips ties more often), so the bound
        // is 4 rows or 2 metric points, whichever is looser.
        const double tie_budget =
            std::max(2.0, 400.0 / static_cast<double>(d.x.n_rows()));
        FUZZ_EXPECT(dm <= tie_budget,
                    tag + ": diverges structurally from scalar reference "
                          "(frac=" +
                        std::to_string(frac) + ", metric delta " +
                        std::to_string(dm) + ")");
      }
    }
  }
}

}  // namespace

int main() {
  int iters = 50;
  if (const char* env = std::getenv("GBMO_FUZZ_ITERS")) {
    iters = std::atoi(env);
    if (iters < 1) iters = 1;
  }
  gbmo::sim::set_sim_check(gbmo::sim::CheckMode::kFail);
  if (const char* env = std::getenv("GBMO_FUZZ_FAULT_RATE")) {
    const double rate = std::atof(env);
    if (rate > 0.0) {
      // Generous retry budget: at rate r the chance a launch exhausts is
      // r^17, so even long runs never see a legitimate SimFaultError escape.
      std::ostringstream spec;
      spec << "transient=" << rate << ";seed=1337;retries=16";
      gbmo::sim::set_sim_faults(spec.str());
      std::cerr << "fuzz_differential: chaos mode armed (" << spec.str()
                << ")\n";
    }
  }
  std::cerr << "fuzz_differential: " << iters << " iterations, "
            << gbmo::baselines::registered_systems().size()
            << " systems, checker hard-armed\n";
  for (int it = 0; it < iters; ++it) fuzz_iteration(it);
  gbmo::sim::set_sim_threads(0);
  if (g_failures > 0) {
    std::cerr << "fuzz_differential: " << g_failures << " failure(s)\n";
    return 1;
  }
  std::cerr << "fuzz_differential: all " << iters << " iterations clean\n";
  return 0;
}
