// Multi-tenant serve load generator: mixed client traffic across several
// deployed models with a mid-flight atomic hot-swap.
//
// Protocol: train N models (different output widths and tree counts) plus a
// retrained v2 of model "m0". Deploy the v1s into a ModelServer, then let
// `--clients` threads submit `--requests` rows each, round-robining across
// the models. A controller thread waits until half of the total traffic has
// been submitted and then hot-swaps m0 to v2 while the clients keep
// submitting (each client holds a short gate at 3/4 of its budget so swapped
// traffic is guaranteed even on slow hosts).
//
// Every accepted future is resolved and its scores are verified bitwise
// against the scalar predictions of the exact version that served it (the
// Submission records the version, so requests that raced the swap are
// checked against the model that actually answered them).
//
// Gates (exit 1 on violation; also recorded in BENCH_serve.json):
//   - zero dropped requests:  submitted == accepted + rejected
//   - zero failed requests:   every accepted future resolves with scores
//   - zero score mismatches:  served scores == serving version's model
//   - the swap was observed:  m0 answered traffic on v1 AND v2
//   - the old version drained: v1 of m0 answered everything it accepted
//
// Output: per-model p50/p95/p99/max latency, throughput, rejections and
// fallbacks -> BENCH_serve.json.
//
// Args: --models N --clients N --requests N(per client) --rows N(pool)
//       --train-rows N --features N --trees N --depth N
//       --batch N --delay-ms F --queue N
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/booster.h"
#include "data/synthetic.h"
#include "serve/server.h"

namespace {

using gbmo::TextTable;
using gbmo::WallTimer;
using gbmo::bench::arg_or;
using gbmo::bench::JsonReport;
using gbmo::bench::progress;

std::shared_ptr<const gbmo::core::Model> train_model(std::size_t rows,
                                                     std::size_t features,
                                                     int outputs, int trees,
                                                     int depth,
                                                     std::uint64_t seed) {
  gbmo::data::MultiregressionSpec spec;
  spec.n_instances = rows;
  spec.n_features = features;
  spec.n_outputs = outputs;
  spec.seed = seed;
  const auto ds = gbmo::data::make_multiregression(spec);
  const gbmo::core::TrainConfig cfg{.n_trees = trees,
                                    .max_depth = depth,
                                    .learning_rate = 0.3f,
                                    .min_instances_per_node = 8,
                                    .max_bins = 64};
  gbmo::core::GbmoBooster booster(cfg);
  return std::make_shared<const gbmo::core::Model>(booster.fit(ds));
}

struct Record {
  std::size_t model;  // index into model names
  std::size_t row;    // index into the request pool
  std::shared_ptr<gbmo::serve::ModelVersion> version;
  std::future<std::vector<float>> future;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_models = std::max<std::size_t>(3, arg_or(argc, argv, "--models", 3));
  const std::size_t clients = std::max<std::size_t>(1, arg_or(argc, argv, "--clients", 4));
  const std::size_t requests = std::max<std::size_t>(8, arg_or(argc, argv, "--requests", 400));
  const std::size_t pool_rows = arg_or(argc, argv, "--rows", 512);
  const std::size_t train_rows = arg_or(argc, argv, "--train-rows", 800);
  const std::size_t features = arg_or(argc, argv, "--features", 12);
  const int trees = static_cast<int>(arg_or(argc, argv, "--trees", 12));
  const int depth = static_cast<int>(arg_or(argc, argv, "--depth", 4));
  const std::size_t batch = arg_or(argc, argv, "--batch", 32);
  const double delay_ms = arg_or(argc, argv, "--delay-ms", 0.3);
  const std::size_t queue = arg_or(argc, argv, "--queue", 4096);

  std::printf("== Multi-tenant serve load: %zu models, %zu clients x %zu requests ==\n",
              n_models, clients, requests);

  // Request pool: one draw shared by every client, with NaN cells so the
  // default-left routing runs on the serving hot path.
  gbmo::data::MultiregressionSpec pool_spec;
  pool_spec.n_instances = pool_rows;
  pool_spec.n_features = features;
  pool_spec.n_outputs = 2;
  pool_spec.seed = 4242;
  auto pool = gbmo::data::make_multiregression(pool_spec);
  {
    auto vals = pool.x.values();
    for (std::size_t i = 0; i < vals.size(); i += 53) {
      vals[i] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  // Tenants: varying output widths and forest sizes. v2 of m0 is trained
  // up-front (more trees -> different scores) so the mid-flight deploy only
  // pays engine compilation, not training.
  progress("training " + std::to_string(n_models) + " models + m0 v2");
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const gbmo::core::Model>> v1_models;
  for (std::size_t i = 0; i < n_models; ++i) {
    names.push_back("m" + std::to_string(i));
    v1_models.push_back(train_model(train_rows, features,
                                    /*outputs=*/static_cast<int>(2 + 2 * i),
                                    trees + static_cast<int>(i), depth,
                                    /*seed=*/17 + i));
  }
  const auto m0_v2 =
      train_model(train_rows, features, /*outputs=*/2, trees + 7, depth, 99);

  // Scalar reference scores per (model name, version) over the whole pool —
  // the ground truth each served request is checked against.
  std::map<std::pair<std::size_t, int>, std::vector<float>> reference;
  for (std::size_t i = 0; i < n_models; ++i) {
    reference[{i, 1}] = v1_models[i]->predict(pool.x);
  }
  reference[{0, 2}] = m0_v2->predict(pool.x);

  gbmo::serve::ModelServer server;
  const auto deploy_opts = [&] {
    return gbmo::serve::DeployOptions{}.batcher_config(
        gbmo::serve::BatcherConfig{}.batch(batch).delay_ms(delay_ms).queue_limit(
            queue));
  };
  for (std::size_t i = 0; i < n_models; ++i) {
    server.deploy(names[i], v1_models[i], deploy_opts());
  }

  progress("driving mixed traffic with a mid-flight hot-swap of m0");
  const std::size_t total = clients * requests;
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> swap_done{false};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::vector<Record>> per_client(clients);
  std::uint64_t old_version_accepted = 0;

  WallTimer wall;
  std::thread controller([&] {
    while (submitted.load(std::memory_order_relaxed) < total / 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Atomic hot-swap: in-flight m0 traffic finishes on v1 (drained before
    // deploy() returns); everything after routes to v2.
    auto v1 = server.registry().live("m0");
    server.deploy("m0", m0_v2, deploy_opts());
    old_version_accepted = v1->batcher().stats().requests;
    swap_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      auto& records = per_client[c];
      records.reserve(requests);
      for (std::size_t j = 0; j < requests; ++j) {
        // Guarantee post-swap traffic: once a client has spent 3/4 of its
        // budget it waits (bounded) for the swap. By then >= 75% of the
        // total has been submitted, so the controller's 50% trigger has
        // already fired.
        if (j == requests * 3 / 4) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (!swap_done.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
        const std::size_t m = (c + j) % n_models;
        const std::size_t r = (c * 37 + j) % pool_rows;
        const auto row = pool.x.row(r);
        auto sub =
            server.submit(names[m], std::vector<float>(row.begin(), row.end()));
        if (sub.accepted()) {
          records.push_back(
              {m, r, std::move(sub.version), std::move(sub.scores)});
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  controller.join();
  server.drain();
  const double wall_seconds = wall.seconds();

  // Resolve + verify every accepted request against the version that served it.
  std::uint64_t accepted = 0, failed = 0, mismatches = 0;
  std::uint64_t m0_served_v1 = 0, m0_served_v2 = 0;
  for (auto& records : per_client) {
    for (auto& rec : records) {
      ++accepted;
      std::vector<float> scores;
      try {
        scores = rec.future.get();
      } catch (const std::exception&) {
        ++failed;
        continue;
      }
      const int version = rec.version->version();
      if (rec.model == 0) {
        (version == 1 ? m0_served_v1 : m0_served_v2) += 1;
      }
      const auto& ref = reference.at({rec.model, version});
      const auto d = static_cast<std::size_t>(rec.version->model().n_outputs);
      if (scores.size() != d ||
          std::memcmp(scores.data(), ref.data() + rec.row * d,
                      d * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
  }
  const std::uint64_t dropped = total - accepted - rejected.load();

  JsonReport json("serve");
  json.set("models", static_cast<double>(n_models));
  json.set("clients", static_cast<double>(clients));
  json.set("requests_per_client", static_cast<double>(requests));
  json.set("batch", static_cast<double>(batch));
  json.set("delay_ms", delay_ms);
  json.set("queue_limit", static_cast<double>(queue));
  json.set("wall_seconds", wall_seconds);

  TextTable table({"model", "ver", "requests", "rejected", "failed", "fallbacks",
                   "batch", "p50 ms", "p95 ms", "p99 ms", "max ms", "req/s",
                   "modeled ms"});
  for (std::size_t i = 0; i < n_models; ++i) {
    const auto s = server.stats(names[i]);
    const double rps =
        wall_seconds > 0.0 ? static_cast<double>(s.latency.requests) / wall_seconds
                           : 0.0;
    table.add_row({s.model, std::to_string(s.live_version),
                   std::to_string(s.latency.requests),
                   std::to_string(s.latency.rejected_requests),
                   std::to_string(s.latency.failed_requests),
                   std::to_string(s.latency.engine_fallbacks),
                   TextTable::num(s.latency.mean_batch_size(), 1),
                   TextTable::num(s.latency.p50_ms(), 3),
                   TextTable::num(s.latency.p95_ms(), 3),
                   TextTable::num(s.latency.p99_ms(), 3),
                   TextTable::num(s.latency.max_latency_ms, 3),
                   TextTable::num(rps, 0),
                   TextTable::num(s.modeled_seconds * 1e3, 3)});
    json.add_record({{"model", JsonReport::str(s.model)},
                     {"live_version", JsonReport::num(s.live_version)},
                     {"requests", JsonReport::num(static_cast<double>(s.latency.requests))},
                     {"rejected", JsonReport::num(static_cast<double>(s.latency.rejected_requests))},
                     {"failed", JsonReport::num(static_cast<double>(s.latency.failed_requests))},
                     {"fallbacks", JsonReport::num(static_cast<double>(s.latency.engine_fallbacks))},
                     {"mean_batch", JsonReport::num(s.latency.mean_batch_size())},
                     {"mean_ms", JsonReport::num(s.latency.mean_latency_ms())},
                     {"p50_ms", JsonReport::num(s.latency.p50_ms())},
                     {"p95_ms", JsonReport::num(s.latency.p95_ms())},
                     {"p99_ms", JsonReport::num(s.latency.p99_ms())},
                     {"max_ms", JsonReport::num(s.latency.max_latency_ms)},
                     {"throughput_rps", JsonReport::num(rps)},
                     {"modeled_seconds", JsonReport::num(s.modeled_seconds)}});
  }
  std::printf("%s", table.to_string().c_str());

  const bool swap_observed = m0_served_v1 > 0 && m0_served_v2 > 0;
  std::printf("hot-swap: m0 served %llu requests on v1, %llu on v2 "
              "(v1 drained after answering %llu)\n",
              static_cast<unsigned long long>(m0_served_v1),
              static_cast<unsigned long long>(m0_served_v2),
              static_cast<unsigned long long>(old_version_accepted));
  std::printf("submitted %zu, accepted %llu, rejected %llu, dropped %llu, "
              "failed %llu, score mismatches %llu\n",
              total, static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected.load()),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches));

  json.set("m0_served_v1", static_cast<double>(m0_served_v1));
  json.set("m0_served_v2", static_cast<double>(m0_served_v2));
  json.set("dropped_requests", static_cast<double>(dropped));
  json.set("failed_requests", static_cast<double>(failed));
  json.set("score_mismatches", static_cast<double>(mismatches));
  json.set("swap_observed", swap_observed ? 1.0 : 0.0);
  std::printf("wrote %s\n", json.write().c_str());

  if (dropped != 0 || failed != 0 || mismatches != 0 || !swap_observed) {
    std::fprintf(stderr,
                 "FAIL: dropped=%llu failed=%llu mismatches=%llu swap_observed=%d\n",
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(mismatches),
                 swap_observed ? 1 : 0);
    return 1;
  }
  std::printf("OK: mid-flight hot-swap with zero dropped/failed requests\n");
  return 0;
}
