#include "open_loop.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "core/model_io.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = gbmo::serve;
namespace core = gbmo::core;

// Rows a tenant may hold queued before admission control rejects: 0.65 s
// of arrivals at the high rate, far above what a sustainable rate queues
// even through a host stall of tens of milliseconds.
constexpr std::size_t kQueueLimit = 65536;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Request {
  std::uint32_t tenant = 0;
  std::uint32_t row = 0;
  Clock::time_point due;
  std::shared_ptr<serve::ModelVersion> version;
  std::future<std::vector<float>> scores;
};

// Model::predict over the request pool, per deployed model object. Entries
// hold the model, so no address is reused while the step runs.
class ReferenceBook {
 public:
  void add(const std::shared_ptr<const core::Model>& model,
           const gbmo::data::DenseMatrix& pool) {
    auto scores = model->predict(pool);
    std::lock_guard<std::mutex> lock(mu_);
    book_.try_emplace(model.get(), model, std::move(scores));
  }
  const std::vector<float>* find(const core::Model* model) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = book_.find(model);
    return it == book_.end() ? nullptr : &it->second.second;
  }

 private:
  mutable std::mutex mu_;
  std::map<const core::Model*,
           std::pair<std::shared_ptr<const core::Model>, std::vector<float>>>
      book_;
};

// State shared by the three client threads. The collector and the swap
// controller wait on separate condition variables, so a submission wakes at
// most the collector, and only when it is idle.
struct Shared {
  std::mutex mu;
  std::condition_variable inbox_cv;
  std::condition_variable done_cv;
  std::vector<Request> inbox;  // submitted, not yet seen by the collector
  bool collector_idle = false;
  bool generator_done = false;
  Clock::time_point first_swap_done = Clock::time_point::max();
  std::atomic<std::uint64_t> completed{0};
};

// Between arrivals the generator sleeps while the next one is far off and
// spins only for the last stretch. Spinning throughout would keep a core
// busy at the low rate, and a batcher or collector thread woken onto that
// core would wait for the spinner's time slice: milliseconds on the tail.
void wait_until(Clock::time_point due) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    const auto left = due - now;
    if (left > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(left - std::chrono::microseconds(200));
    } else if (left > std::chrono::microseconds(20)) {
      std::this_thread::yield();
    }
  }
}

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Highest percentile, capped at 99, that leaves at least ten samples above it.
double supported_tail_pct(std::size_t n) {
  if (n <= 10) return 0.0;
  const double p = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::min(99.0, std::floor(p * 10.0) / 10.0);
}

}  // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double steal_cpu_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

StepResult combine_steps(const std::vector<StepResult>& steps) {
  StepResult out;
  std::vector<double> p50, tail, achieved, late, backlog_end, server_cpu;
  out.samples = std::numeric_limits<std::size_t>::max();
  out.tail_pct = 100.0;
  for (const StepResult& s : steps) {
    out.offered_rps = s.offered_rps;
    p50.push_back(s.p50_ms);
    tail.push_back(s.tail_ms);
    achieved.push_back(s.achieved_rps);
    server_cpu.push_back(s.server_cpu_us_per_req);
    late.push_back(s.gen_late_p99_ms);
    backlog_end.push_back(static_cast<double>(s.backlog_end));
    out.tail_pct = std::min(out.tail_pct, s.tail_pct);
    out.samples = std::min(out.samples, s.samples);
    out.sent += s.sent;
    out.completed += s.completed;
    out.rejected += s.rejected;
    out.failed += s.failed;
    out.mismatches += s.mismatches;
    out.fallbacks += s.fallbacks;
    out.swaps += s.swaps;
    out.swap_expected = out.swap_expected || s.swap_expected;
    out.swap_observed = out.swap_observed || s.swap_observed;
    out.gen_late_max_ms = std::max(out.gen_late_max_ms, s.gen_late_max_ms);
    out.backlog_max = std::max(out.backlog_max, s.backlog_max);
    out.inside.merge_from(s.inside);
    out.deploy_ms.insert(out.deploy_ms.end(), s.deploy_ms.begin(), s.deploy_ms.end());
    out.load_ms.insert(out.load_ms.end(), s.load_ms.begin(), s.load_ms.end());
    out.engine_batches += s.engine_batches;
    out.engine_host_s += s.engine_host_s;
    out.engine_modeled_s += s.engine_modeled_s;
    out.engine_launches += s.engine_launches;
  }
  out.p50_ms = median(p50);
  out.tail_ms = median(tail);
  out.achieved_rps = median(achieved);
  out.server_cpu_us_per_req = median(server_cpu);
  out.gen_late_p99_ms = median(late);
  out.backlog_end = static_cast<std::uint64_t>(median(backlog_end));
  return out;
}

StepResult run_open_loop(const std::vector<ServedTenant>& tenants,
                         const gbmo::data::DenseMatrix& pool,
                         const OpenLoopConfig& cfg) {
  StepResult res;
  const bool closed = cfg.window > 0;
  res.offered_rps = closed ? 0.0 : cfg.rate_rps;
  // Open loop: n arrivals. Closed loop: a schedule of n draws, cycled.
  const std::size_t n =
      closed ? 65536
             : std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::llround(cfg.rate_rps * cfg.seconds)));

  // The whole schedule is drawn before the clock starts: tenant by weight,
  // pool row uniformly, and (open loop) Poisson arrivals, i.e. exponential
  // gaps. Evenly spaced arrivals would put a fixed number of rows into each
  // delay-flushed batch, so the p50 would sit on a step between two batch
  // shapes and jump with sub-microsecond timing.
  std::mt19937_64 rng(cfg.seed);
  const auto uniform = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  std::vector<double> cum;
  double total_w = 0.0;
  for (double w : cfg.weights) cum.push_back(total_w += w);
  std::vector<std::uint32_t> tenant_of(n), row_of(n);
  std::vector<std::int64_t> due_ns(closed ? 0 : n);
  double t_ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = uniform() * total_w;
    tenant_of[i] = static_cast<std::uint32_t>(
        std::min<std::size_t>(std::upper_bound(cum.begin(), cum.end(), u) - cum.begin(),
                              tenants.size() - 1));
    row_of[i] = static_cast<std::uint32_t>(rng() % pool.n_rows());
    if (!closed) {
      due_ns[i] = std::llround(t_ns);
      t_ns += -std::log1p(-uniform()) * 1e9 / cfg.rate_rps;
    }
  }
  std::vector<std::vector<float>> rows(pool.n_rows());
  for (std::size_t r = 0; r < pool.n_rows(); ++r) {
    rows[r].assign(pool.row(r).begin(), pool.row(r).end());
  }

  ReferenceBook refs;
  // One sink per tenant, shared by all of its versions; declared before the
  // server so it outlives every engine that reports into it.
  std::vector<std::unique_ptr<HostClockSink>> sinks;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    sinks.push_back(std::make_unique<HostClockSink>());
  }
  const auto opts = [&](std::size_t t) {
    return serve::DeployOptions{}.batcher_config(serve::BatcherConfig{}
                                                     .batch(32)
                                                     .delay_ms(1.0)
                                                     .queue_limit(kQueueLimit)
                                                     .stats_sink(sinks[t].get()));
  };

  {
    serve::ModelServer server;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      refs.add(tenants[t].model, pool);
      const auto t0 = Clock::now();
      server.deploy(tenants[t].name, tenants[t].model, opts(t));
      res.deploy_ms.push_back(ms_between(t0, Clock::now()));
    }

    Shared sh;
    // CPU time of the whole process over the step, less that of the three
    // client threads, is what the server's own threads spent.
    const double process_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    double collector_cpu = 0.0, controller_cpu = 0.0;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::vector<double> latency_ms;
    latency_ms.reserve(n);
    Clock::time_point last_done = start;

    std::thread collector([&] {
      const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      std::vector<std::deque<Request>> pending(tenants.size());
      std::vector<Request> arrived;
      bool served_swapped = false;
      std::size_t outstanding = 0;
      bool injected = false;
      const auto finish = [&](Request& rq) {
        const auto now = Clock::now();
        last_done = now;
        std::vector<float> scores;
        bool ok = true;
        try {
          scores = rq.scores.get();
        } catch (...) {
          ++res.failed;
          ok = false;
        }
        if (ok) {
          if (cfg.inject_mismatch && !injected && !scores.empty()) {
            std::uint32_t bits;
            std::memcpy(&bits, &scores[0], sizeof bits);
            bits ^= 1u;
            std::memcpy(&scores[0], &bits, sizeof bits);
            injected = true;
          }
          const auto d = static_cast<std::size_t>(rq.version->model().n_outputs);
          const std::vector<float>* ref = refs.find(rq.version->model_ptr().get());
          if (ref == nullptr || scores.size() != d ||
              std::memcmp(scores.data(), ref->data() + rq.row * d,
                          d * sizeof(float)) != 0) {
            ++res.mismatches;
          }
          latency_ms.push_back(ms_between(rq.due, now));
          // Each step starts on a fresh server, so version 1 is the
          // initial deployment and any later one was swapped in.
          if (rq.tenant == cfg.swap_tenant && rq.version->version() > 1) {
            served_swapped = true;
          }
        }
        sh.completed.fetch_add(1, std::memory_order_relaxed);
      };
      for (;;) {
        bool done;
        {
          std::unique_lock<std::mutex> lock(sh.mu);
          if (outstanding == 0) {
            sh.collector_idle = true;
            sh.inbox_cv.wait(lock, [&] { return sh.generator_done || !sh.inbox.empty(); });
            sh.collector_idle = false;
          }
          arrived.swap(sh.inbox);
          done = sh.generator_done;
        }
        for (Request& rq : arrived) {
          pending[rq.tenant].push_back(std::move(rq));
          ++outstanding;
        }
        arrived.clear();
        bool progressed = false;
        for (auto& q : pending) {
          while (!q.empty() && q.front().scores.wait_for(std::chrono::seconds(0)) ==
                                   std::future_status::ready) {
            finish(q.front());
            q.pop_front();
            --outstanding;
            progressed = true;
          }
        }
        if (progressed) continue;
        if (outstanding == 0) {
          if (done) break;
          continue;
        }
        // Block on the oldest outstanding request; others are swept next.
        std::deque<Request>* oldest = nullptr;
        for (auto& q : pending) {
          if (!q.empty() && (oldest == nullptr || q.front().due < oldest->front().due)) {
            oldest = &q;
          }
        }
        oldest->front().scores.wait_for(std::chrono::microseconds(100));
      }
      res.swap_observed = served_swapped;
      collector_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });

    const auto swap_loop = [&] {
      if (cfg.swap_period_s <= 0.0 || tenants.empty()) return;
      const ServedTenant& tenant = tenants[cfg.swap_tenant];
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(cfg.swap_period_s));
      auto next = start + period;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(sh.mu);
          if (sh.done_cv.wait_until(lock, next, [&] { return sh.generator_done; })) return;
        }
        const auto t0 = Clock::now();
        auto model =
            std::make_shared<const core::Model>(core::load_model(tenant.model_path));
        res.load_ms.push_back(ms_between(t0, Clock::now()));
        refs.add(model, pool);
        const auto t1 = Clock::now();
        server.deploy(tenant.name, std::move(model), opts(cfg.swap_tenant));
        const auto done = Clock::now();
        res.deploy_ms.push_back(ms_between(t1, done));
        if (res.swaps++ == 0) {
          std::lock_guard<std::mutex> lock(sh.mu);
          sh.first_swap_done = done;
        }
        next += period;
      }
    };
    std::thread controller([&] {
      const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      swap_loop();
      controller_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });

    // Generator: this thread, on the fixed schedule (open loop) or as fast
    // as the window allows (closed loop).
    const double generator_cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    std::vector<double> late_ms;
    late_ms.reserve(closed ? 0 : n);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(cfg.seconds));
    std::uint64_t rejected = 0;
    Clock::time_point last_swap_tenant_submit = start;
    std::size_t i = 0;
    if (closed) wait_until(start);
    for (;; ++i) {
      Clock::time_point due;
      if (closed) {
        // Every accepted request is either completed or unanswered.
        while (i - rejected - sh.completed.load(std::memory_order_relaxed) >= cfg.window) {
          std::this_thread::yield();
        }
        due = Clock::now();
        if (due >= end) break;
      } else {
        if (i == n) break;
        due = start + std::chrono::nanoseconds(due_ns[i]);
        wait_until(due);
        late_ms.push_back(ms_between(due, Clock::now()));
      }
      const std::uint32_t t = tenant_of[i % n];
      if (t == cfg.swap_tenant) last_swap_tenant_submit = Clock::now();
      auto sub = server.submit(tenants[t].name, rows[row_of[i % n]]);
      if (!sub.accepted()) {
        ++rejected;
      } else {
        Request rq;
        rq.tenant = t;
        rq.row = row_of[i % n];
        rq.due = due;
        rq.version = std::move(sub.version);
        rq.scores = std::move(sub.scores);
        bool wake;
        {
          std::lock_guard<std::mutex> lock(sh.mu);
          sh.inbox.push_back(std::move(rq));
          wake = sh.collector_idle;
        }
        if (wake) sh.inbox_cv.notify_one();
      }
      const std::uint64_t answered =
          rejected + sh.completed.load(std::memory_order_relaxed);
      res.backlog_end = i + 1 - std::min<std::uint64_t>(i + 1, answered);
      res.backlog_max = std::max(res.backlog_max, res.backlog_end);
    }
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.generator_done = true;
    }
    sh.inbox_cv.notify_one();
    sh.done_cv.notify_one();
    const double generator_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - generator_cpu0;
    controller.join();
    collector.join();
    const double server_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0 -
                              generator_cpu - collector_cpu - controller_cpu;

    res.swap_expected = sh.first_swap_done < last_swap_tenant_submit;
    res.sent = i;
    res.rejected = rejected;
    res.completed = sh.completed.load();
    const double span_ms = ms_between(start, last_done);
    res.achieved_rps =
        span_ms > 0.0 ? static_cast<double>(res.completed) * 1e3 / span_ms : 0.0;
    res.server_cpu_us_per_req =
        server_cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, res.completed));
    res.gen_late_p99_ms = percentile(late_ms, supported_tail_pct(late_ms.size()));
    res.gen_late_max_ms = percentile(late_ms, 100.0);

    res.samples = latency_ms.size();
    res.tail_pct = supported_tail_pct(res.samples);
    res.p50_ms = percentile(latency_ms, 50.0);
    res.tail_ms = percentile(latency_ms, res.tail_pct);

    for (const auto& tenant : tenants) {
      const auto s = server.stats(tenant.name);
      res.inside.merge_from(s.latency);
      res.fallbacks += s.latency.engine_fallbacks;
    }
  }  // the server drains and releases every version here

  for (const auto& sink : sinks) {
    res.engine_batches += sink->batches();
    res.engine_host_s += sink->batch_host_s();
    for (const auto& [name, k] : sink->kernels()) {
      res.engine_modeled_s += k.modeled_s;
      res.engine_launches += k.launches;
    }
  }
  return res;
}

}  // namespace perfbench
