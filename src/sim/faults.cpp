#include "sim/faults.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string_view>

#include "common/parse.h"

namespace gbmo::sim {

namespace {

// SplitMix64 finalizer: a full-avalanche 64-bit mix, so consecutive ordinals
// produce statistically independent draws.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct FaultGlobals {
  std::mutex mu;
  std::shared_ptr<const FaultPlan> override_plan;
  bool has_override = false;
};

FaultGlobals& globals() {
  static FaultGlobals* g = new FaultGlobals();
  return *g;
}

// Cached sim_faults_enabled() answer: -1 unresolved, 0 off, 1 armed. Kept in
// sync by every set/reset so the launch hot path is one relaxed load.
std::atomic<int> g_enabled{-1};

std::shared_ptr<const FaultPlan> env_default() {
  static const std::shared_ptr<const FaultPlan> plan = [] {
    const char* env = std::getenv("GBMO_SIM_FAULTS");
    return std::make_shared<const FaultPlan>(
        env != nullptr ? FaultPlan::parse(env) : FaultPlan{});
  }();
  return plan;
}

ScriptedFault parse_script(const std::string& key, const std::string& value) {
  ScriptedFault s;
  s.kind = key == "kill"        ? FaultKind::kDeviceLoss
           : key == "kill-node" ? FaultKind::kNodeLoss
                                : FaultKind::kTransient;
  const auto at = value.find('@');
  GBMO_CHECK(at != std::string::npos)
      << "bad fault script '" << key << "=" << value << "' (want DEV@LAUNCH)";
  const std::string what = "--sim-faults " + key;
  s.device = parse_number<int>(value.substr(0, at), what + " device");
  s.launch = parse_number<std::uint64_t>(value.substr(at + 1), what + " launch");
  GBMO_CHECK(s.device >= 0) << "bad fault script device in '" << value << "'";
  return s;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "0" || spec == "off") return plan;
  std::string item;
  std::string norm = spec;
  std::replace(norm.begin(), norm.end(), ',', ';');
  std::istringstream is(norm);
  while (std::getline(is, item, ';')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    GBMO_CHECK(eq != std::string::npos)
        << "bad --sim-faults item '" << item << "' (want key=value)";
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto number = [&](auto& field) {
      field = parse_number<std::remove_reference_t<decltype(field)>>(
          value, "--sim-faults " + key);
    };
    if (key == "transient") {
      number(plan.transient_rate);
    } else if (key == "timeout") {
      number(plan.timeout_rate);
    } else if (key == "seed") {
      number(plan.seed);
    } else if (key == "kernel") {
      plan.kernel_filter = value;
    } else if (key == "device") {
      number(plan.device_filter);
    } else if (key == "fail" || key == "kill" || key == "kill-node") {
      plan.script.push_back(parse_script(key, value));
    } else if (key == "retries") {
      number(plan.max_retries);
    } else if (key == "backoff") {
      number(plan.backoff_seconds);
    } else if (key == "timeout-cost") {
      number(plan.timeout_seconds);
    } else {
      GBMO_CHECK(false) << "unknown --sim-faults key '" << key << "'";
    }
  }
  GBMO_CHECK(plan.transient_rate >= 0.0 && plan.transient_rate <= 1.0)
      << "transient rate out of [0,1]";
  GBMO_CHECK(plan.timeout_rate >= 0.0 && plan.timeout_rate <= 1.0)
      << "timeout rate out of [0,1]";
  GBMO_CHECK(plan.max_retries >= 0) << "retries must be >= 0";
  return plan;
}

std::shared_ptr<const FaultPlan> sim_fault_plan() {
  auto& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.has_override ? g.override_plan : env_default();
}

void set_sim_faults(FaultPlan plan) {
  auto& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  g.override_plan = std::make_shared<const FaultPlan>(std::move(plan));
  g.has_override = true;
  g_enabled.store(g.override_plan->enabled() ? 1 : 0,
                  std::memory_order_relaxed);
}

void set_sim_faults(const std::string& spec) {
  set_sim_faults(FaultPlan::parse(spec));
}

void reset_sim_faults() {
  auto& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  g.has_override = false;
  g.override_plan.reset();
  g_enabled.store(env_default()->enabled() ? 1 : 0, std::memory_order_relaxed);
}

bool sim_faults_enabled() {
  const int cached = g_enabled.load(std::memory_order_relaxed);
  if (cached >= 0) return cached != 0;
  const bool on = sim_fault_plan()->enabled();
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

SimDeviceLost::SimDeviceLost(int device, bool node_wide)
    : Error("sim-fault: device " + std::to_string(device) +
            (node_wide ? "'s whole node lost (permanent)"
                       : " lost (permanent)")),
      device_(device),
      node_wide_(node_wide) {}

namespace {

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  int block = -1;             // target block of a transient fault
  std::uint64_t ordinal = 0;  // the launch-attempt ordinal that was drawn
};

FaultDecision next_launch_fault(Device& dev, const char* name,
                                const FaultPlan& plan, int grid_dim) {
  FaultDecision d;
  // The ordinal advances on every launch attempt (filtered or not, faulted
  // or not), so the decision stream for a device depends only on how many
  // launches it has run — never on scheduler threads or other devices.
  d.ordinal = dev.next_launch_ordinal();
  if (dev.is_lost()) {
    d.kind = FaultKind::kDeviceLoss;
    return d;
  }
  for (const auto& s : plan.script) {
    if (s.device == dev.id() && s.launch == d.ordinal) {
      d.kind = s.kind;
      d.block = 0;
      return d;
    }
  }
  if (plan.transient_rate <= 0.0 || grid_dim <= 0) return d;
  if (plan.device_filter >= 0 && plan.device_filter != dev.id()) return d;
  if (!plan.kernel_filter.empty() &&
      std::string_view(name).find(plan.kernel_filter) ==
          std::string_view::npos) {
    return d;
  }
  const std::uint64_t h =
      mix64(plan.seed ^ mix64(static_cast<std::uint64_t>(dev.id() + 1)) ^
            mix64(d.ordinal ^ 0x7fa7157a11ULL));
  if (unit_draw(h) < plan.transient_rate) {
    d.kind = FaultKind::kTransient;
    d.block = static_cast<int>(mix64(h) %
                               static_cast<std::uint64_t>(grid_dim));
  }
  return d;
}

// Charges one retry's modeled backoff (bounded exponential) plus the
// fault/retry counters to `dev` under the faulted kernel's name and the
// "retry" phase.
void charge_retry(Device& dev, const char* name, const FaultPlan& plan,
                  int attempt) {
  // Bounded exponential backoff: base * 2^attempt, capped at 2^10 periods.
  const double backoff =
      plan.backoff_seconds *
      static_cast<double>(1ull << std::min(attempt, 10));
  PhaseTag retry(dev, "retry");
  KernelStats s;
  s.faults_injected = 1;
  s.fault_retries = 1;
  charge_seconds(dev, name, backoff, s);
}

}  // namespace

void fault_gate(Device& dev, const char* name, int grid_dim) {
  if (!sim_faults_enabled()) return;
  const auto plan = sim_fault_plan();
  for (int attempt = 0;; ++attempt) {
    const FaultDecision fire = next_launch_fault(dev, name, *plan, grid_dim);
    switch (fire.kind) {
      case FaultKind::kNone:
        return;
      case FaultKind::kDeviceLoss:
      case FaultKind::kNodeLoss:
        dev.mark_lost();
        throw SimDeviceLost(dev.id(), fire.kind == FaultKind::kNodeLoss);
      case FaultKind::kTransient:
        if (attempt >= plan->max_retries) {
          std::ostringstream os;
          os << "sim-fault: transient failure in kernel '" << name
             << "' on device " << dev.id() << " (launch #" << fire.ordinal
             << ", block " << fire.block << ")";
          throw SimFaultError(os.str());
        }
        charge_retry(dev, name, *plan, attempt);
        break;
    }
  }
}

bool collective_timeout_fires(const FaultPlan& plan, std::uint64_t ordinal) {
  if (plan.timeout_rate <= 0.0) return false;
  const std::uint64_t h =
      mix64(plan.seed ^ 0xc0111ec7e0ULL ^ mix64(ordinal));
  return unit_draw(h) < plan.timeout_rate;
}

}  // namespace gbmo::sim
