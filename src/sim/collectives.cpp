#include "sim/collectives.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "sim/faults.h"

namespace gbmo::sim {

DeviceGroup::DeviceGroup(DeviceSpec spec, int n_devices, LinkSpec link)
    : DeviceGroup(std::move(spec), Topology{1, n_devices}, link, link) {}

DeviceGroup::DeviceGroup(DeviceSpec spec, Topology topo, LinkSpec intra,
                         LinkSpec inter)
    : topo_(topo), link_(intra), inter_(inter) {
  GBMO_CHECK(topo_.nodes >= 1 && topo_.gpus_per_node >= 1)
      << "topology must be at least 1x1";
  const int n_devices = topo_.total();
  devices_.reserve(static_cast<std::size_t>(n_devices));
  for (int i = 0; i < n_devices; ++i) {
    devices_.push_back(std::make_unique<Device>(spec, i));
  }
}

void DeviceGroup::set_phase(const std::string& phase) {
  for (auto& d : devices_) d->set_phase(phase);
}

double DeviceGroup::max_modeled_seconds() const {
  double m = 0.0;
  for (const auto& d : devices_) m = std::max(m, d->modeled_seconds());
  return m;
}

void DeviceGroup::set_sink(StatsSink* sink) {
  sink_ = sink;
  for (auto& d : devices_) d->set_sink(sink);
}

int DeviceGroup::n_alive() const {
  int k = 0;
  for (const auto& d : devices_) k += d->is_lost() ? 0 : 1;
  return k;
}

int DeviceGroup::first_alive() const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!devices_[i]->is_lost()) return static_cast<int>(i);
  }
  return -1;
}

int DeviceGroup::n_alive_in_node(int node) const {
  const int lo = node * topo_.gpus_per_node;
  int k = 0;
  for (int i = lo; i < lo + topo_.gpus_per_node; ++i) {
    k += devices_[static_cast<std::size_t>(i)]->is_lost() ? 0 : 1;
  }
  return k;
}

int DeviceGroup::n_alive_nodes() const {
  int k = 0;
  for (int node = 0; node < topo_.nodes; ++node) {
    k += n_alive_in_node(node) > 0 ? 1 : 0;
  }
  return k;
}

void DeviceGroup::kill_node(int node) {
  GBMO_CHECK(node >= 0 && node < topo_.nodes) << "kill_node out of range";
  const int lo = node * topo_.gpus_per_node;
  for (int i = lo; i < lo + topo_.gpus_per_node; ++i) {
    devices_[static_cast<std::size_t>(i)]->mark_lost();
  }
}

int DeviceGroup::require_alive(const char* what) const {
  const int root = first_alive();
  if (root < 0) throw AllDevicesLost(what);
  return root;
}

void DeviceGroup::charge_all(const char* name, double seconds) {
  // Collective time is always attributed to the "comm" phase, whatever
  // pipeline phase the devices are in when the exchange happens. Lost
  // devices no longer participate and are not charged.
  for (auto& d : devices_) {
    if (d->is_lost()) continue;
    PhaseTag comm(*d, "comm");
    charge_seconds(*d, name, seconds);
  }
}

void DeviceGroup::maybe_inject_timeout() {
  if (!sim_faults_enabled()) return;
  const auto plan = sim_fault_plan();
  const std::uint64_t ordinal = collective_ordinal_++;
  if (!collective_timeout_fires(*plan, ordinal)) return;
  // Modeled as "the collective timed out once and was retransmitted": a
  // fixed penalty charged to every live participant under the "retry" phase
  // before the exchange proceeds. The exchanged values are untouched, so a
  // timed-out run's results stay bit-identical to the fault-free run.
  KernelStats s;
  s.faults_injected = 1;
  for (auto& d : devices_) {
    if (d->is_lost()) continue;
    PhaseTag retry(*d, "retry");
    charge_seconds(*d, "collective_timeout", plan->timeout_seconds, s);
  }
}

void DeviceGroup::charge_all_reduce(const char* name, std::size_t intra_bytes,
                                    std::size_t inter_bytes) {
  require_alive(name);
  maybe_inject_timeout();
  if (topo_.nodes <= 1) {
    const int k = n_alive();
    if (k <= 1) return;
    // Flat ring all-reduce: each device moves 2*(k-1)/k of the payload over
    // 2*(k-1) latency hops. Identical to the pre-topology cost model.
    const double bytes = static_cast<double>(intra_bytes);
    const double t =
        2.0 * (k - 1) * (bytes / k / link_.bandwidth + link_.latency);
    charge_all(name, t);
    intra_traffic_ += 2ull * static_cast<std::uint64_t>(k - 1) * intra_bytes;
    return;
  }
  // Hierarchical: reduce-scatter inside each node, ring across the live
  // nodes, broadcast back down. Collectives are lockstep, so the node with
  // the most live GPUs gates the intra stages and every live device is
  // charged the same wall time.
  int g_max = 0;
  int live_nodes = 0;
  for (int node = 0; node < topo_.nodes; ++node) {
    const int g = n_alive_in_node(node);
    if (g > 0) ++live_nodes;
    g_max = std::max(g_max, g);
    if (g > 1) {
      intra_traffic_ += 2ull * static_cast<std::uint64_t>(g - 1) * intra_bytes;
    }
  }
  if (g_max > 1) {
    const double bytes = static_cast<double>(intra_bytes);
    const double t =
        (g_max - 1) * (bytes / g_max / link_.bandwidth + link_.latency);
    charge_all("reduce_scatter_intra", t);
    charge_all("broadcast_intra", t);
  }
  if (live_nodes > 1) {
    const double bytes = static_cast<double>(inter_bytes);
    const double t = 2.0 * (live_nodes - 1) *
                     (bytes / live_nodes / inter_.bandwidth + inter_.latency);
    charge_all("ring_inter_node", t);
    inter_traffic_ +=
        2ull * static_cast<std::uint64_t>(live_nodes - 1) * inter_bytes;
  }
}

void DeviceGroup::charge_broadcast(std::size_t bytes) {
  require_alive("broadcast");
  maybe_inject_timeout();
  const double b = static_cast<double>(bytes);
  if (topo_.nodes <= 1) {
    const int k = n_alive();
    if (k <= 1) return;
    const double hops = std::ceil(std::log2(static_cast<double>(k)));
    charge_all("broadcast", hops * (b / link_.bandwidth + link_.latency));
    intra_traffic_ += static_cast<std::uint64_t>(k - 1) * bytes;
    return;
  }
  const int k = n_alive();
  if (k <= 1) return;
  const int live_nodes = n_alive_nodes();
  int g_max = 0;
  for (int node = 0; node < topo_.nodes; ++node) {
    g_max = std::max(g_max, n_alive_in_node(node));
  }
  if (live_nodes > 1) {
    const double hops = std::ceil(std::log2(static_cast<double>(live_nodes)));
    charge_all("broadcast_inter_node",
               hops * (b / inter_.bandwidth + inter_.latency));
    inter_traffic_ += static_cast<std::uint64_t>(live_nodes - 1) * bytes;
  }
  if (g_max > 1) {
    const double hops = std::ceil(std::log2(static_cast<double>(g_max)));
    charge_all("broadcast_intra", hops * (b / link_.bandwidth + link_.latency));
    intra_traffic_ += static_cast<std::uint64_t>(k - live_nodes) * bytes;
  }
}

}  // namespace gbmo::sim
