// Multi-device group and the cost model of its links (the NCCL stand-in).
//
// The paper's multi-GPU mode partitions feature columns across devices,
// builds partial histograms locally, and exchanges only summary statistics
// (§3.4.2). DeviceGroup models the devices plus the interconnect. Training
// computes every exchanged result on the host; the charge_* calls charge the
// exchange's ring or tree time to every live participant under the "comm"
// phase.
//
// Topology (DESIGN.md §13): a group is node_count × gpus_per_node. Devices
// inside one node talk over the intra-node link (NVLink/PCIe); traffic
// between nodes crosses the inter-node link (network: lower bandwidth,
// higher latency). With nodes == 1 every cost model degenerates to the
// original flat ring, bit-for-bit. With nodes > 1 the all-reduce is
// hierarchical — reduce-scatter inside each node, ring across node leaders,
// broadcast back down — and each hop is charged to the link it crosses.
// Byte counters (intra_traffic_bytes / inter_traffic_bytes) record how much
// payload crossed each link class, so benches can quantify where the
// "only summary statistics are exchanged" argument breaks down.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "sim/device.h"
#include "sim/primitives.h"

namespace gbmo::sim {

struct LinkSpec {
  double bandwidth = 25e9;   // bytes/s per direction (PCIe 4.0 x16 effective)
  double latency = 8e-6;     // per message hop
  static LinkSpec pcie4() { return {25e9, 8e-6}; }
};

// node_count × gpus_per_node arrangement of a device group. Device i lives
// on node i / gpus_per_node (contiguous blocks of device ids per node).
struct Topology {
  int nodes = 1;
  int gpus_per_node = 1;
  int total() const { return nodes * gpus_per_node; }
};

// Every collective entered with zero live participants raises this typed
// error (instead of UB on first_alive() == -1). It extends gbmo::Error so
// existing catch sites keep working; the collective's name is carried for
// diagnostics.
class AllDevicesLost : public Error {
 public:
  explicit AllDevicesLost(const char* collective)
      : Error(std::string("sim-fault: collective '") + collective +
              "' with every device lost (no live participants)"),
        collective_(collective) {}
  const std::string& collective() const { return collective_; }

 private:
  std::string collective_;
};

// A candidate split exchanged between devices; only the fields needed to
// agree on the global winner and route the partition broadcast. Its size
// sets the cost of the feature-parallel split election's exchange.
struct BestSplitMsg {
  float gain = 0.0f;
  std::int32_t device = -1;
  std::int32_t feature = -1;
  std::int32_t bin = -1;
  std::int32_t node = -1;
};

class DeviceGroup {
 public:
  // Flat single-node group: every pair of devices talks over `link`.
  DeviceGroup(DeviceSpec spec, int n_devices, LinkSpec link = LinkSpec::pcie4());
  // Hierarchical group: `intra` joins GPUs inside one node, `inter` joins
  // node leaders across the network.
  DeviceGroup(DeviceSpec spec, Topology topo, LinkSpec intra, LinkSpec inter);

  int size() const { return static_cast<int>(devices_.size()); }
  Device& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }
  const LinkSpec& link() const { return link_; }
  const Topology& topology() const { return topo_; }

  // --- fault tolerance (sim/faults.h) --------------------------------------
  // A device marked lost (permanent failure) is excluded from every
  // collective: it neither contributes values nor receives results, and no
  // further time is charged to it. The training layer re-partitions work
  // over the survivors (device-loss failover).
  void mark_lost(int i) { device(i).mark_lost(); }
  bool is_lost(int i) const {
    return devices_[static_cast<std::size_t>(i)]->is_lost();
  }
  int n_alive() const;
  int first_alive() const;  // lowest live device id; -1 if none

  // --- topology helpers ----------------------------------------------------
  int node_of(int i) const { return i / topo_.gpus_per_node; }
  int n_alive_in_node(int node) const;
  int n_alive_nodes() const;  // nodes with at least one live device
  // Whole-node failure: marks every device on the node lost.
  void kill_node(int node);

  void set_phase(const std::string& phase);
  double max_modeled_seconds() const;

  // --- observability -------------------------------------------------------
  // Attach a sink to every device in the group and remember it so pipeline
  // spans (sim::TraceSpan) can be emitted at group-level timestamps.
  void set_sink(StatsSink* sink);
  StatsSink* sink() const { return sink_; }
  void set_trace_tree(int tree) {
    for (auto& d : devices_) d->set_trace_tree(tree);
  }
  void set_trace_level(int level) {
    for (auto& d : devices_) d->set_trace_level(level);
  }

  // Cumulative payload bytes moved over each link class by the cost model
  // (both directions of the hierarchical all-reduce counted).
  std::uint64_t intra_traffic_bytes() const { return intra_traffic_; }
  std::uint64_t inter_traffic_bytes() const { return inter_traffic_; }

  // Broadcast of a `bytes`-sized payload to every live device (tree
  // algorithm cost); purely a timing charge — callers share host memory
  // functionally.
  void charge_broadcast(std::size_t bytes);

  // Pure cost charge for an all-reduce whose functional result the caller
  // computed canonically on the host. Flat (nodes == 1): one ring charge of
  // `intra_bytes` under `name`. Hierarchical: reduce_scatter_intra +
  // broadcast_intra of `intra_bytes` on the intra link (the slowest node
  // gates, lockstep) and ring_inter_node of `inter_bytes` across the live
  // nodes on the inter link. The two sizes differ for voting-parallel, which
  // reduces the full histogram inside each node while only the elected
  // columns (plus the ballots) cross the inter-node ring.
  void charge_all_reduce(const char* name, std::size_t intra_bytes,
                         std::size_t inter_bytes);

 private:
  void charge_all(const char* name, double seconds);
  // First live device id; throws AllDevicesLost(what) when there is none.
  int require_alive(const char* what) const;
  // Deterministic collective-timeout injection: draws on the group's own
  // collective ordinal; when it fires, a modeled timeout-and-retransmit
  // penalty is charged to every live device under the "retry" phase before
  // the exchange proceeds (values are unaffected, so results stay
  // bit-identical to the fault-free run).
  void maybe_inject_timeout();

  std::vector<std::unique_ptr<Device>> devices_;
  Topology topo_;
  LinkSpec link_;   // intra-node
  LinkSpec inter_;  // inter-node (== link_ for flat groups)
  StatsSink* sink_ = nullptr;
  std::uint64_t collective_ordinal_ = 0;
  std::uint64_t intra_traffic_ = 0;
  std::uint64_t inter_traffic_ = 0;
};

// RAII pipeline span: brackets a region of the training loop with
// on_span_begin/on_span_end events at group-level modeled timestamps
// (max over devices, which is monotone, so spans nest correctly in the
// Chrome trace). No-op when the group has no sink attached.
class TraceSpan {
 public:
  TraceSpan(DeviceGroup& group, std::string name) : group_(group) {
    if (group_.sink()) {
      group_.sink()->on_span_begin(name, group_.max_modeled_seconds());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (group_.sink()) group_.sink()->on_span_end(group_.max_modeled_seconds());
  }

 private:
  DeviceGroup& group_;
};

}  // namespace gbmo::sim
