// Multi-rooted tree datacenter topology (pods -> racks -> servers -> VM
// slots), modeled as a single logical tree whose inter-switch links
// aggregate the parallel paths of the physical multi-rooted fabric — the
// standard modeling assumption of Oktopus-style placement work.
//
// Every *egress queue* in the fabric is a Port with a line rate, a packet
// buffer, and the derived queue capacity (the paper's "maximum possible
// queue delay before packets are dropped", e.g. 100 KB at 10 Gbps = 80 us).
#pragma once

#include <array>
#include <stdexcept>
#include <vector>

#include "util/units.h"

namespace silo::topology {

struct TopologyConfig {
  int pods = 2;
  int racks_per_pod = 5;
  int servers_per_rack = 40;
  int vm_slots_per_server = 8;
  RateBps server_link_rate = 10 * kGbps;
  /// Oversubscription at each aggregation level (1.0 = full bisection,
  /// 5.0 = the paper's 1:5).
  double oversubscription = 5.0;
  /// Per-port packet buffer (the paper models shallow-buffered ToRs with
  /// 312 KB per port).
  Bytes port_buffer = 312 * kKB;
  /// Optional cap on queue capacity (ns); 0 means "derive from buffer".
  /// The paper notes capacity "can be set to a lower value too".
  TimeNs queue_capacity_override {};
};

/// A directed egress queue in the fabric.
struct Port {
  RateBps rate {};
  Bytes buffer {};
  TimeNs queue_capacity {};  ///< time to drain a full buffer at line rate
  int level = 0;              ///< 0 = server NIC / ToR-to-server, 1 = rack, 2 = pod
};

struct PortId {
  int value = -1;
  friend bool operator==(PortId a, PortId b) { return a.value == b.value; }
};

/// Allocation-free port sequence of one server-to-server path. The longest
/// possible path (inter-pod) crosses six egress queues: src NIC, ToR up,
/// pod up, core down, ToR down, dst link — so a fixed array covers every
/// case and high-rate callers (the flow-level simulator materializes one
/// span per flow) never touch the heap.
struct PortSpan {
  static constexpr int kMaxPorts = 6;
  std::array<PortId, kMaxPorts> port {};
  int size = 0;

  const PortId* begin() const { return port.data(); }
  const PortId* end() const { return port.data() + size; }
  bool empty() const { return size == 0; }
  void push(PortId id) { port[static_cast<std::size_t>(size++)] = id; }
};

class Topology {
 public:
  explicit Topology(const TopologyConfig& cfg);

  const TopologyConfig& config() const { return cfg_; }
  int num_pods() const { return cfg_.pods; }
  int num_racks() const { return cfg_.pods * cfg_.racks_per_pod; }
  int num_servers() const { return num_racks() * cfg_.servers_per_rack; }
  int total_vm_slots() const {
    return num_servers() * cfg_.vm_slots_per_server;
  }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  int rack_of_server(int server) const {
    return server / cfg_.servers_per_rack;
  }
  int pod_of_rack(int rack) const { return rack / cfg_.racks_per_pod; }
  int pod_of_server(int server) const {
    return pod_of_rack(rack_of_server(server));
  }
  int first_server_of_rack(int rack) const {
    return rack * cfg_.servers_per_rack;
  }
  int first_rack_of_pod(int pod) const { return pod * cfg_.racks_per_pod; }

  const Port& port(PortId id) const { return ports_.at(id.value); }

  /// True when the port is a server NIC egress (a pacing conformance
  /// point rather than a switch queue).
  bool is_nic_port(PortId id) const {
    return id.value >= server_up_base_ &&
           id.value < server_up_base_ + num_servers();
  }

  // Directed egress ports. "up" points toward the core, "down" away.
  PortId server_up(int server) const;    ///< server NIC egress -> ToR
  PortId server_down(int server) const;  ///< ToR egress -> server
  PortId rack_up(int rack) const;        ///< ToR egress -> pod switch
  PortId rack_down(int rack) const;      ///< pod switch egress -> ToR
  PortId pod_up(int pod) const;          ///< pod switch egress -> core
  PortId pod_down(int pod) const;        ///< core egress -> pod switch

  /// Ordered list of egress ports a packet traverses from src to dst
  /// server, starting with the source NIC egress (empty when src == dst:
  /// intra-server traffic never touches the fabric).
  std::vector<PortId> path(int src_server, int dst_server) const;

  /// Same ordered ports as path(), as a fixed-size span: no allocation, so
  /// per-flow path materialization is a handful of integer ops.
  PortSpan path_span(int src_server, int dst_server) const;

  /// Same path without the source NIC egress: only *switch* queues. The
  /// NIC is a pacing conformance point — traffic on the wire already
  /// matches its arrival curve — so delay-bound accounting starts at the
  /// first switch.
  std::vector<PortId> switch_path(int src_server, int dst_server) const;

  /// Sum of switch queue capacities along the path — the conservative
  /// per-path delay bound Silo's placement checks against the guarantee.
  TimeNs path_queue_capacity(int src_server, int dst_server) const;

  RateBps rack_uplink_rate() const { return rack_up_rate_; }
  RateBps pod_uplink_rate() const { return pod_up_rate_; }

 private:
  void check_server(int server) const {
    if (server < 0 || server >= num_servers())
      throw std::out_of_range("server index");
  }

  TopologyConfig cfg_;
  RateBps rack_up_rate_ {};
  RateBps pod_up_rate_ {};
  std::vector<Port> ports_;
  // Port layout offsets.
  int server_up_base_ = 0, server_down_base_ = 0, rack_up_base_ = 0,
      rack_down_base_ = 0, pod_up_base_ = 0, pod_down_base_ = 0;
};

}  // namespace silo::topology
