#include "topology/topology.h"

namespace silo::topology {
namespace {

TimeNs queue_capacity_for(Bytes buffer, RateBps rate, TimeNs override_ns) {
  if (override_ns > TimeNs{0}) return override_ns;
  return transmission_time(buffer, rate);
}

}  // namespace

Topology::Topology(const TopologyConfig& cfg) : cfg_(cfg) {
  if (cfg.pods < 1 || cfg.racks_per_pod < 1 || cfg.servers_per_rack < 1 ||
      cfg.vm_slots_per_server < 1)
    throw std::invalid_argument("topology dimensions must be positive");
  if (cfg.oversubscription < 1.0)
    throw std::invalid_argument("oversubscription must be >= 1");

  rack_up_rate_ = cfg.server_link_rate *
                  static_cast<double>(cfg.servers_per_rack) /
                  cfg.oversubscription;
  pod_up_rate_ = rack_up_rate_ * static_cast<double>(cfg.racks_per_pod) /
                 cfg.oversubscription;

  const int servers = num_servers();
  const int racks = num_racks();
  const int pods = num_pods();

  server_up_base_ = 0;
  server_down_base_ = server_up_base_ + servers;
  rack_up_base_ = server_down_base_ + servers;
  rack_down_base_ = rack_up_base_ + racks;
  pod_up_base_ = rack_down_base_ + racks;
  pod_down_base_ = pod_up_base_ + pods;
  ports_.resize(pod_down_base_ + pods);

  auto make = [&](RateBps rate, int level) {
    return Port{rate, cfg.port_buffer,
                queue_capacity_for(cfg.port_buffer, rate,
                                   cfg.queue_capacity_override),
                level};
  };
  for (int s = 0; s < servers; ++s) {
    ports_[server_up_base_ + s] = make(cfg.server_link_rate, 0);
    ports_[server_down_base_ + s] = make(cfg.server_link_rate, 0);
  }
  for (int r = 0; r < racks; ++r) {
    ports_[rack_up_base_ + r] = make(rack_up_rate_, 1);
    ports_[rack_down_base_ + r] = make(rack_up_rate_, 1);
  }
  for (int p = 0; p < pods; ++p) {
    ports_[pod_up_base_ + p] = make(pod_up_rate_, 2);
    ports_[pod_down_base_ + p] = make(pod_up_rate_, 2);
  }
}

PortId Topology::server_up(int server) const {
  check_server(server);
  return {server_up_base_ + server};
}

PortId Topology::server_down(int server) const {
  check_server(server);
  return {server_down_base_ + server};
}

PortId Topology::rack_up(int rack) const {
  if (rack < 0 || rack >= num_racks()) throw std::out_of_range("rack index");
  return {rack_up_base_ + rack};
}

PortId Topology::rack_down(int rack) const {
  if (rack < 0 || rack >= num_racks()) throw std::out_of_range("rack index");
  return {rack_down_base_ + rack};
}

PortId Topology::pod_up(int pod) const {
  if (pod < 0 || pod >= num_pods()) throw std::out_of_range("pod index");
  return {pod_up_base_ + pod};
}

PortId Topology::pod_down(int pod) const {
  if (pod < 0 || pod >= num_pods()) throw std::out_of_range("pod index");
  return {pod_down_base_ + pod};
}

PortSpan Topology::path_span(int src_server, int dst_server) const {
  check_server(src_server);
  check_server(dst_server);
  PortSpan out;
  if (src_server == dst_server) return out;
  const int src_rack = rack_of_server(src_server);
  const int dst_rack = rack_of_server(dst_server);
  out.push(server_up(src_server));
  if (src_rack != dst_rack) {
    out.push(rack_up(src_rack));
    const int src_pod = pod_of_rack(src_rack);
    const int dst_pod = pod_of_rack(dst_rack);
    if (src_pod != dst_pod) {
      out.push(pod_up(src_pod));
      out.push(pod_down(dst_pod));
    }
    out.push(rack_down(dst_rack));
  }
  out.push(server_down(dst_server));
  return out;
}

std::vector<PortId> Topology::path(int src_server, int dst_server) const {
  const PortSpan span = path_span(src_server, dst_server);
  return {span.begin(), span.end()};
}

std::vector<PortId> Topology::switch_path(int src_server,
                                          int dst_server) const {
  auto out = path(src_server, dst_server);
  if (!out.empty()) out.erase(out.begin());  // drop the source NIC egress
  return out;
}

TimeNs Topology::path_queue_capacity(int src_server, int dst_server) const {
  TimeNs total {};
  for (PortId p : switch_path(src_server, dst_server))
    total += port(p).queue_capacity;
  return total;
}

}  // namespace silo::topology
