// Flow table of the flow-level simulator: pooled per-flow state plus the
// port-occupancy index (port -> open fabric flows) that the incremental
// max-min solver walks to find the connected component a flow change
// touches.
//
// Flow slots are recycled through a free list, so table size is bounded by
// the peak number of *concurrent* flows, not the total ever created (a
// 32K-server run churns millions). Every slot carries a generation that is
// bumped on each recycle and on each rate change; stale heap entries
// (completion predictions made under an older rate) are detected by
// generation mismatch and discarded lazily.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "topology/topology.h"

namespace silo::flowsim {

struct SimFlow {
  std::int32_t job = -1;
  std::int32_t src_local = -1, dst_local = -1;
  double remaining = 0;   ///< bytes outstanding as of updated_s
  double rate = 0;        ///< bits/s, piecewise constant between re-solves
  double updated_s = 0;   ///< last analytic integration point
  /// Bumped on recycle and on every rate change; completion predictions
  /// carry the generation they were made under.
  std::uint32_t generation = 0;
  /// Fabric egress ports (path order) and, per port, this flow's position
  /// in that port's occupancy list — so unlinking is O(path length).
  std::array<std::int32_t, topology::PortSpan::kMaxPorts> ports {};
  std::array<std::int32_t, topology::PortSpan::kMaxPorts> port_pos {};
  std::uint8_t n_ports = 0;  ///< 0 for intra-server flows (no fabric hop)
  bool open = false;
};

class FlowTable {
 public:
  explicit FlowTable(int num_ports)
      : port_flows_(static_cast<std::size_t>(num_ports)) {}

  /// Allocate (or recycle) a slot and link it into the occupancy index.
  /// The slot's generation survives recycling, so predictions against a
  /// previous occupant can never be mistaken for the new one.
  int allocate(const topology::PortSpan& span) {
    int f;
    if (!free_.empty()) {
      f = free_.back();
      free_.pop_back();
    } else {
      f = static_cast<int>(flows_.size());
      flows_.emplace_back();
    }
    SimFlow& fl = flows_[static_cast<std::size_t>(f)];
    const std::uint32_t gen = fl.generation + 1;
    fl = SimFlow{};
    fl.generation = gen;
    fl.open = true;
    fl.n_ports = static_cast<std::uint8_t>(span.size);
    for (int i = 0; i < span.size; ++i) {
      const int p = span.port[static_cast<std::size_t>(i)].value;
      auto& list = port_flows_[static_cast<std::size_t>(p)];
      fl.ports[static_cast<std::size_t>(i)] = p;
      fl.port_pos[static_cast<std::size_t>(i)] = static_cast<int>(list.size());
      list.push_back(f);
    }
    return f;
  }

  /// Close a flow: unlink it from the occupancy index (swap-with-back, the
  /// moved flow's back-pointer is patched) and return the slot to the free
  /// list. The slot stays readable until recycled.
  void close(int f) {
    SimFlow& fl = flows_[static_cast<std::size_t>(f)];
    for (int i = 0; i < fl.n_ports; ++i) {
      const int p = fl.ports[static_cast<std::size_t>(i)];
      auto& list = port_flows_[static_cast<std::size_t>(p)];
      const int pos = fl.port_pos[static_cast<std::size_t>(i)];
      const int moved = list.back();
      list[static_cast<std::size_t>(pos)] = moved;
      list.pop_back();
      if (moved != f) {
        SimFlow& mf = flows_[static_cast<std::size_t>(moved)];
        for (int j = 0; j < mf.n_ports; ++j) {
          if (mf.ports[static_cast<std::size_t>(j)] == p) {
            mf.port_pos[static_cast<std::size_t>(j)] = pos;
            break;
          }
        }
      }
    }
    fl.open = false;
    fl.rate = 0;
    free_.push_back(f);
  }

  SimFlow& flow(int f) { return flows_[static_cast<std::size_t>(f)]; }
  const SimFlow& flow(int f) const {
    return flows_[static_cast<std::size_t>(f)];
  }

  /// Open fabric flows currently crossing port `p` (unspecified order).
  const std::vector<int>& flows_on_port(int p) const {
    return port_flows_[static_cast<std::size_t>(p)];
  }

  int num_ports() const { return static_cast<int>(port_flows_.size()); }
  /// Slot-table size (peak concurrent flows), not the live count.
  int size() const { return static_cast<int>(flows_.size()); }

 private:
  std::vector<SimFlow> flows_;
  std::vector<int> free_;
  std::vector<std::vector<int>> port_flows_;
};

}  // namespace silo::flowsim
