#include "flowsim/maxmin.h"

#include <algorithm>

namespace silo::flowsim {

MaxMinSolver::MaxMinSolver(const topology::Topology& topo,
                           const FlowTable& table)
    : topo_(topo), table_(table) {
  port_epoch_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  scan_epoch_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  port_cap_.assign(static_cast<std::size_t>(topo.num_ports()), 0.0);
  port_count_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
}

void MaxMinSolver::visit_flow(int f) {
  comp_flows_.push_back(f);
  const SimFlow& fl = table_.flow(f);
  for (int i = 0; i < fl.n_ports; ++i) {
    const int p = fl.ports[static_cast<std::size_t>(i)];
    const auto pi = static_cast<std::size_t>(p);
    if (port_epoch_[pi] != epoch_) {
      port_epoch_[pi] = epoch_;
      port_cap_[pi] = topo_.port({p}).rate.bps();
      port_count_[pi] = 0;
      comp_ports_.push_back(p);
    }
    ++port_count_[pi];
  }
}

const std::vector<std::pair<int, double>>& MaxMinSolver::solve_touching(
    const std::vector<int>& ports, int open_flows_hint) {
  ++epoch_;
  flow_epoch_.resize(static_cast<std::size_t>(table_.size()), 0);
  comp_flows_.clear();
  comp_ports_.clear();
  bfs_stack_.clear();
  const std::size_t bail =
      open_flows_hint > 0 ? static_cast<std::size_t>(open_flows_hint) / 2
                          : static_cast<std::size_t>(-1);
  // Seed the BFS with every open flow currently crossing a touched port;
  // expand across shared ports until the component(s) close. Each port's
  // list is enumerated at most once (scan_epoch_) — membership is static
  // during a solve, so one scan discovers everything.
  auto push_port_flows = [&](int p) {
    const auto si = static_cast<std::size_t>(p);
    if (scan_epoch_[si] == epoch_) return;
    scan_epoch_[si] = epoch_;
    for (int f : table_.flows_on_port(p)) {
      const auto fi = static_cast<std::size_t>(f);
      if (flow_epoch_[fi] != epoch_) {
        flow_epoch_[fi] = epoch_;
        bfs_stack_.push_back(f);
      }
    }
  };
  for (int p : ports) push_port_flows(p);
  while (!bfs_stack_.empty()) {
    const int f = bfs_stack_.back();
    bfs_stack_.pop_back();
    visit_flow(f);
    if (comp_flows_.size() > bail) return solve_all();  // giant component
    const SimFlow& fl = table_.flow(f);
    for (int i = 0; i < fl.n_ports; ++i)
      push_port_flows(fl.ports[static_cast<std::size_t>(i)]);
  }
  waterfill();
  return result_;
}

const std::vector<std::pair<int, double>>& MaxMinSolver::solve_all() {
  ++epoch_;
  comp_flows_.clear();
  comp_ports_.clear();
  const int n = table_.size();
  for (int f = 0; f < n; ++f) {
    const SimFlow& fl = table_.flow(f);
    if (fl.open && fl.n_ports > 0) visit_flow(f);
  }
  waterfill();
  return result_;
}

void MaxMinSolver::waterfill() {
  // comp_flows_/comp_ports_ stay in discovery order: the heap's (share,
  // port id) comparator is a total order, so the pop sequence — and with
  // it every freeze — is independent of insertion order, and the final
  // result sort restores the canonical ascending-flow-id apply order.
  solved_flows_ += static_cast<std::int64_t>(comp_flows_.size());
  result_.clear();
  frozen_epoch_.resize(static_cast<std::size_t>(table_.size()), 0);

  // Bottleneck selection via a lazy min-heap instead of a per-round port
  // scan (dense components made that O(rounds x ports)). Fair shares only
  // rise as rounds release capacity, so a stored key is never above the
  // port's true share: a popped key that still matches the live value is
  // the true strict minimum, with ties to the lowest port id via the pair
  // ordering — the same selection, and the same freeze arithmetic in the
  // same ascending-flow-id order, as the scan it replaces.
  const auto later = [](const std::pair<double, int>& a,
                        const std::pair<double, int>& b) { return a > b; };
  heap_.clear();
  for (int p : comp_ports_) {
    const auto pi = static_cast<std::size_t>(p);
    if (port_count_[pi] > 0)
      heap_.emplace_back(port_cap_[pi] / port_count_[pi], p);
  }
  std::make_heap(heap_.begin(), heap_.end(), later);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [key, p] = heap_.back();
    heap_.pop_back();
    const auto pi = static_cast<std::size_t>(p);
    if (port_count_[pi] == 0) continue;  // fully frozen since the push
    const double share = port_cap_[pi] / port_count_[pi];
    if (share != key) {  // stale-low key: refresh and retry
      heap_.emplace_back(share, p);
      std::push_heap(heap_.begin(), heap_.end(), later);
      continue;
    }
    ++rounds_;
    // Freeze every unfrozen flow crossing the tightest port at its fair
    // share and release that bandwidth from the flow's other ports.
    freeze_.clear();
    for (int f : table_.flows_on_port(p))
      if (frozen_epoch_[static_cast<std::size_t>(f)] != epoch_)
        freeze_.push_back(f);
    std::sort(freeze_.begin(), freeze_.end());
    for (int f : freeze_) {
      frozen_epoch_[static_cast<std::size_t>(f)] = epoch_;
      result_.emplace_back(f, share);
      const SimFlow& fl = table_.flow(f);
      for (int i = 0; i < fl.n_ports; ++i) {
        const auto qi =
            static_cast<std::size_t>(fl.ports[static_cast<std::size_t>(i)]);
        port_cap_[qi] -= share;
        if (port_cap_[qi] < 0.0) port_cap_[qi] = 0.0;
        --port_count_[qi];
      }
    }
  }
  std::sort(result_.begin(), result_.end());
}

}  // namespace silo::flowsim
