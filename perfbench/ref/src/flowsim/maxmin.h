// Max-min fair rate solver over the flow<->port sharing graph, used by the
// flow-level simulator's locality baseline (ideal per-flow TCP fairness).
//
// Two entry points share one waterfill routine:
//   - solve_touching(ports): incremental — BFS the connected component(s) of
//     the sharing graph reachable from the given ports, then waterfill only
//     those flows. A flow add/remove can only change rates inside its own
//     component, so this is exact, not approximate.
//   - solve_all(): reference — waterfill every open fabric flow at once.
//
// Bit-identical equivalence: the waterfill freezes flows bottleneck-first,
// always picking the *strictly* smallest per-port fair share, with ties
// broken by ascending port id. A port's fair share and residual capacity
// are arithmetic over that port's own flows only, so interleaving other
// components into the scan (as solve_all does) changes neither the values
// nor the freeze round a flow lands in. Results are sorted by flow id
// before returning, so the caller's apply order is identical under both
// entry points — the foundation of SolverMode::kReference equivalence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "flowsim/flow_table.h"
#include "topology/topology.h"

namespace silo::flowsim {

class MaxMinSolver {
 public:
  MaxMinSolver(const topology::Topology& topo, const FlowTable& table);

  /// Re-solve the component(s) of the sharing graph containing `ports`
  /// (the path ports of just-added or just-removed flows; removed flows
  /// must already be unlinked). Returns (flow, rate_bps) sorted by flow
  /// id, covering every flow in the touched components — including flows
  /// whose rate comes out unchanged; the caller's apply gate skips those.
  ///
  /// `open_flows_hint` (0 = unknown) is the caller's live open-flow
  /// count: once the BFS has visited more than half of it, the component
  /// is effectively global — discovery is abandoned and the solve
  /// restarts as solve_all(), whose linear table scan beats the
  /// scatter-walk. A superset solve waterfills to bit-identical rates,
  /// so this is purely a cost decision.
  const std::vector<std::pair<int, double>>& solve_touching(
      const std::vector<int>& ports, int open_flows_hint = 0);

  /// Reference: solve every open fabric flow from scratch.
  const std::vector<std::pair<int, double>>& solve_all();

  std::int64_t waterfill_rounds() const { return rounds_; }
  std::int64_t solved_flows() const { return solved_flows_; }

 private:
  void visit_flow(int f);
  void waterfill();

  const topology::Topology& topo_;
  const FlowTable& table_;

  // Epoch-stamped scratch: bumping epoch_ invalidates every mark without
  // touching the arrays, so a component re-solve costs O(component), not
  // O(cluster).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> flow_epoch_, port_epoch_;
  /// Port list already enumerated by this solve's BFS. Without this mark
  /// a port's list is rescanned once per incident visited flow — O(k^2)
  /// per k-flow port, ruinous on saturated core ports.
  std::vector<std::uint32_t> scan_epoch_;
  std::vector<double> port_cap_;   ///< residual capacity, valid when marked
  std::vector<int> port_count_;    ///< unfrozen flows crossing, when marked

  std::vector<int> comp_flows_, comp_ports_;  ///< discovery order
  std::vector<int> bfs_stack_, freeze_;
  std::vector<std::uint32_t> frozen_epoch_;
  /// Lazy min-heap of (fair share, port id) candidates. Shares only rise
  /// as rounds release capacity, so a stored key is never above the true
  /// share — popping a key that still matches is popping the true minimum.
  std::vector<std::pair<double, int>> heap_;
  std::vector<std::pair<int, double>> result_;

  std::int64_t rounds_ = 0, solved_flows_ = 0;
};

}  // namespace silo::flowsim
