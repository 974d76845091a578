// Hose-model rate coordination (§4.3): the per-destination token buckets of
// a tenant's pacers must be set so that for every VM, the sum of its send
// rates <= B and the sum of rates toward it <= B (the receiver constraint
// is what EyeQ's source/destination message exchange enforces).
//
// We compute the max-min fair allocation of the active demand matrix under
// those per-VM caps with iterative water-filling. The same routine is the
// bandwidth-sharing core of the flow-level simulator.
#pragma once

#include <vector>

#include "util/units.h"

namespace silo::pacer {

struct HoseDemand {
  int src = 0;
  int dst = 0;
  /// Demand ceiling in bits/s; use an effectively-infinite value for
  /// backlogged flows.
  RateBps demand {};
};

/// Max-min fair rates for `demands` subject to per-endpoint caps:
/// sum over flows leaving `v`  <= send_cap[v]
/// sum over flows entering `v` <= recv_cap[v]
/// Returns one rate per demand, in order.
std::vector<RateBps> hose_allocate(const std::vector<HoseDemand>& demands,
                                   const std::vector<RateBps>& send_cap,
                                   const std::vector<RateBps>& recv_cap);

}  // namespace silo::pacer
