// Communication patterns used across the paper's evaluation: all-to-one
// (OLDI partition-aggregate), all-to-all (shuffle), and Permutation-x.
#pragma once

#include <utility>
#include <vector>

#include "util/rng.h"

namespace silo::workload {

using Pair = std::pair<int, int>;  ///< (src VM, dst VM), tenant-local ids

/// Every VM except `receiver` sends to `receiver`.
std::vector<Pair> all_to_one(int n_vms, int receiver = 0);

/// Every ordered pair (i, j), i != j.
std::vector<Pair> all_to_all(int n_vms);

/// Each VM gets flows to x randomly chosen other VMs (§6.3): fractional x
/// means only that fraction of VMs send; x = n-1 reduces to all-to-all.
std::vector<Pair> permutation(int n_vms, double x, Rng& rng);

}  // namespace silo::workload
