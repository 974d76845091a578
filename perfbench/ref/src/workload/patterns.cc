#include "workload/patterns.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace silo::workload {

std::vector<Pair> all_to_one(int n_vms, int receiver) {
  if (n_vms < 2) throw std::invalid_argument("all_to_one needs >= 2 VMs");
  std::vector<Pair> out;
  out.reserve(static_cast<std::size_t>(n_vms) - 1);
  for (int i = 0; i < n_vms; ++i)
    if (i != receiver) out.emplace_back(i, receiver);
  return out;
}

std::vector<Pair> all_to_all(int n_vms) {
  if (n_vms < 2) throw std::invalid_argument("all_to_all needs >= 2 VMs");
  std::vector<Pair> out;
  out.reserve(static_cast<std::size_t>(n_vms) * (n_vms - 1));
  for (int i = 0; i < n_vms; ++i)
    for (int j = 0; j < n_vms; ++j)
      if (i != j) out.emplace_back(i, j);
  return out;
}

std::vector<Pair> permutation(int n_vms, double x, Rng& rng) {
  if (n_vms < 2) throw std::invalid_argument("permutation needs >= 2 VMs");
  if (x <= 0) throw std::invalid_argument("permutation x must be positive");
  std::vector<Pair> out;
  const int per_vm = static_cast<int>(std::floor(x));
  const double frac = x - per_vm;
  for (int i = 0; i < n_vms; ++i) {
    int flows = std::min(per_vm, n_vms - 1);
    if (frac > 0 && rng.uniform() < frac && flows < n_vms - 1) ++flows;
    // Sample distinct destinations != i.
    std::vector<int> candidates;
    candidates.reserve(static_cast<std::size_t>(n_vms) - 1);
    for (int j = 0; j < n_vms; ++j)
      if (j != i) candidates.push_back(j);
    for (int f = 0; f < flows; ++f) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1));
      out.emplace_back(i, candidates[pick]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  return out;
}

}  // namespace silo::workload
