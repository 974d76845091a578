#include "pacer/hose_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace silo::pacer {

std::vector<RateBps> hose_allocate(const std::vector<HoseDemand>& demands,
                                   const std::vector<RateBps>& send_cap,
                                   const std::vector<RateBps>& recv_cap) {
  if (send_cap.size() != recv_cap.size())
    throw std::invalid_argument("cap vectors must have equal size");
  const auto n_caps = static_cast<int>(send_cap.size());
  std::vector<RateBps> rate(demands.size(), RateBps{0.0});
  std::vector<RateBps> send_left = send_cap;
  std::vector<RateBps> recv_left = recv_cap;
  std::vector<RateBps> want(demands.size());
  std::vector<bool> frozen(demands.size(), false);

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& d = demands[i];
    if (d.src < 0 || d.src >= n_caps || d.dst < 0 || d.dst >= n_caps)
      throw std::out_of_range("demand endpoint out of range");
    want[i] = d.demand;
    if (d.demand <= RateBps{0}) frozen[i] = true;
  }

  // Progressive filling: raise all unfrozen flows together until one hits
  // its demand or saturates an endpoint; freeze and repeat. Each round
  // freezes at least one flow, so at most demands.size() rounds.
  for (;;) {
    std::vector<int> active_out(n_caps, 0), active_in(n_caps, 0);
    int unfrozen = 0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (frozen[i]) continue;
      ++unfrozen;
      ++active_out[demands[i].src];
      ++active_in[demands[i].dst];
    }
    if (unfrozen == 0) break;

    // The uniform increment every active flow can still take.
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (frozen[i]) continue;
      inc = std::min(inc, (want[i] - rate[i]).bps());
      inc = std::min(inc, send_left[demands[i].src].bps() /
                              static_cast<double>(active_out[demands[i].src]));
      inc = std::min(inc, recv_left[demands[i].dst].bps() /
                              static_cast<double>(active_in[demands[i].dst]));
    }
    if (!(inc > 0) || !std::isfinite(inc)) inc = 0;

    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (frozen[i]) continue;
      rate[i] += RateBps{inc};
      send_left[demands[i].src] -= RateBps{inc};
      recv_left[demands[i].dst] -= RateBps{inc};
    }
    // Freeze satisfied flows and flows on saturated endpoints.
    bool any_frozen = false;
    constexpr double kEps = 1e-6;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (frozen[i]) continue;
      const bool sated = rate[i] >= want[i] - RateBps{kEps};
      const bool src_full = send_left[demands[i].src].bps() <= kEps;
      const bool dst_full = recv_left[demands[i].dst].bps() <= kEps;
      if (sated || src_full || dst_full) {
        frozen[i] = true;
        any_frozen = true;
      }
    }
    if (!any_frozen) break;  // numerical stall guard
  }
  return rate;
}

}  // namespace silo::pacer
