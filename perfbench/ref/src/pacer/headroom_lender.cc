#include "pacer/headroom_lender.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace silo::pacer {
namespace {

/// Lease identity: one lease per (owner, borrower, borrower VM, server).
using LeaseKey = std::tuple<std::int64_t, std::int64_t, int, int>;

LeaseKey key_of(const PacerLeaseRecord& l) {
  return {l.owner, l.borrower, l.vm_index, l.server};
}

}  // namespace

LenderDecision HeadroomLender::evaluate(
    TimeNs epoch_len, std::vector<LenderVmStats> vms,
    const std::vector<PacerLeaseRecord>& active) const {
  std::sort(vms.begin(), vms.end(), [](const auto& a, const auto& b) {
    return std::tie(a.server, a.tenant, a.vm_index) <
           std::tie(b.server, b.tenant, b.vm_index);
  });

  const auto idle = [&](const LenderVmStats& v) {
    const Bytes threshold = (v.reserved * cfg_.idle_fraction) * epoch_len;
    return v.backlog <= Bytes{0} && v.sent < threshold;
  };

  // Desired lease set for the coming epoch, one entry per LeaseKey.
  std::map<LeaseKey, RateBps> desired;
  for (std::size_t lo = 0; lo < vms.size();) {
    std::size_t hi = lo;
    while (hi < vms.size() && vms[hi].server == vms[lo].server) ++hi;

    // Every VM of a backlogged tenant is a borrower candidate, not just the
    // VMs with local send backlog: the hose allocation caps a pair at the
    // *receiver's* hose rate too, so a pure receiver must have its lease as
    // well or the extra rate dies at the destination cap.
    std::vector<const LenderVmStats*> busy;
    for (std::size_t i = lo; i < hi; ++i) {
      if (vms[i].tenant_backlog > Bytes{0}) busy.push_back(&vms[i]);
    }

    for (std::size_t i = lo; i < hi; ++i) {
      const auto& owner = vms[i];
      // Tenant-wide veto: demand anywhere in the owner's tenant reclaims
      // every one of its leases next epoch, even from VMs that are
      // send-idle themselves (they may be the busy VM's receivers, and
      // the demand could migrate to them an epoch later).
      if (!owner.guaranteed || owner.reserved <= RateBps{0} ||
          owner.tenant_backlog > Bytes{0} || !idle(owner))
        continue;
      int takers = 0;
      for (const auto* b : busy)
        if (b->tenant != owner.tenant) ++takers;
      if (takers == 0) continue;
      const RateBps share =
          (owner.reserved * cfg_.lend_fraction) / static_cast<double>(takers);
      for (const auto* b : busy) {
        if (b->tenant == owner.tenant) continue;
        desired[{owner.tenant, b->tenant, b->vm_index, b->server}] += share;
      }
    }
    lo = hi;
  }

  std::map<LeaseKey, const PacerLeaseRecord*> live;
  for (const auto& l : active) live.emplace(key_of(l), &l);

  LenderDecision out;
  for (const auto& [key, rate] : desired) {
    if (rate < cfg_.min_lease_rate) continue;
    PacerLeaseRecord lease;
    const auto it = live.find(key);
    lease.id = it == live.end() ? 0 : it->second->id;  // renew in place
    lease.owner = std::get<0>(key);
    lease.borrower = std::get<1>(key);
    lease.vm_index = std::get<2>(key);
    lease.server = std::get<3>(key);
    lease.rate = rate;
    out.upserts.push_back(lease);
  }
  for (const auto& [key, l] : live) {
    const auto it = desired.find(key);
    if (it == desired.end() || it->second < cfg_.min_lease_rate)
      out.revokes.push_back(l->id);
  }
  std::sort(out.revokes.begin(), out.revokes.end());
  return out;
}

}  // namespace silo::pacer
