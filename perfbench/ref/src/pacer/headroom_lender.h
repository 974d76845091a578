// Work-conserving headroom lender (docs/WORKCONSERVING.md).
//
// Silo's admission control reserves each guaranteed tenant's hose rate B on
// every traversed port whether or not the tenant is sending. The lender
// recovers that stranded capacity: once per pacer epoch it inspects each
// guaranteed VM's measured demand, declares VMs idle when they sent less
// than `idle_fraction` of their reservation and hold no backlog, and lends
// `lend_fraction` of the idle reservation to colocated VMs of *other*
// backlogged tenants as epoch-bounded leases. Every VM of a backlogged
// tenant participates — the hose allocation caps a pair at the receiver's
// hose rate as well, so the receive end needs the raise too.
//
// Safety rests on two properties the policy never violates:
//   1. The owner's own pacer is untouched — a lease raises the borrower's
//      hose rate, it never lowers the owner's. When demand returns
//      anywhere in the owner's tenant, the next epoch's evaluation revokes
//      every lease the tenant granted (reclamation within one epoch), and
//      even a lost revoke is bounded by the lease's expiry epoch, enforced
//      by the server's own clock.
//   2. Leases are only cut from capacity the admission control already
//      reserved on this server's ports, so the port is never oversubscribed
//      beyond the admitted envelope for longer than one epoch's transient.
//
// The policy is a pure deterministic function of its inputs: same stats and
// same active set in, same decision out — no clocks, no randomness.
#pragma once

#include <cstdint>
#include <vector>

#include "pacer/pacer_config.h"
#include "util/units.h"

namespace silo::pacer {

struct LenderConfig {
  /// A VM is idle when it sent < idle_fraction * B * epoch and holds no
  /// backlog.
  double idle_fraction = 0.1;
  /// Fraction of an idle VM's reservation that is lent out; the remainder
  /// stays as slack for the owner's return transient.
  double lend_fraction = 0.75;
  /// Grants below this rate are not worth a lease record.
  RateBps min_lease_rate = 50 * kMbps;
  /// Lease lifetime in epochs. Renewal re-upserts the same id each epoch
  /// while the owner stays idle; 2 tolerates one lost renewal without a
  /// reclamation gap.
  std::uint64_t duration_epochs = 2;
};

/// One paced VM's view for a single epoch, as measured by the issuer.
struct LenderVmStats {
  std::int64_t tenant = -1;  ///< issuer-local tenant id
  int vm_index = 0;          ///< tenant-local VM index
  int server = 0;
  RateBps reserved {};       ///< admitted hose rate B (without leases)
  bool guaranteed = false;   ///< only guaranteed reservations are lendable
  Bytes sent {};             ///< bytes stamped over the last epoch
  Bytes backlog {};          ///< unsent bytes queued at this VM
  Bytes tenant_backlog {};   ///< total backlog across the whole tenant
};

struct LenderDecision {
  /// Leases to create or renew. New leases carry id 0 (the issuer assigns);
  /// renewals keep their existing id so the data plane extends in place.
  /// issued_epoch / expiry_epoch are left for the issuer to stamp.
  std::vector<PacerLeaseRecord> upserts;
  /// Active lease ids to reclaim now (owner demand returned or borrower
  /// went idle) — faster than waiting for expiry.
  std::vector<std::uint64_t> revokes;
};

class HeadroomLender {
 public:
  explicit HeadroomLender(const LenderConfig& cfg) : cfg_(cfg) {}

  const LenderConfig& config() const { return cfg_; }

  /// Compute the desired lease set for the coming epoch and diff it against
  /// `active` (the issuer's live lease table). `epoch_len` converts the
  /// idle threshold into bytes. Deterministic: inputs are canonicalized by
  /// sorting before evaluation.
  LenderDecision evaluate(TimeNs epoch_len,
                          std::vector<LenderVmStats> vms,
                          const std::vector<PacerLeaseRecord>& active) const;

 private:
  LenderConfig cfg_;
};

}  // namespace silo::pacer
