#include "core/controller.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "netcalc/curve.h"

namespace silo {

SiloController::SiloController(const topology::TopologyConfig& topo,
                               const Options& options)
    : topo_(topo),
      engine_(topo_, options.policy, options.nic_delay_allowance,
              options.hose_tightening, options.admission_mode) {
  m_admissions_ = metrics_.counter("controller.admissions", "tenants",
                                   "controller");
  m_rejections_ = metrics_.counter("controller.rejections", "tenants",
                                   "controller");
  m_releases_ = metrics_.counter("controller.releases", "tenants",
                                 "controller");
  m_replaced_ = metrics_.counter("controller.recovery.replaced", "tenants",
                                 "controller");
  m_degraded_ = metrics_.counter("controller.recovery.degraded", "tenants",
                                 "controller");
  m_unplaced_ = metrics_.counter("controller.recovery.unplaced", "tenants",
                                 "controller");
  m_promotions_ = metrics_.counter("controller.recovery.promotions", "tenants",
                                   "controller");
  m_diff_deltas_ = metrics_.counter("controller.diff.deltas", "deltas",
                                    "controller");
  m_diff_upserts_ = metrics_.counter("controller.diff.upserts", "records",
                                     "controller");
  m_diff_removes_ = metrics_.counter("controller.diff.removes", "records",
                                     "controller");
  m_lease_granted_ = metrics_.counter("controller.lease.granted", "leases",
                                      "controller");
  m_lease_revoked_ = metrics_.counter("controller.lease.revoked", "leases",
                                      "controller");
  m_lease_expired_ = metrics_.counter("controller.lease.expired", "leases",
                                      "controller");
  m_lease_rejected_ = metrics_.counter("controller.lease.rejected", "leases",
                                       "controller");
  m_lease_active_ = metrics_.gauge("controller.lease.active", "leases",
                                   "controller");
}

void SiloController::journal_op(JournalRecord rec) {
  if (journal_ == nullptr || replaying_) return;
  journal_->append(std::move(rec));
}

void SiloController::maybe_compact() {
  if (journal_ == nullptr || replaying_ || snapshot_every_ <= 0) return;
  if (++ops_since_snapshot_ < snapshot_every_) return;
  journal_->compact(snapshot());
  ops_since_snapshot_ = 0;
}

void SiloController::attach_journal(DeltaJournal* journal,
                                    std::int64_t snapshot_every) {
  journal_ = journal;
  snapshot_every_ = snapshot_every;
  ops_since_snapshot_ = 0;
}

std::optional<TenantHandle> SiloController::admit(
    const TenantRequest& request) {
  JournalRecord jrec;
  jrec.op = JournalOp::kAdmit;
  jrec.request = request;
  journal_op(std::move(jrec));
  auto placed = engine_.place(request);
  if (!placed) {
    m_rejections_.inc();
    maybe_compact();
    return std::nullopt;
  }
  m_admissions_.inc();
  TenantHandle handle{placed->id, placed->vm_to_server};
  auto it = tenants_
                .emplace(placed->id,
                         TenantState{request, placed->vm_to_server, {},
                                     placed->id, TenantStatus::kGuaranteed})
                .first;
  engine_to_external_.emplace(placed->id, placed->id);
  emit_config_deltas(placed->id, it->second,
                     request.tenant_class != TenantClass::kBestEffort);
  maybe_compact();
  return handle;
}

void SiloController::release(const TenantHandle& handle) {
  auto it = tenants_.find(handle.id);
  if (it == tenants_.end()) return;
  JournalRecord jrec;
  jrec.op = JournalOp::kRelease;
  jrec.tenant = handle.id;
  journal_op(std::move(jrec));
  auto& state = it->second;
  if (state.engine_id >= 0) {
    engine_.remove(state.engine_id);
    engine_to_external_.erase(state.engine_id);
  }
  revoke_leases_for_tenant(handle.id);
  emit_config_deltas(handle.id, state, /*now_paced=*/false);
  count_status(handle.id, state.status, -1);
  tenants_.erase(it);
  m_releases_.inc();
  maybe_compact();
}

void SiloController::count_status(placement::TenantId id, TenantStatus status,
                                  int delta) {
  std::set<placement::TenantId>* index = nullptr;
  if (status == TenantStatus::kDegraded) index = &degraded_;
  if (status == TenantStatus::kUnplaced) index = &unplaced_;
  if (index == nullptr) return;
  if (delta > 0) {
    index->insert(id);
  } else {
    index->erase(id);
  }
}

std::vector<placement::TenantId> SiloController::to_external(
    const std::vector<placement::TenantId>& engine_ids) const {
  std::vector<placement::TenantId> out;
  out.reserve(engine_ids.size());
  for (const auto eid : engine_ids) {
    auto it = engine_to_external_.find(eid);
    if (it != engine_to_external_.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<placement::TenantId> SiloController::non_guaranteed_tenants()
    const {
  std::vector<placement::TenantId> out;
  out.reserve(degraded_.size() + unplaced_.size());
  std::merge(degraded_.begin(), degraded_.end(), unplaced_.begin(),
             unplaced_.end(), std::back_inserter(out));
  return out;
}

PacerConfigRecord SiloController::make_record(placement::TenantId id,
                                              const TenantState& state,
                                              int vm) const {
  PacerConfigRecord rec;
  rec.tenant = id;
  rec.vm_index = vm;
  rec.server = state.vm_to_server[static_cast<std::size_t>(vm)];
  rec.guarantee = state.request.guarantee;
  for (int p = 0; p < state.request.num_vms; ++p) {
    if (p == vm) continue;
    rec.peers.emplace_back(p, state.vm_to_server[static_cast<std::size_t>(p)]);
  }
  return rec;
}

void SiloController::append_records(
    placement::TenantId id, const TenantState& state,
    std::vector<PacerConfigRecord>& out) const {
  if (state.request.tenant_class == TenantClass::kBestEffort) return;
  for (int v = 0; v < state.request.num_vms; ++v) {
    out.push_back(make_record(id, state, v));
  }
}

void SiloController::emit_config_deltas(placement::TenantId id,
                                        TenantState& state, bool now_paced) {
  if (engine_.admission_mode() != placement::AdmissionMode::kIncremental) {
    // Full-snapshot protocol: nothing queued, but track shipped state so a
    // mode flip mid-life (not supported) fails loudly in tests.
    state.paced_vm_to_server.clear();
    if (now_paced) state.paced_vm_to_server = state.vm_to_server;
    return;
  }
  const bool was_paced = !state.paced_vm_to_server.empty();
  if (!was_paced && !now_paced) return;
  // One delta per affected server; within a delta removals apply before
  // upserts, so a VM whose record merely changed (e.g. a peer moved) is
  // simply rewritten in place.
  std::map<int, PacerConfigDelta> by_server;
  for (std::size_t v = 0; v < state.paced_vm_to_server.size(); ++v) {
    const int server = state.paced_vm_to_server[v];
    if (server < 0) continue;
    by_server[server].removes.emplace_back(id, static_cast<int>(v));
  }
  if (now_paced) {
    for (int v = 0; v < state.request.num_vms; ++v) {
      const int server = state.vm_to_server[static_cast<std::size_t>(v)];
      by_server[server].upserts.push_back(make_record(id, state, v));
    }
  }
  for (auto& [server, delta] : by_server) {
    delta.server = server;
    delta.lease_epoch = lease_epoch_;
    m_diff_deltas_.inc();
    m_diff_upserts_.inc(static_cast<std::int64_t>(delta.upserts.size()));
    m_diff_removes_.inc(static_cast<std::int64_t>(delta.removes.size()));
    pending_deltas_.push_back(std::move(delta));
  }
  state.paced_vm_to_server.clear();
  if (now_paced) state.paced_vm_to_server = state.vm_to_server;
}

std::vector<PacerConfigDelta> SiloController::drain_config_deltas() {
  std::vector<PacerConfigDelta> out;
  out.swap(pending_deltas_);
  return out;
}

// --- Work-conserving leases ---------------------------------------------

void SiloController::emit_lease_delta(int server,
                                      std::vector<std::uint64_t> removes,
                                      std::vector<PacerLeaseRecord> upserts) {
  if (engine_.admission_mode() != placement::AdmissionMode::kIncremental)
    return;  // lease overlays ride the delta protocol only
  PacerConfigDelta delta;
  delta.server = server;
  delta.lease_epoch = lease_epoch_;
  delta.lease_removes = std::move(removes);
  delta.lease_upserts = std::move(upserts);
  m_diff_deltas_.inc();
  pending_deltas_.push_back(std::move(delta));
}

std::optional<std::uint64_t> SiloController::grant_lease(
    placement::TenantId owner, placement::TenantId borrower, int borrower_vm,
    RateBps rate, std::uint64_t duration_epochs) {
  // Write-ahead: the *inputs* are journaled (like admit journals the
  // request); replay re-runs validation and the id allocator, so the
  // outcome — including rejections — reproduces deterministically.
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseGrant;
  jrec.lease.owner = owner;
  jrec.lease.borrower = borrower;
  jrec.lease.vm_index = borrower_vm;
  jrec.lease.rate = rate;
  jrec.lease.expiry_epoch = duration_epochs;  // relative until granted
  journal_op(std::move(jrec));

  const auto oit = tenants_.find(owner);
  const auto bit = tenants_.find(borrower);
  bool ok = oit != tenants_.end() && bit != tenants_.end() &&
            owner != borrower && duration_epochs > 0 && rate.bps() > 0;
  if (ok) {
    const auto& ostate = oit->second;
    // Only a paced, fully-guaranteed owner has a reservation to lend, and
    // it cannot lend more than its own per-VM hose rate.
    ok = ostate.status == TenantStatus::kGuaranteed &&
         ostate.request.tenant_class != TenantClass::kBestEffort &&
         rate.bps() <= ostate.request.guarantee.bandwidth.bps();
  }
  int server = -1;
  if (ok) {
    const auto& bstate = bit->second;
    ok = borrower_vm >= 0 && borrower_vm < bstate.request.num_vms;
    if (ok) server = bstate.vm_to_server[static_cast<std::size_t>(borrower_vm)];
    ok = ok && server >= 0;
  }
  if (ok) {
    // Same-server lending only: the lent headroom is the owner's idle
    // uplink reservation on the very NIC the borrower shares.
    const auto& placed = oit->second.vm_to_server;
    ok = std::find(placed.begin(), placed.end(), server) != placed.end();
  }
  if (!ok) {
    m_lease_rejected_.inc();
    maybe_compact();
    return std::nullopt;
  }
  PacerLeaseRecord lease;
  lease.id = next_lease_id_++;
  lease.owner = owner;
  lease.borrower = borrower;
  lease.vm_index = borrower_vm;
  lease.server = server;
  lease.rate = rate;
  lease.issued_epoch = lease_epoch_;
  lease.expiry_epoch = lease_epoch_ + duration_epochs;
  leases_.emplace(lease.id, lease);
  m_lease_granted_.inc();
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  emit_lease_delta(server, {}, {lease});
  maybe_compact();
  return lease.id;
}

bool SiloController::revoke_lease(std::uint64_t id) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseRevoke;
  jrec.lease.id = id;
  journal_op(std::move(jrec));
  const auto it = leases_.find(id);
  if (it == leases_.end()) {
    maybe_compact();
    return false;
  }
  const int server = it->second.server;
  leases_.erase(it);
  m_lease_revoked_.inc();
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  emit_lease_delta(server, {id}, {});
  maybe_compact();
  return true;
}

std::vector<PacerLeaseRecord> SiloController::advance_lease_epoch() {
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseEpoch;
  journal_op(std::move(jrec));
  ++lease_epoch_;
  // Expired leases get no remove: agents kill them locally when the
  // epoch-stamped heartbeat (or their own clock) reaches expiry_epoch —
  // data-plane expiry must never depend on a delivery.
  std::vector<PacerLeaseRecord> expired;
  std::vector<int> servers;
  for (auto it = leases_.begin(); it != leases_.end();) {
    servers.push_back(it->second.server);
    if (it->second.expiry_epoch <= lease_epoch_) {
      expired.push_back(it->second);
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  m_lease_expired_.inc(static_cast<std::int64_t>(expired.size()));
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  std::sort(servers.begin(), servers.end());
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  for (const int s : servers) emit_lease_delta(s, {}, {});
  maybe_compact();
  return expired;
}

void SiloController::revoke_leases_for_tenant(placement::TenantId id) {
  std::map<int, std::vector<std::uint64_t>> by_server;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.owner == id || it->second.borrower == id) {
      by_server[it->second.server].push_back(it->first);
      m_lease_revoked_.inc();
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  if (by_server.empty()) return;
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  for (auto& [server, ids] : by_server)
    emit_lease_delta(server, std::move(ids), {});
}

std::vector<PacerLeaseRecord> SiloController::active_leases() const {
  std::vector<PacerLeaseRecord> out;
  out.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) out.push_back(lease);
  return out;
}

RecoveryReport SiloController::recover(
    std::vector<placement::TenantId> affected) {
  std::sort(affected.begin(), affected.end());
  RecoveryReport report;
  report.affected = affected;
  for (const auto id : affected) {
    auto& state = tenants_.at(id);
    const TenantStatus old_status = state.status;
    count_status(id, old_status, -1);
    // Placement is about to change under any lease this tenant lends or
    // borrows; reclaim first (inside the already-journaled failure op).
    revoke_leases_for_tenant(id);
    if (state.engine_id >= 0) {
      engine_.remove(state.engine_id);
      engine_to_external_.erase(state.engine_id);
      state.engine_id = -1;
    }
    // Full re-admission first: exactly the network-calculus checks the
    // tenant's original admission ran, against the post-failure fabric.
    if (auto placed = engine_.place(state.request)) {
      if (old_status != TenantStatus::kGuaranteed) m_promotions_.inc();
      state.engine_id = placed->id;
      engine_to_external_.emplace(placed->id, id);
      state.vm_to_server = placed->vm_to_server;
      state.status = TenantStatus::kGuaranteed;
      report.replaced.push_back(id);
      m_replaced_.inc();
      append_records(id, state, report.refreshed);
      emit_config_deltas(
          id, state, state.request.tenant_class != TenantClass::kBestEffort);
      continue;
    }
    // Guarantees infeasible: run the VMs best-effort (slots only, low
    // priority, unpaced) so the tenant keeps computing while degraded.
    TenantRequest degraded = state.request;
    degraded.tenant_class = TenantClass::kBestEffort;
    if (auto placed = engine_.place(degraded)) {
      state.engine_id = placed->id;
      engine_to_external_.emplace(placed->id, id);
      state.vm_to_server = placed->vm_to_server;
      state.status = TenantStatus::kDegraded;
      count_status(id, state.status, +1);
      report.degraded.push_back(id);
      m_degraded_.inc();
      emit_config_deltas(id, state, /*now_paced=*/false);
      continue;
    }
    state.engine_id = -1;
    state.vm_to_server.assign(
        static_cast<std::size_t>(state.request.num_vms), -1);
    state.status = TenantStatus::kUnplaced;
    count_status(id, state.status, +1);
    report.unplaced.push_back(id);
    m_unplaced_.inc();
    emit_config_deltas(id, state, /*now_paced=*/false);
  }
  return report;
}

RecoveryReport SiloController::handle_server_failure(int server) {
  JournalRecord jrec;
  jrec.op = JournalOp::kServerFailure;
  jrec.server = server;
  journal_op(std::move(jrec));
  const auto affected = to_external(engine_.tenants_on_server(server));
  engine_.fail_server(server);
  auto report = recover(affected);
  maybe_compact();
  return report;
}

RecoveryReport SiloController::handle_link_failure(topology::PortId port) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLinkFailure;
  jrec.port = port.value;
  journal_op(std::move(jrec));
  const auto affected = to_external(engine_.tenants_using_port(port));
  engine_.fail_port(port);
  auto report = recover(affected);
  maybe_compact();
  return report;
}

RecoveryReport SiloController::restore_server(int server) {
  JournalRecord jrec;
  jrec.op = JournalOp::kServerRestore;
  jrec.server = server;
  journal_op(std::move(jrec));
  engine_.restore_server(server);
  auto report = recover(non_guaranteed_tenants());
  maybe_compact();
  return report;
}

RecoveryReport SiloController::restore_link(topology::PortId port) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLinkRestore;
  jrec.port = port.value;
  journal_op(std::move(jrec));
  engine_.restore_port(port);
  auto report = recover(non_guaranteed_tenants());
  maybe_compact();
  return report;
}

ControllerSnapshot SiloController::snapshot() const {
  ControllerSnapshot snap;
  snap.engine = engine_.snapshot();
  snap.tenants.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) {  // map order: ascending id
    ControllerSnapshot::Tenant t;
    t.id = id;
    t.request = state.request;
    t.status = static_cast<std::uint8_t>(state.status);
    t.engine_id = state.engine_id;
    t.vm_to_server = state.vm_to_server;
    t.paced_vm_to_server = state.paced_vm_to_server;
    snap.tenants.push_back(std::move(t));
  }
  // Fixed order; restore_snapshot() replays these onto fresh counters so
  // recovered metrics match the never-crashed controller exactly.
  snap.counters = {m_admissions_.value(),    m_rejections_.value(),
                   m_releases_.value(),      m_replaced_.value(),
                   m_degraded_.value(),      m_unplaced_.value(),
                   m_promotions_.value(),    m_diff_deltas_.value(),
                   m_diff_upserts_.value(),  m_diff_removes_.value(),
                   m_lease_granted_.value(), m_lease_revoked_.value(),
                   m_lease_expired_.value(), m_lease_rejected_.value()};
  snap.leases = active_leases();
  snap.lease_epoch = lease_epoch_;
  snap.next_lease_id = next_lease_id_;
  return snap;
}

void SiloController::restore_snapshot(const ControllerSnapshot& snap) {
  if (!tenants_.empty() || m_admissions_.value() != 0 ||
      m_rejections_.value() != 0)
    throw std::logic_error(
        "SiloController::restore_snapshot requires a fresh controller");
  engine_.restore(snap.engine);
  for (const auto& t : snap.tenants) {
    TenantState state;
    state.request = t.request;
    state.vm_to_server = t.vm_to_server;
    state.paced_vm_to_server = t.paced_vm_to_server;
    state.engine_id = t.engine_id;
    state.status = static_cast<TenantStatus>(t.status);
    if (t.engine_id >= 0) engine_to_external_.emplace(t.engine_id, t.id);
    count_status(t.id, state.status, +1);
    tenants_.emplace(t.id, std::move(state));
  }
  if (snap.counters.size() >= 10) {
    m_admissions_.inc(snap.counters[0]);
    m_rejections_.inc(snap.counters[1]);
    m_releases_.inc(snap.counters[2]);
    m_replaced_.inc(snap.counters[3]);
    m_degraded_.inc(snap.counters[4]);
    m_unplaced_.inc(snap.counters[5]);
    m_promotions_.inc(snap.counters[6]);
    m_diff_deltas_.inc(snap.counters[7]);
    m_diff_upserts_.inc(snap.counters[8]);
    m_diff_removes_.inc(snap.counters[9]);
  }
  if (snap.counters.size() >= 14) {
    m_lease_granted_.inc(snap.counters[10]);
    m_lease_revoked_.inc(snap.counters[11]);
    m_lease_expired_.inc(snap.counters[12]);
    m_lease_rejected_.inc(snap.counters[13]);
  }
  for (const auto& lease : snap.leases) leases_.emplace(lease.id, lease);
  lease_epoch_ = snap.lease_epoch;
  next_lease_id_ = snap.next_lease_id;
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
}

void SiloController::recover_from_journal(DeltaJournal& journal,
                                          std::int64_t snapshot_every) {
  if (!tenants_.empty() || journal_ != nullptr)
    throw std::logic_error(
        "SiloController::recover_from_journal requires a fresh controller");
  replaying_ = true;
  if (journal.has_snapshot()) restore_snapshot(journal.snapshot());
  for (const auto& rec : journal.records()) {
    switch (rec.op) {
      case JournalOp::kAdmit:
        admit(rec.request);
        break;
      case JournalOp::kRelease: {
        TenantHandle handle;
        handle.id = rec.tenant;
        release(handle);
        break;
      }
      case JournalOp::kServerFailure:
        handle_server_failure(rec.server);
        break;
      case JournalOp::kLinkFailure:
        handle_link_failure(topology::PortId{rec.port});
        break;
      case JournalOp::kServerRestore:
        restore_server(rec.server);
        break;
      case JournalOp::kLinkRestore:
        restore_link(topology::PortId{rec.port});
        break;
      case JournalOp::kLeaseGrant:
        // expiry_epoch holds the requested duration in grant records.
        grant_lease(rec.lease.owner, rec.lease.borrower, rec.lease.vm_index,
                    rec.lease.rate, rec.lease.expiry_epoch);
        break;
      case JournalOp::kLeaseRevoke:
        revoke_lease(rec.lease.id);
        break;
      case JournalOp::kLeaseEpoch:
        advance_lease_epoch();
        break;
    }
  }
  replaying_ = false;
  journal.note_replay(static_cast<std::int64_t>(journal.records().size()));
  attach_journal(&journal, snapshot_every);
}

std::vector<int> SiloController::paced_servers() const {
  std::vector<int> out;
  for (const auto& [id, state] : tenants_) {
    for (const int s : state.paced_vm_to_server)
      if (s >= 0) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PacerConfigRecord> SiloController::server_config(
    int server) const {
  std::vector<PacerConfigRecord> out;
  if (engine_.admission_mode() == placement::AdmissionMode::kIncremental) {
    // Only tenants indexed on this server can have records here.
    for (const auto eid : engine_.tenants_on_server(server)) {
      const auto ext = engine_to_external_.find(eid);
      if (ext == engine_to_external_.end()) continue;
      const auto& state = tenants_.at(ext->second);
      if (state.request.tenant_class == TenantClass::kBestEffort)
        continue;  // best-effort VMs run unpaced at low priority (§4.4)
      if (state.status != TenantStatus::kGuaranteed)
        continue;  // degraded/unplaced tenants are not paced
      for (int v = 0; v < state.request.num_vms; ++v) {
        if (state.vm_to_server[static_cast<std::size_t>(v)] != server)
          continue;
        out.push_back(make_record(ext->second, state, v));
      }
    }
  } else {
    for (const auto& [id, state] : tenants_) {
      if (state.request.tenant_class == TenantClass::kBestEffort) continue;
      if (state.status != TenantStatus::kGuaranteed) continue;
      for (int v = 0; v < state.request.num_vms; ++v) {
        if (state.vm_to_server[static_cast<std::size_t>(v)] != server)
          continue;
        out.push_back(make_record(id, state, v));
      }
    }
  }
  // Deterministic order for config diffing by the driver.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.tenant != b.tenant ? a.tenant < b.tenant
                                : a.vm_index < b.vm_index;
  });
  return out;
}

DatacenterStats SiloController::stats() const {
  DatacenterStats s;
  s.total_slots = topo_.total_vm_slots();
  s.free_slots = engine_.free_slots();
  s.admitted_tenants = engine_.admitted_tenants();
  s.degraded_tenants = static_cast<int>(degraded_.size());
  s.unplaced_tenants = static_cast<int>(unplaced_.size());
  s.max_port_reservation = engine_.max_port_reservation();
  s.max_queue_headroom_used = engine_.max_queue_headroom_used();
  return s;
}

}  // namespace silo
