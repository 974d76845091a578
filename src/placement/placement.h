// VM placement & admission control (§4.2).
//
// Silo's placement maps a tenant's {B, S, d, Bmax} guarantees to two
// queueing constraints at every switch port its traffic crosses:
//   1. queue bound  <= queue capacity      (buffers never overflow)
//   2. sum of queue capacities on each VM-pair path <= d
// and then greedily packs VMs into the smallest topology scope (server,
// rack, pod, datacenter) that satisfies both, preserving "high" links for
// future tenants.
//
// The same greedy skeleton, parameterized by its admission policy, yields
// the two baselines of the paper's evaluation: Oktopus (bandwidth-only
// constraint) and locality-aware placement (no network constraint).
#pragma once

#include <cstdint>
#include <optional>
#include <map>
#include <vector>

#include "model/guarantee.h"
#include "placement/port_load.h"
#include "topology/topology.h"

namespace silo::placement {

using TenantId = std::int64_t;

enum class Policy {
  kSilo,      ///< queue-bound + delay constraints via network calculus
  kOktopus,   ///< hose-model bandwidth reservation only
  kLocality,  ///< slots only; pack as close as possible
};

/// Topology scopes in packing order.
enum class Scope { kServer = 0, kRack = 1, kPod = 2, kDatacenter = 3 };

/// How admission maintains its derived state.
///
/// kIncremental (the default) shards per-port load and headroom caches by
/// rack/pod/DC and maintains per-server and per-port tenant indexes, so an
/// admit or release touches only the shards on the tenant's placement
/// path. kFullRescan is the reference baseline: after every mutation it
/// recomputes all port loads from the tenant map and answers index queries
/// by scanning every tenant — the quadratic behaviour the incremental path
/// replaces. Both modes make bit-identical placement decisions.
enum class AdmissionMode { kIncremental, kFullRescan };

/// Deterministic count of the work one PlacementEngine has done since
/// construction. Equal inputs give equal counts on any machine, so tests
/// can pin them exactly. Not part of EngineSnapshot: a restored engine
/// counts its own work from zero.
struct PlacementWork {
  std::int64_t place_admits = 0;   ///< place() calls that admitted
  std::int64_t place_rejects = 0;  ///< place() calls that returned nullopt
  std::int64_t candidates = 0;     ///< scope anchors tried (try_scope calls)
  std::int64_t admit_ports_probed = 0;   ///< port tests in admitting calls
  std::int64_t reject_ports_probed = 0;  ///< port tests in rejecting calls
  /// Rack/pod/datacenter scopes skipped whole by static split pruning.
  std::int64_t scopes_pruned = 0;
  /// Idle-port tests static split pruning made (at most two per split per
  /// scope); not in the ports_probed counts.
  std::int64_t idle_ports_probed = 0;

  std::int64_t place_calls() const { return place_admits + place_rejects; }
  std::int64_t ports_probed() const {
    return admit_ports_probed + reject_ports_probed;
  }
};

struct AdmittedTenant {
  TenantId id = -1;
  std::vector<int> vm_to_server;  ///< VM index -> server index
};

/// Exact logical state of a PlacementEngine, captured for the controller's
/// write-ahead journal (compacted snapshots). Holds everything restore()
/// needs to rebuild an engine bit-identically: per-tenant placements with
/// their admitted port contributions (so no re-derivation can drift), the
/// failed-hardware accounting, and the monotonic id counter.
struct EngineSnapshot {
  struct Tenant {
    TenantId id = -1;
    TenantRequest request;  ///< as admitted (degraded tenants: best-effort copy)
    std::vector<int> vm_to_server;
    std::vector<std::pair<int, PortContribution>> contributions;
  };
  struct FailedServer {
    int server = -1;
    int free_slots = 0;    ///< free-slot count frozen at failure time
    int quarantined = 0;   ///< slots freed on the dead host since
  };
  std::vector<Tenant> tenants;              ///< ascending id
  std::vector<FailedServer> failed_servers; ///< ascending server
  std::vector<int> failed_ports;            ///< ascending PortId value
  TenantId next_id = 0;
};

class PlacementEngine {
 public:
  /// `nic_delay_allowance` is the per-path budget charged for source-NIC
  /// batching and same-server multiplexing (the pacer keeps the *wire*
  /// curve-conformant, but a packet may wait up to about one IO batch
  /// inside the NIC). It is added to every path's delay bound.
  /// `hose_tightening` toggles the min(m, N-m)*B aggregation of §4.2.2
  /// (ablation: the naive m*B bound admits strictly fewer tenants).
  PlacementEngine(const topology::Topology& topo, Policy policy,
                  TimeNs nic_delay_allowance = 50 * kUsec,
                  bool hose_tightening = true,
                  AdmissionMode mode = AdmissionMode::kIncremental);

  /// Admission control + placement. Returns nullopt when the request
  /// cannot be accommodated (its guarantees would be violated, or would
  /// violate an already-admitted tenant's).
  std::optional<AdmittedTenant> place(const TenantRequest& request);

  /// Releases a tenant's slots and port reservations.
  void remove(TenantId id);

  // --- Fault model -------------------------------------------------------
  // A failed server's free slots leave the pool, and slots later freed on
  // it (tenants being evacuated) are quarantined until restore_server — so
  // re-placement can never land VMs back on dead hardware. A failed port
  // rejects any placement that would reserve capacity on it; zero-
  // reservation (best-effort) placements still pass, which is what keeps
  // degraded-mode fallback feasible while a link is down.

  void fail_server(int server);
  void restore_server(int server);
  bool server_failed(int server) const {
    return server_failed_[static_cast<std::size_t>(server)] != 0;
  }
  void fail_port(topology::PortId p);
  void restore_port(topology::PortId p);
  bool port_failed(topology::PortId p) const {
    return port_failed_[static_cast<std::size_t>(p.value)] != 0;
  }

  /// Admitted tenants with at least one VM on `server`, ascending id.
  std::vector<TenantId> tenants_on_server(int server) const;
  /// Admitted tenants whose placement routes traffic through `p`,
  /// ascending id (derived from the placement's rack/pod spread).
  std::vector<TenantId> tenants_using_port(topology::PortId p) const;

  int free_slots() const { return free_slots_total_; }
  int admitted_tenants() const { return static_cast<int>(tenants_.size()); }
  AdmissionMode admission_mode() const { return mode_; }

  /// Fraction of a port's line rate reserved by admitted tenants.
  double port_reservation(topology::PortId p) const;

  /// Highest port_reservation() over every port. Incremental mode answers
  /// from the per-rack/pod/DC shard caches, recomputing only shards whose
  /// load changed since the last query; kFullRescan scans every port.
  double max_port_reservation() const;

  /// Worst admitted queue bound anywhere, as a fraction of that port's
  /// queue capacity (<= 1 by construction for Silo policy). Same shard
  /// caching as max_port_reservation().
  double max_queue_headroom_used() const;

  /// Worst-case queuing delay currently admitted at a port (ns); 0 for an
  /// idle port. Exposed for tests and the placement example.
  TimeNs port_queue_bound(topology::PortId p) const;

  /// Path-capacity delay bound for a tenant placed at the given scope —
  /// what Silo checks against the tenant's delay guarantee d.
  TimeNs scope_path_capacity(Scope scope) const;

  /// Capture the engine's exact logical state (journal compaction).
  EngineSnapshot snapshot() const;
  /// Rebuild from a snapshot. Only valid on a fresh engine (no tenants
  /// admitted, same topology/policy/mode as the captured one); throws
  /// std::logic_error otherwise. After restore the engine makes the same
  /// placement decisions the captured engine would.
  void restore(const EngineSnapshot& snap);

  const topology::Topology& topo() const { return topo_; }

  const PlacementWork& work() const { return work_; }

 private:
  struct TenantRecord {
    TenantRequest request;
    std::vector<int> vm_to_server;
    std::vector<std::pair<int, PortContribution>> contributions;  // port -> c
    std::vector<std::pair<int, int>> slot_usage;  // server -> count
    std::vector<int> used_ports;  // sorted; ports this placement routes over
  };

  // Per-server VM counts for a candidate placement.
  using CountMap = std::vector<std::pair<int, int>>;  // (server, count)

  // live[m] != 0 when a server may take m of the tenant's VMs at a scope;
  // sized min(slots, n) + 1, live[0] = 0.
  using SplitMask = std::vector<char>;

  std::optional<AdmittedTenant> first_fit(const TenantRequest& request);
  std::optional<CountMap> try_scope(const TenantRequest& req, Scope scope,
                                    int anchor_server,
                                    const SplitMask& live) const;
  std::optional<CountMap> pack_servers(const TenantRequest& req,
                                       const std::vector<int>& servers,
                                       Scope scope,
                                       const SplitMask& live) const;
  /// Static split pruning: the splits pack_servers may use at a scope
  /// wider than one server. A split an idle, healthy port pair refuses is
  /// dead on every server (load only tightens the test), so an all-dead
  /// mask skips the scope. kFullRescan keeps every split: it is the
  /// exhaustive reference search.
  SplitMask live_splits(const TenantRequest& req, Scope scope) const;
  /// `idle` probes server 0's port pair as if unloaded and healthy
  /// (server ports are uniform), for live_splits.
  bool server_ports_ok(const TenantRequest& req, int server, int m_here,
                       Scope scope, bool idle = false) const;
  bool validate_candidate(const TenantRequest& req, const CountMap& counts,
                          Scope scope) const;
  std::vector<std::pair<int, PortContribution>> tenant_contributions(
      const TenantRequest& req, const CountMap& counts, Scope scope) const;

  /// Tenant's arrival-curve contribution at one port: cut curve for
  /// `m_side` of `n` VMs behind the port, propagated through
  /// `upstream_capacity` of queueing (0 at the pacer conformance point).
  PortContribution cut_contribution(const TenantRequest& req, int m_side,
                                    TimeNs upstream_capacity,
                                    RateBps line_cap) const;

  bool port_admits(int port, const PortContribution& c,
                   bool idle = false) const;
  TimeNs upstream_capacity(int level, Scope scope) const;

  Scope widest_scope_for_delay(const SiloGuarantee& g) const;
  void commit(TenantRecord&& rec, AdmittedTenant& out);
  bool placement_uses_port(const TenantRecord& rec, int port) const;
  std::vector<int> used_ports_for(const CountMap& counts) const;

  /// Slot bookkeeping for one server: free_slots_, the rack/pod/total
  /// aggregates, and the per-rack max-free cache all move together.
  void adjust_free_slots(int server, int delta);
  void recompute_rack_max_free(int rack);

  /// Mark the shard owning `port` stale after a load change.
  void touch_port(int port);
  void refresh_shard(std::size_t shard) const;
  void refresh_dirty_shards() const;
  /// kFullRescan baseline: rebuild every port's aggregate load from the
  /// tenant map (the cost the sharded incremental path avoids).
  void rebuild_port_loads();

  const topology::Topology& topo_;
  Policy policy_;
  TimeNs nic_delay_allowance_;
  bool hose_tightening_;
  AdmissionMode mode_;
  std::vector<int> free_slots_;
  std::vector<int> free_slots_rack_;  // fast skip of full racks/pods
  std::vector<int> free_slots_pod_;
  std::vector<int> rack_max_free_;  // max free slots on any server in rack
  int free_slots_total_ = 0;
  std::vector<PortLoad> port_load_;
  std::vector<char> server_failed_;
  std::vector<int> quarantined_slots_;  ///< freed-on-failed-server slots
  std::vector<char> port_failed_;
  std::map<TenantId, TenantRecord> tenants_;
  TenantId next_id_ = 0;
  mutable PlacementWork work_;
  mutable std::int64_t ports_probed_ = 0;  ///< live-port tests, ever

  // --- Sharded derived state (incremental mode) --------------------------
  // Shard layout: one shard per rack (owning its servers' NIC/ToR ports),
  // one per pod (owning its racks' up/down ports), one for the DC core
  // (pod up/down ports). A load change dirties only the owning shard; the
  // max-headroom queries recompute dirty shards and fold cached maxima.
  std::vector<int> shard_of_port_;
  std::vector<std::vector<int>> shard_ports_;
  mutable std::vector<char> shard_dirty_;
  mutable std::vector<double> shard_max_resv_;
  mutable std::vector<double> shard_max_qfrac_;
  // Tenant indexes so failure handling touches only the affected shards
  // instead of scanning every tenant. Ids are kept sorted (admission ids
  // are monotonic). Maintained in incremental mode only; kFullRescan
  // answers the same queries by scanning the tenant map.
  std::vector<std::vector<TenantId>> tenants_by_server_;
  std::vector<std::vector<TenantId>> tenants_by_port_;
};

}  // namespace silo::placement
