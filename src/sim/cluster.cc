#include "sim/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace silo::sim {

namespace {

/// FNV-1a over one 64-bit word, byte by byte (matches the golden-trace
/// convention used by the determinism tests).
std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

/// Key of a tenant's (src, dst) VM pair in its flow map. Both indices must
/// be in range, or the key would alias another pair's flow.
std::int64_t pair_key(int num_vms, int src_local, int dst_local) {
  if (src_local < 0 || src_local >= num_vms || dst_local < 0 ||
      dst_local >= num_vms)
    throw std::out_of_range("ClusterSim: tenant VM index out of range");
  return static_cast<std::int64_t>(src_local) * num_vms + dst_local;
}

}  // namespace

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kSilo: return "Silo";
    case Scheme::kTcp: return "TCP";
    case Scheme::kDctcp: return "DCTCP";
    case Scheme::kHull: return "HULL";
    case Scheme::kOktopus: return "Okto";
    case Scheme::kOktopusPlus: return "Okto+";
    case Scheme::kQjump: return "QJUMP";
    case Scheme::kPfabric: return "pFabric";
  }
  return "?";
}

ClusterSim::ClusterSim(const ClusterConfig& cfg)
    : cfg_(cfg), parallel_(cfg.parallel.enabled) {
  topo_ = std::make_unique<topology::Topology>(cfg.topo);
  placer_ = std::make_unique<placement::PlacementEngine>(*topo_,
                                                         placement_policy());
  port_template_.link_delay = cfg.link_delay;
  if (cfg.scheme == Scheme::kDctcp)
    port_template_.ecn_threshold = cfg.ecn_threshold;
  if (cfg.scheme == Scheme::kHull) {
    port_template_.phantom_queue = true;
    port_template_.phantom_drain = cfg.phantom_drain;
    port_template_.phantom_threshold = cfg.phantom_threshold;
  }
  if (cfg.scheme == Scheme::kPfabric) port_template_.pfabric = true;

  host_template_.link_rate = cfg.topo.server_link_rate;
  host_template_.nic_mode = scheme_paced() ? pacer::NicMode::kPacedVoid
                                           : pacer::NicMode::kBatched;
  host_template_.batch_window = cfg.batch_window;
  host_template_.tor_link_delay = cfg.link_delay;
  host_template_.loopback_delay = cfg.loopback_delay;

  if (parallel_) {
    // Lending's epoch tick walks every host from one event — inherently
    // cross-island — so it stays a sequential-mode feature.
    if (cfg_.lending.enabled)
      throw std::invalid_argument(
          "ClusterSim: headroom lending is unsupported in parallel mode");
    // The island partition is a function of the admitted placement, so
    // parallel mode materializes once admissions settle (first run, driver
    // attach, or fabric access).
    return;
  }
  materialize();
  if (cfg_.lending.enabled) {
    lender_ = std::make_unique<pacer::HeadroomLender>(cfg_.lending.policy);
    islands_.front()->events.schedule_after(
        cfg_.lending.epoch, EventKind::kClusterLeaseEpoch, this, 0);
  }
}

void ClusterSim::register_catalog(IslandState& isl) {
  obs::MetricsRegistry& m = isl.metrics;
  isl.pm.tx_packets = m.counter("sim.port.tx_packets", "packets", "port");
  isl.pm.tx_bytes = m.counter("sim.port.tx_bytes", "bytes", "port");
  isl.pm.drops = m.counter("sim.port.drops", "packets", "port");
  isl.pm.fault_drops = m.counter("sim.port.fault_drops", "packets", "port");
  isl.pm.ecn_marks = m.counter("sim.port.ecn_marks", "packets", "port");
  isl.pm.peak_queue_bytes =
      m.gauge("sim.port.peak_queue_bytes", "bytes", "port");
  isl.pm.queue_bytes = m.histogram(
      "sim.port.queue_bytes", "bytes", "port",
      {1024, 8192, 32768, 131072, 524288, 2097152});

  isl.hm.data_packets = m.counter("sim.pacer.data_packets", "packets", "pacer");
  isl.hm.void_packets = m.counter("sim.pacer.void_packets", "packets", "pacer");
  isl.hm.batches = m.counter("sim.pacer.batches", "batches", "pacer");
  isl.hm.throttled = m.counter("sim.pacer.throttled", "packets", "pacer");
  isl.hm.pacer_drops = m.counter("sim.pacer.queue_drops", "packets", "pacer");
  isl.hm.fault_drops = m.counter("sim.host.fault_drops", "packets", "host");

  isl.flow_metrics.segments =
      m.counter("sim.transport.segments", "packets", "transport");
  isl.flow_metrics.retransmits =
      m.counter("sim.transport.retransmits", "packets", "transport");
  isl.flow_metrics.acks =
      m.counter("sim.transport.acks", "packets", "transport");
  isl.flow_metrics.rtos =
      m.counter("sim.transport.rtos", "events", "transport");
  isl.flow_metrics.aborts =
      m.counter("sim.transport.aborts", "events", "transport");

  isl.admissions = m.counter("cluster.admissions", "tenants", "cluster");
  isl.rejections = m.counter("cluster.rejections", "tenants", "cluster");
  isl.msgs_completed =
      m.counter("cluster.messages_completed", "messages", "cluster");
  isl.msgs_aborted =
      m.counter("cluster.messages_aborted", "messages", "cluster");
  isl.slo_violations =
      m.counter("cluster.slo_violations", "messages", "cluster");
  isl.diff_applied = m.counter("controller.diff.applied", "deltas", "cluster");
  isl.diff_apply_ns = m.counter("controller.diff.apply_ns", "ns", "cluster");

  isl.lease_granted = m.counter("pacer.lease.granted", "leases", "cluster");
  isl.lease_revoked = m.counter("pacer.lease.revoked", "leases", "cluster");
  isl.lease_expired = m.counter("pacer.lease.expired", "leases", "cluster");
  isl.lease_applied = m.counter("pacer.lease.applied", "records", "cluster");
  isl.lease_active = m.gauge("pacer.lease.active", "leases", "cluster");
  isl.lease_lent_bps = m.gauge("pacer.lease.lent_bps", "bps", "cluster");
}

void ClusterSim::materialize() {
  if (materialized_) return;
  materialized_ = true;

  if (parallel_) {
    std::vector<std::vector<int>> tenant_servers;
    tenant_servers.reserve(tenants_.size());
    for (const auto& rt : tenants_) tenant_servers.push_back(rt.vm_server);
    part_ = IslandPartition::build(*topo_, cfg_.link_delay, tenant_servers);
    if (part_.num_islands > (1 << 11))
      throw std::length_error(
          "ClusterSim: island count exceeds the flow-id encoding (2^11)");
  } else {
    part_ = IslandPartition::single(*topo_);
  }

  islands_.reserve(static_cast<std::size_t>(part_.num_islands));
  for (int i = 0; i < part_.num_islands; ++i) {
    islands_.push_back(std::make_unique<IslandState>());
    IslandState& isl = *islands_.back();
    isl.id = i;
    register_catalog(isl);
    isl.gateway.bind(
        this,
        [](void* ctx, int island, std::uint32_t h) {
          static_cast<ClusterSim*>(ctx)->island_arrival(island, h);
        },
        i);
  }

  std::vector<EventQueue*> queues;
  queues.reserve(islands_.size());
  for (auto& isl : islands_) queues.push_back(&isl->events);
  fabric_ = std::make_unique<Fabric>(*topo_, port_template_, part_.port_island,
                                     queues);
  fabric_->set_island_deliver(
      [this](int island, EventQueue&, PacketHandle h) { dispatch(island, h); });
  handoff_.owner = this;
  for (int p = 0; p < topo_->num_ports(); ++p) {
    SwitchPortSim& port = fabric_->port(topology::PortId{p});
    port.set_metrics(islands_[static_cast<std::size_t>(
                                  part_.port_island[static_cast<std::size_t>(p)])]
                         ->pm);
    // One island never crosses a boundary: spare it the per-packet
    // next-hop lookup of the handoff.
    if (part_.num_islands > 1) port.set_tx_handoff(&handoff_);
  }

  hosts_.reserve(topo_->num_servers());
  for (int s = 0; s < topo_->num_servers(); ++s) {
    const int isl_id = part_.island_of_server(*topo_, s);
    Host::Config hc = host_template_;
    hc.island = isl_id;
    hosts_.push_back(std::make_unique<Host>(
        islands_[static_cast<std::size_t>(isl_id)]->events, *fabric_, s, hc));
    hosts_.back()->set_local_deliver(
        [this, isl_id](PacketHandle h) { dispatch(isl_id, h); });
    hosts_.back()->set_metrics(
        islands_[static_cast<std::size_t>(isl_id)]->hm,
        islands_[static_cast<std::size_t>(isl_id)]->pm);
  }

  // Tenants admitted before the islands existed, in tenant order so the
  // initial event layout is input-determined.
  for (std::size_t t = 0; t < tenants_.size(); ++t)
    attach_tenant(static_cast<int>(t));
  islands_.front()->admissions.inc(static_cast<std::int64_t>(tenants_.size()));
  islands_.front()->rejections.inc(pending_rejections_);
}

void ClusterSim::attach_tenant(int tenant) {
  auto& rt = tenants_[static_cast<std::size_t>(tenant)];
  if (!rt.pacers) return;
  for (int v = 0; v < rt.request.num_vms; ++v)
    hosts_[static_cast<std::size_t>(rt.vm_server[static_cast<std::size_t>(v)])]
        ->attach_pacer(rt.vm_base + v, &rt.pacers->vm(v));
  // Kick off periodic EyeQ-style destination-rate coordination.
  tenant_events(tenant).schedule_after(cfg_.rebalance_period,
                                       EventKind::kClusterRebalance, this,
                                       static_cast<std::uint32_t>(tenant));
}

// ------------------------------------------------------------- accessors

void ClusterSim::require_sequential(const char* what) const {
  if (parallel_)
    throw std::logic_error(
        std::string("ClusterSim::") + what +
        ": sequential-mode only; parallel mode shards queues and registries "
        "per island (use tenant_events()/merged_metrics()/"
        "enable_delivery_trace())");
}

EventQueue& ClusterSim::events() {
  require_sequential("events()");
  return islands_.front()->events;
}

obs::MetricsRegistry& ClusterSim::metrics() {
  require_sequential("metrics()");
  return islands_.front()->metrics;
}

const obs::MetricsRegistry& ClusterSim::metrics() const {
  require_sequential("metrics()");
  return islands_.front()->metrics;
}

Fabric& ClusterSim::fabric() {
  materialize();
  return *fabric_;
}

Host& ClusterSim::host_mut(int server) {
  materialize();
  return *hosts_.at(static_cast<std::size_t>(server));
}

void ClusterSim::run_until(TimeNs t) {
  materialize();
  // One island has infinite lookahead: its window is always the deadline.
  if (islands_.size() == 1) {
    islands_.front()->events.run_until(t);
    return;
  }
  run_parallel_until(t);
}

const IslandPartition& ClusterSim::partition() {
  materialize();
  return part_;
}

int ClusterSim::num_islands() {
  materialize();
  return static_cast<int>(islands_.size());
}

EventQueue& ClusterSim::tenant_events(int tenant) {
  materialize();
  return islands_[static_cast<std::size_t>(
                      part_.tenant_island.at(static_cast<std::size_t>(tenant)))]
      ->events;
}

EventQueue& ClusterSim::port_events(topology::PortId id) {
  materialize();
  return islands_[static_cast<std::size_t>(
                      part_.port_island.at(static_cast<std::size_t>(id.value)))]
      ->events;
}

EventQueue& ClusterSim::server_events(int server) {
  materialize();
  return islands_[static_cast<std::size_t>(
                      part_.island_of_server(*topo_, server))]
      ->events;
}

EventQueue& ClusterSim::control_events() {
  materialize();
  return islands_.front()->events;
}

void ClusterSim::set_packet_tap(PacketTap tap) {
  require_sequential("set_packet_tap()");
  tap_ = std::move(tap);
}

// ------------------------------------------------- configuration plumbing

void ClusterSim::apply_config_deltas(
    const std::vector<PacerConfigDelta>& deltas) {
  require_sequential("apply_config_deltas()");
  IslandState& isl = *islands_.front();
  for (const auto& delta : deltas) {
    if (delta.server < 0 ||
        delta.server >= static_cast<int>(hosts_.size()))
      throw std::out_of_range("config delta server");
    const auto records = static_cast<std::int64_t>(
        delta.removes.size() + delta.upserts.size() +
        delta.lease_removes.size() + delta.lease_upserts.size());
    const TimeNs cost =
        cfg_.config_apply_delay + cfg_.config_record_apply_cost * records;
    isl.diff_apply_ns.inc(cost.count());
    Host* host = hosts_[static_cast<std::size_t>(delta.server)].get();
    obs::Counter applied = isl.diff_applied;
    isl.events.after(cost, [this, host, delta, applied]() mutable {
      host->apply_pacer_config(delta);
      applied.inc();
      // Lease-bearing deltas re-derive the borrower pacers' overlays from
      // the host's applied table (grants raise, revokes lower).
      if (!delta.lease_removes.empty() || !delta.lease_upserts.empty())
        refresh_lease_rates(delta.server);
    });
  }
}

obs::FlightRecorder& ClusterSim::enable_flight_recorder(std::size_t capacity) {
  require_sequential("enable_flight_recorder()");
  recorder_ = std::make_unique<obs::FlightRecorder>(capacity);
  recorder_->set_flow_tenants(&islands_.front()->flow_tenant);
  islands_.front()->events.set_flight_recorder(recorder_.get());
  return *recorder_;
}

ClusterSim::~ClusterSim() = default;

placement::Policy ClusterSim::placement_policy() const {
  switch (cfg_.scheme) {
    case Scheme::kSilo:
      return placement::Policy::kSilo;
    case Scheme::kOktopus:
    case Scheme::kOktopusPlus:
      return placement::Policy::kOktopus;
    default:
      return placement::Policy::kLocality;
  }
}

TimeNs ClusterSim::qjump_epoch() const {
  // QJUMP's network epoch: long enough for every host to push one
  // maximum-size packet through the shared fabric plus propagation —
  // 2 * (n * mtu_time + path delay), the guaranteed-latency level.
  const TimeNs mtu_time =
      transmission_time(kMtu + kEthOverhead, cfg_.topo.server_link_rate);
  return 2 * (topo_->num_servers() * mtu_time + 6 * cfg_.link_delay);
}

SiloGuarantee ClusterSim::pacing_guarantee(const SiloGuarantee& g) const {
  SiloGuarantee out = g;
  if (cfg_.scheme == Scheme::kOktopus) {
    // Oktopus enforces the bandwidth reservation with no burst allowance.
    out.burst = kMtu;
    out.burst_rate = g.bandwidth;
  } else if (cfg_.scheme == Scheme::kQjump) {
    // One full packet per network epoch, regardless of the requested
    // guarantee: QJUMP's guaranteed-latency level is deliberately slow.
    out.bandwidth = RateBps{static_cast<double>(kMtu) * 8e9 /
                            static_cast<double>(qjump_epoch())};
    out.burst = kMtu;
    out.burst_rate = out.bandwidth;
  }
  return out;
}

std::optional<int> ClusterSim::add_tenant(const TenantRequest& request) {
  auto admitted = placer_->place(request);
  if (!admitted) {
    if (materialized_)
      islands_.front()->rejections.inc();
    else
      ++pending_rejections_;
    return std::nullopt;
  }
  return finish_admission(request, std::move(admitted->vm_to_server));
}

int ClusterSim::add_tenant_pinned(const TenantRequest& request,
                                  std::vector<int> vm_to_server) {
  if (static_cast<int>(vm_to_server.size()) != request.num_vms)
    throw std::invalid_argument("pinned placement size != num_vms");
  for (int s : vm_to_server)
    if (s < 0 || s >= topo_->num_servers())
      throw std::out_of_range("pinned placement server index");
  return finish_admission(request, std::move(vm_to_server));
}

int ClusterSim::finish_admission(const TenantRequest& request,
                                 std::vector<int> vm_to_server) {
  if (parallel_ && materialized_)
    throw std::logic_error(
        "ClusterSim: parallel mode fixes the island partition at the first "
        "run — admit every tenant before running");
  TenantRuntime rt;
  rt.request = request;
  rt.vm_server = std::move(vm_to_server);
  rt.vm_base = next_global_vm_;
  next_global_vm_ += request.num_vms;
  if (tenant_paced(request))
    rt.pacers = std::make_unique<pacer::TenantPacerGroup>(
        pacing_guarantee(request.guarantee), request.num_vms, kMtu,
        rt.vm_base);
  tenants_.push_back(std::move(rt));
  const int tenant = static_cast<int>(tenants_.size()) - 1;
  // Before materialize() there are no islands yet; it attaches every
  // tenant admitted so far. After it (sequential mode only), the new tenant
  // joins the one island.
  if (materialized_) {
    part_.tenant_island.push_back(0);
    islands_.front()->admissions.inc();
    attach_tenant(tenant);
  }
  return tenant;
}

int ClusterSim::tenant_vm_count(int tenant) const {
  return tenants_.at(static_cast<std::size_t>(tenant)).request.num_vms;
}

int ClusterSim::vm_server(int tenant, int local_vm) const {
  return tenants_.at(static_cast<std::size_t>(tenant))
      .vm_server.at(static_cast<std::size_t>(local_vm));
}

void ClusterSim::rebalance_tenant(int tenant) {
  auto& rt = tenants_[static_cast<std::size_t>(tenant)];
  EventQueue& ev = tenant_events(tenant);
  std::vector<pacer::HoseDemand> demands;
  for (const auto& [key, flow_id] : rt.pair_to_flow) {
    const auto& f = *flow_runtime(flow_id).flow;
    if (f.bytes_written() > f.bytes_acked()) {
      // Demand up to the VM's current hose rate: the admitted B, or B plus
      // the lease overlay while one is active (equal when lending is off).
      const int src = f.src_vm() - rt.vm_base;
      demands.push_back({src, f.dst_vm() - rt.vm_base,
                         rt.pacers->vm(src).hose_rate()});
    }
  }
  if (!demands.empty()) rt.pacers->rebalance(ev.now(), demands);
  ev.schedule_after(cfg_.rebalance_period, EventKind::kClusterRebalance, this,
                    static_cast<std::uint32_t>(tenant));
}

std::vector<PacerLeaseRecord> ClusterSim::active_leases() const {
  std::vector<PacerLeaseRecord> out;
  out.reserve(issued_.size());
  for (const auto& [id, lease] : issued_) out.push_back(lease);
  return out;
}

std::vector<pacer::LenderVmStats> ClusterSim::collect_lender_stats() {
  std::vector<pacer::LenderVmStats> out;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    auto& rt = tenants_[t];
    if (!rt.pacers) continue;
    std::vector<Bytes> backlog(static_cast<std::size_t>(rt.request.num_vms),
                               Bytes{0});
    Bytes total {0};
    for (const auto& [key, flow_id] : rt.pair_to_flow) {
      const auto& f = *flow_runtime(flow_id).flow;
      if (f.bytes_written() <= f.bytes_acked()) continue;
      const Bytes b{f.bytes_written() - f.bytes_acked()};
      backlog[static_cast<std::size_t>(f.src_vm() - rt.vm_base)] += b;
      total += b;
    }
    const bool guaranteed =
        rt.request.tenant_class != TenantClass::kBestEffort;
    for (int v = 0; v < rt.request.num_vms; ++v) {
      pacer::LenderVmStats s;
      s.tenant = static_cast<std::int64_t>(t);
      s.vm_index = v;
      s.server = rt.vm_server[static_cast<std::size_t>(v)];
      s.reserved = rt.pacers->vm(v).guarantee().bandwidth;
      s.guaranteed = guaranteed;
      s.sent = rt.pacers->vm(v).take_stamped_bytes();
      s.backlog = backlog[static_cast<std::size_t>(v)];
      s.tenant_backlog = total;
      out.push_back(s);
    }
  }
  return out;
}

void ClusterSim::refresh_lease_rates(int server) {
  // Sum of applied lease rates per borrower (tenant, vm) on this server.
  std::map<std::pair<std::int64_t, int>, RateBps> extra;
  for (const auto& lease : hosts_[static_cast<std::size_t>(server)]
                               ->pacer_config()
                               .leases()) {
    extra[{lease.borrower, lease.vm_index}] += lease.rate;
  }
  const TimeNs now = islands_.front()->events.now();
  const auto push = [&](std::pair<std::int64_t, int> key, RateBps rate) {
    if (key.first < 0 ||
        key.first >= static_cast<std::int64_t>(tenants_.size()))
      return;
    auto& rt = tenants_[static_cast<std::size_t>(key.first)];
    if (!rt.pacers || key.second < 0 || key.second >= rt.request.num_vms)
      return;
    rt.pacers->vm(key.second).set_lease_rate(now, rate);
    islands_.front()->lease_applied.inc();
  };
  auto& applied = applied_lease_rate_[server];
  for (auto it = applied.begin(); it != applied.end();) {
    if (extra.find(it->first) == extra.end()) {
      push(it->first, RateBps{0});  // lease vanished: restore admitted B
      it = applied.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [key, rate] : extra) {
    const auto it = applied.find(key);
    if (it != applied.end() && it->second == rate) continue;
    push(key, rate);
    applied[key] = rate;
  }
}

void ClusterSim::lease_epoch_tick() {
  IslandState& isl = *islands_.front();
  ++lease_epoch_;
  // Expiry is clock-driven on every server's own table (never waits on
  // delta delivery): a lost revoke delays reclamation of borrowed rate
  // only until this tick — the owner's guarantee is never gated on it.
  for (auto& h : hosts_) {
    const auto died = h->advance_lease_epoch(lease_epoch_);
    if (!died.empty()) {
      isl.lease_expired.inc(static_cast<std::int64_t>(died.size()));
      refresh_lease_rates(h->server_id());
    }
  }
  for (auto it = issued_.begin(); it != issued_.end();) {
    it = it->second.expiry_epoch <= lease_epoch_ ? issued_.erase(it)
                                                 : std::next(it);
  }

  const auto decision = lender_->evaluate(
      cfg_.lending.epoch, collect_lender_stats(), active_leases());
  std::map<int, PacerConfigDelta> by_server;
  for (const auto id : decision.revokes) {
    const auto it = issued_.find(id);
    if (it == issued_.end()) continue;
    by_server[it->second.server].lease_removes.push_back(id);
    issued_.erase(it);
    isl.lease_revoked.inc();
  }
  for (auto lease : decision.upserts) {
    if (lease.id == 0) {  // new grant; renewals keep their id
      lease.id = next_lease_id_++;
      isl.lease_granted.inc();
    }
    lease.issued_epoch = lease_epoch_;
    lease.expiry_epoch = lease_epoch_ + lender_->config().duration_epochs;
    by_server[lease.server].lease_upserts.push_back(lease);
    issued_[lease.id] = lease;
  }
  std::vector<PacerConfigDelta> deltas;
  deltas.reserve(by_server.size());
  for (auto& [server, delta] : by_server) {
    delta.server = server;
    delta.lease_epoch = lease_epoch_;
    deltas.push_back(std::move(delta));
  }
  apply_config_deltas(deltas);

  isl.lease_active.set(static_cast<std::int64_t>(issued_.size()));
  double lent_bps = 0;
  for (const auto& [id, lease] : issued_) lent_bps += lease.rate.bps();
  isl.lease_lent_bps.set(static_cast<std::int64_t>(lent_bps));
  isl.events.schedule_after(cfg_.lending.epoch, EventKind::kClusterLeaseEpoch,
                            this, 0);
}

ClusterSim::FlowRuntime& ClusterSim::flow_for(int tenant, int src_local,
                                              int dst_local) {
  auto& rt = tenants_.at(static_cast<std::size_t>(tenant));
  const std::int64_t key = pair_key(rt.request.num_vms, src_local, dst_local);
  auto it = rt.pair_to_flow.find(key);
  if (it != rt.pair_to_flow.end()) return flow_runtime(it->second);

  const int island = part_.tenant_island.at(static_cast<std::size_t>(tenant));
  IslandState& isl = *islands_[static_cast<std::size_t>(island)];
  const int local = static_cast<int>(isl.flows.size());
  if (local > kLocalFlowMask)
    throw std::length_error("ClusterSim: per-island flow table full");
  const int flow_id = (island << kIslandShift) | local;
  const int src_vm = rt.vm_base + src_local;
  const int dst_vm = rt.vm_base + dst_local;
  const int src_server = rt.vm_server.at(static_cast<std::size_t>(src_local));
  const int dst_server = rt.vm_server.at(static_cast<std::size_t>(dst_local));
  TcpConfig tcp = cfg_.tcp;
  tcp.dctcp =
      cfg_.scheme == Scheme::kDctcp || cfg_.scheme == Scheme::kHull;
  if (cfg_.scheme == Scheme::kPfabric) {
    // pFabric's minimal transport: start near line rate and rely on the
    // fabric's priority scheduling + a tight timeout for loss.
    tcp.init_cwnd_pkts = 64;
    tcp.min_rto = std::min<TimeNs>(cfg_.tcp.min_rto, 2 * kMsec);
  }

  auto fr = std::make_unique<FlowRuntime>();
  fr->flow = std::make_unique<TcpFlow>(
      isl.events, flow_id, src_vm, dst_vm, src_server, dst_server, tcp,
      [this, src_server](PacketHandle h) {
        hosts_[static_cast<std::size_t>(src_server)]->send(h);
      },
      [this, dst_server](PacketHandle h) {
        hosts_[static_cast<std::size_t>(dst_server)]->send(h);
      });
  if (rt.request.tenant_class == TenantClass::kBestEffort ||
      (cfg_.scheme == Scheme::kQjump &&
       rt.request.tenant_class != TenantClass::kDelaySensitive))
    fr->flow->set_priority(Priority::kBestEffort);
  if (scheme_paced()) {
    EventQueue* evp = &isl.events;
    fr->flow->set_can_send([this, evp, src_server, src_vm](int dst,
                                                           Bytes bytes) {
      return hosts_[static_cast<std::size_t>(src_server)]->pacer_delay(
                 evp->now(), src_vm, dst, bytes) <= cfg_.tsq_horizon;
    });
  }
  fr->flow->set_on_delivery([this, flow_id](std::int64_t delivered) {
    on_flow_delivery(flow_id, delivered);
  });
  fr->flow->set_on_abort([this, flow_id] { on_flow_abort(flow_id); });
  fr->flow->set_metrics(isl.flow_metrics);
  fr->paced = tenant_paced(rt.request);
  isl.flows.push_back(std::move(fr));
  isl.flow_tenant.push_back(tenant);
  rt.pair_to_flow.emplace(key, flow_id);
  return *isl.flows[static_cast<std::size_t>(local)];
}

const ClusterSim::FlowRuntime* ClusterSim::find_flow(int tenant, int src_local,
                                                     int dst_local) const {
  const auto& rt = tenants_.at(static_cast<std::size_t>(tenant));
  auto it =
      rt.pair_to_flow.find(pair_key(rt.request.num_vms, src_local, dst_local));
  return it == rt.pair_to_flow.end() ? nullptr : &flow_runtime(it->second);
}

void ClusterSim::send_message(int tenant, int src_local, int dst_local,
                              Bytes size, MsgCallback done) {
  if (size <= Bytes{0})
    throw std::invalid_argument("message size must be positive");
  const TimeNs now = tenant_events(tenant).now();
  auto& fr = flow_for(tenant, src_local, dst_local);
  if (fr.boundaries.empty()) {
    // Idle flow: start a fresh attribution epoch so the quiet period
    // before this message never counts toward its breakdown.
    fr.attr_mark = now;
    fr.msg_free_at = now;
    fr.accum = MessageBreakdown{};
  }
  FlowRuntime::Boundary b;
  b.end_seq = fr.flow->bytes_written() + size.count();
  b.size = size;
  b.start = now;
  b.rto_index = fr.flow->rto_events().size();
  b.done = std::move(done);
  fr.boundaries.push_back(std::move(b));
  fr.flow->app_write(size);
}

void ClusterSim::on_flow_delivery(int flow_id, std::int64_t delivered) {
  IslandState& isl =
      *islands_[static_cast<std::size_t>(flow_island(flow_id))];
  const std::size_t local = static_cast<std::size_t>(flow_id & kLocalFlowMask);
  auto& fr = *isl.flows[local];
  auto& rt = tenants_[static_cast<std::size_t>(isl.flow_tenant[local])];
  const TimeNs now = isl.events.now();

  // Latency-breakdown attribution. Every in-order advance attributes the
  // flow-progress interval (attr_mark, now] using the arriving packet's
  // stage timeline (captured in dispatch() before its handle was freed):
  //   - the gap before the packet was even emitted is a sender-side stall —
  //     retransmission recovery if a resend/RTO is involved, otherwise
  //     pacer wait on paced flows / stream queueing on unpaced ones;
  //   - the packet's own pacing/queueing/serialization segments cover the
  //     rest, clipped where they overlap time already attributed to earlier
  //     packets (pipelining). Clipping consumes the earliest stages first.
  // Gap + clipped stages == now - attr_mark exactly, so the per-message
  // accumulators always sum to the observed latency.
  const std::size_t rto_count = fr.flow->rto_events().size();
  if (now > fr.attr_mark && isl.pending_arrival == now &&
      isl.pending_stages.tracked) {
    const obs::PacketStages& st = isl.pending_stages;
    const bool retrans = st.retransmit || rto_count > fr.rto_seen;
    const TimeNs gap = st.emitted - fr.attr_mark;
    if (gap > TimeNs{0}) {
      if (retrans)
        fr.accum.retransmit_ns += gap;
      else if (fr.paced)
        fr.accum.pacing_ns += gap;
      else
        fr.accum.queueing_ns += gap;
    }
    TimeNs clip = fr.attr_mark - st.emitted;
    TimeNs p = st.pacing_ns, q = st.queue_ns, s = st.serial_ns;
    if (clip > TimeNs{0}) {
      TimeNs c = std::min(clip, p);
      p -= c;
      clip -= c;
      c = std::min(clip, q);
      q -= c;
      clip -= c;
      s -= std::min(clip, s);
    }
    fr.accum.pacing_ns += p;
    fr.accum.queueing_ns += q;
    fr.accum.serialization_ns += s;
    fr.attr_mark = now;
  }
  fr.rto_seen = rto_count;

  while (!fr.boundaries.empty() && fr.boundaries.front().end_seq <= delivered) {
    auto b = std::move(fr.boundaries.front());
    fr.boundaries.pop_front();
    MessageResult res;
    res.latency = now - b.start;
    res.had_rto = fr.flow->rto_events().size() > b.rto_index;
    res.breakdown = fr.accum;
    // Wait behind earlier messages on the same flow counts as queueing
    // (the stream is a queue); attribution restarts for the next message.
    const TimeNs hol = fr.msg_free_at - b.start;
    if (hol > TimeNs{0}) res.breakdown.queueing_ns += hol;
    fr.accum = MessageBreakdown{};
    fr.msg_free_at = now;
    ++rt.counters.completed;
    isl.msgs_completed.inc();
    // SLO accounting against the §4.1 bound the tenant was admitted with.
    const SiloGuarantee& g = rt.request.guarantee;
    if (rt.request.tenant_class != TenantClass::kBestEffort &&
        g.wants_delay_guarantee() && g.bandwidth > RateBps{0} &&
        res.latency > max_message_latency(g, b.size)) {
      ++rt.counters.slo_violations;
      isl.slo_violations.inc();
    }
    if (b.done) b.done(res);
  }
}

void ClusterSim::on_flow_abort(int flow_id) {
  // The transport discarded its undelivered tail, so every outstanding
  // message on the flow is dead — including ones queued behind the stuck
  // head. Owners see `aborted` and may retry on a fresh epoch.
  IslandState& isl =
      *islands_[static_cast<std::size_t>(flow_island(flow_id))];
  const std::size_t local = static_cast<std::size_t>(flow_id & kLocalFlowMask);
  auto& fr = *isl.flows[local];
  auto& rt = tenants_[static_cast<std::size_t>(isl.flow_tenant[local])];
  const TimeNs now = isl.events.now();
  while (!fr.boundaries.empty()) {
    auto b = std::move(fr.boundaries.front());
    fr.boundaries.pop_front();
    ++rt.counters.aborted;
    isl.msgs_aborted.inc();
    if (b.done) {
      MessageResult res;
      res.latency = now - b.start;
      res.had_rto = true;
      res.aborted = true;
      // The whole wait was loss recovery that never completed.
      res.breakdown.retransmit_ns = res.latency;
      b.done(res);
    }
  }
  fr.accum = MessageBreakdown{};
  fr.attr_mark = now;
  fr.msg_free_at = now;
}

std::int64_t ClusterSim::pair_delivered_bytes(int tenant, int src_local,
                                              int dst_local) const {
  const auto* fr = find_flow(tenant, src_local, dst_local);
  return fr ? fr->flow->bytes_delivered() : 0;
}

int ClusterSim::tenant_rto_count(int tenant) const {
  int total = 0;
  for (const auto& isl : islands_) {
    for (std::size_t i = 0; i < isl->flows.size(); ++i) {
      if (isl->flow_tenant[i] == tenant)
        total += static_cast<int>(isl->flows[i]->flow->rto_events().size());
    }
  }
  return total;
}

int ClusterSim::tenant_abort_count(int tenant) const {
  int total = 0;
  for (const auto& isl : islands_) {
    for (std::size_t i = 0; i < isl->flows.size(); ++i) {
      if (isl->flow_tenant[i] == tenant)
        total += isl->flows[i]->flow->abort_count();
    }
  }
  return total;
}

std::int64_t ClusterSim::total_aborted_messages() const {
  std::int64_t total = 0;
  for (const auto& rt : tenants_) total += rt.counters.aborted;
  return total;
}

std::int64_t ClusterSim::total_completed_messages() const {
  std::int64_t total = 0;
  for (const auto& rt : tenants_) total += rt.counters.completed;
  return total;
}

std::int64_t ClusterSim::total_fault_drops() const {
  if (!fabric_) return 0;
  std::int64_t total = fabric_->total_fault_drops();
  for (const auto& h : hosts_) total += h->fault_drops();
  return total;
}

void ClusterSim::dispatch(int island, PacketHandle h) {
  IslandState& isl = *islands_[static_cast<std::size_t>(island)];
  EventQueue& ev = isl.events;
  // Copy out and recycle the handle first: on_packet allocates the ACK from
  // the same pool, which may grow the arena under a live reference.
  const Packet p = ev.pool().get(h);
  if (!hosts_[static_cast<std::size_t>(p.dst_server)]->up()) {
    // Delivered to a crashed server: the frame dies at the dead NIC.
    hosts_[static_cast<std::size_t>(p.dst_server)]->drop_faulted(h);
    return;
  }
  // Snapshot the stage timeline before the handle is recycled — the
  // attribution in on_flow_delivery (called under on_packet) needs it.
  isl.pending_stages = ev.timeline().stages(PacketPool::slot_of(h));
  isl.pending_arrival = ev.now();
  ev.pool().free(h);
  const std::size_t local = static_cast<std::size_t>(p.flow_id & kLocalFlowMask);
  if (p.flow_id < 0 || flow_island(p.flow_id) != island ||
      local >= isl.flows.size())
    return;
  record_flight(ev, p, obs::FlightEventType::kDelivered,
                obs::host_location(p.dst_server));
  if (tap_) tap_(p);
  if (trace_enabled_) {
    DeliveryRecord rec;
    rec.at = ev.now();
    rec.src_vm = p.src_vm;
    rec.dst_vm = p.dst_vm;
    rec.seq = p.seq;
    rec.ack_seq = p.ack_seq;
    rec.payload = p.payload.count();
    rec.flags = static_cast<std::uint32_t>(p.is_ack) |
                (static_cast<std::uint32_t>(p.ecn_marked) << 1) |
                (static_cast<std::uint32_t>(p.ecn_echo) << 2) |
                (static_cast<std::uint32_t>(p.priority) << 3);
    isl.trace.push_back(rec);
  }
  isl.flows[local]->flow->on_packet(p);
}

// ------------------------------------------ conservative window protocol

int ClusterSim::next_hop_port(const Packet& p) const {
  const topology::PortSpan path = topo_->path_span(p.src_server, p.dst_server);
  if (p.hop >= path.size) return -1;
  return path.port[static_cast<std::size_t>(p.hop)].value;
}

bool ClusterSim::CrossIslandHandoff::offer(SwitchPortSim& port, PacketHandle h,
                                           TimeNs deliver_at) {
  return owner->offer_cross_island(port, h, deliver_at);
}

bool ClusterSim::offer_cross_island(SwitchPortSim& port, PacketHandle h,
                                    TimeNs deliver_at) {
  // Fabric ports carry their PortId as the flight-recorder location.
  const int src = part_.port_island[static_cast<std::size_t>(port.location())];
  IslandState& src_isl = *islands_[static_cast<std::size_t>(src)];
  EventQueue& ev = src_isl.events;
  const Packet& p = ev.pool().get(h);
  const int next = next_hop_port(p);
  if (next < 0) return false;  // final hop: host delivery is island-local
  const int dst = part_.port_island[static_cast<std::size_t>(next)];
  if (dst == src) return false;
  MailboxRecord rec;
  rec.arrival = deliver_at;
  rec.seq = src_isl.mailbox_seq++;
  rec.src_island = src;
  rec.dst_island = dst;
  rec.packet = p;
  rec.stages = ev.timeline().stages(PacketPool::slot_of(h));
  src_isl.outbox.push_back(rec);
  ev.pool().free(h);
  return true;
}

void ClusterSim::island_arrival(int island, PacketHandle h) {
  IslandState& isl = *islands_[static_cast<std::size_t>(island)];
  // The propagation across the boundary was charged to serialization at
  // tx-done, before the stages were snapshotted into the mailbox record.
  fabric_->advance_from_gateway(island, isl.events, h);
}

void ClusterSim::drain_inbox(int island) {
  IslandState& isl = *islands_[static_cast<std::size_t>(island)];
  if (isl.inbox.empty()) return;
  // The only ordering decision the parallel engine ever makes, and it is a
  // pure function of the records: (arrival, src-island, per-source seq).
  std::sort(isl.inbox.begin(), isl.inbox.end(),
            [](const MailboxRecord& a, const MailboxRecord& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              if (a.src_island != b.src_island)
                return a.src_island < b.src_island;
              return a.seq < b.seq;
            });
  const TimeNs now = isl.events.now();
  for (std::size_t r = 0; r < isl.inbox.size(); ++r) {
    const MailboxRecord& rec = isl.inbox[r];
    if (rec.arrival <= now)
      throw std::logic_error(
          "ClusterSim: cross-island arrival inside the closed window "
          "(lookahead violated)");
    const PacketHandle h = isl.events.pool().clone(rec.packet);
    isl.events.timeline().restore(PacketPool::slot_of(h), rec.stages);
    isl.events.schedule(rec.arrival, EventKind::kIslandArrival, &isl.gateway,
                        h);
  }
  // Tie census: same-instant arrivals into the same next queue from
  // different source islands are the one case where the fixed drain order
  // above actually decides something the sequential engine decided by
  // emission interleaving. The determinism matrix asserts this stays 0,
  // certifying checksum equality is structural, not coincidental.
  std::size_t g0 = 0;
  while (g0 < isl.inbox.size()) {
    std::size_t g1 = g0 + 1;
    while (g1 < isl.inbox.size() &&
           isl.inbox[g1].arrival == isl.inbox[g0].arrival)
      ++g1;
    for (std::size_t i = g0; i < g1; ++i) {
      for (std::size_t j = i + 1; j < g1; ++j) {
        if (isl.inbox[i].src_island != isl.inbox[j].src_island &&
            next_hop_port(isl.inbox[i].packet) ==
                next_hop_port(isl.inbox[j].packet))
          ++isl.tie_collisions;
      }
    }
    g0 = g1;
  }
  isl.inbox.clear();
}

std::uint64_t ClusterSim::total_processed() const {
  std::uint64_t total = 0;
  for (const auto& isl : islands_) total += isl->events.processed();
  return total;
}

std::uint64_t ClusterSim::island_processed(int island) const {
  return islands_.at(static_cast<std::size_t>(island))->events.processed();
}

void ClusterSim::run_parallel_until(TimeNs deadline) {
  materialize();
  IslandExecutor* exec = executor_ != nullptr
                             ? executor_
                             : static_cast<IslandExecutor*>(&serial_executor_);
  const int k = static_cast<int>(islands_.size());
  std::vector<TimeNs> comp_min;
  std::vector<TimeNs> horizon(static_cast<std::size_t>(k));
  while (true) {
    // Conservative horizons: W_c = min next event in the component plus its
    // lookahead, minus one — no cross-island arrival can land at or before
    // it. Isolated components (lookahead = infinity) run straight to the
    // deadline; that is the common fast path for rack-local traffic.
    comp_min.assign(static_cast<std::size_t>(part_.num_components),
                    kTimeInfinity);
    TimeNs global_min = kTimeInfinity;
    for (int i = 0; i < k; ++i) {
      const auto next = islands_[static_cast<std::size_t>(i)]
                            ->events.peek_next_time();
      if (!next) continue;
      const auto c = static_cast<std::size_t>(part_.component[
          static_cast<std::size_t>(i)]);
      if (*next < comp_min[c]) comp_min[c] = *next;
      if (*next < global_min) global_min = *next;
    }
    if (global_min > deadline) break;
    for (int i = 0; i < k; ++i) {
      const auto c = static_cast<std::size_t>(
          part_.component[static_cast<std::size_t>(i)]);
      TimeNs w = sat_add(comp_min[c], part_.component_lookahead[c]);
      if (w != kTimeInfinity) w = w - TimeNs{1};
      horizon[static_cast<std::size_t>(i)] = std::min(w, deadline);
    }
    const std::uint64_t before = total_processed();
    exec->parallel_for(k, [this, &horizon](int i) {
      islands_[static_cast<std::size_t>(i)]->events.run_until(
          horizon[static_cast<std::size_t>(i)]);
    });
    // Barrier reached: distribute outboxes serially in island order (a
    // pure pointer shuffle), then drain every inbox in parallel — the
    // drain order inside each island is fixed by the record sort.
    std::size_t moved = 0;
    for (int i = 0; i < k; ++i) {
      auto& out = islands_[static_cast<std::size_t>(i)]->outbox;
      moved += out.size();
      for (auto& rec : out)
        islands_[static_cast<std::size_t>(rec.dst_island)]->inbox.push_back(
            std::move(rec));
      out.clear();
    }
    exec->parallel_for(k, [this](int i) { drain_inbox(i); });
    ++rounds_;
    if (total_processed() == before && moved == 0)
      throw std::logic_error(
          "ClusterSim: window protocol made no progress (zero-lookahead "
          "cycle should have been merged at partition time)");
  }
  // No island has events at or before the deadline: land every clock on it.
  for (int i = 0; i < k; ++i)
    islands_[static_cast<std::size_t>(i)]->events.run_until(deadline);
}

std::int64_t ClusterSim::cross_tie_collisions() const {
  std::int64_t total = 0;
  for (const auto& isl : islands_) total += isl->tie_collisions;
  return total;
}

// --------------------------------------------------- merged observability

std::vector<obs::MetricSample> ClusterSim::merged_metrics() const {
  if (islands_.empty())
    throw std::logic_error(
        "ClusterSim::merged_metrics(): islands not materialized yet (run, "
        "or access fabric() first)");
  auto merged = islands_.front()->metrics.snapshot();
  for (std::size_t i = 1; i < islands_.size(); ++i) {
    const auto shard = islands_[i]->metrics.snapshot();
    if (shard.size() != merged.size())
      throw std::logic_error("ClusterSim: island metric catalogs diverged");
    for (std::size_t m = 0; m < shard.size(); ++m) {
      obs::MetricSample& dst = merged[m];
      const obs::MetricSample& src = shard[m];
      if (src.name != dst.name || src.type != dst.type)
        throw std::logic_error("ClusterSim: island metric catalogs diverged");
      switch (dst.type) {
        case obs::MetricType::kCounter:
          dst.value += src.value;
          break;
        case obs::MetricType::kGauge:
          dst.value = std::max(dst.value, src.value);
          break;
        case obs::MetricType::kHistogram: {
          obs::HistogramState& dh = *dst.hist;
          const obs::HistogramState& sh = *src.hist;
          for (std::size_t b = 0; b < dh.counts.size(); ++b)
            dh.counts[b] += sh.counts[b];
          dh.count += sh.count;
          dh.sum += sh.sum;
          break;
        }
      }
    }
  }
  return merged;
}

namespace {

std::uint64_t fold_record(std::uint64_t h, TimeNs at, int src_vm, int dst_vm,
                          std::int64_t seq, std::int64_t ack_seq,
                          std::int64_t payload, std::uint32_t flags) {
  h = fnv1a_word(h, static_cast<std::uint64_t>(at.count()));
  h = fnv1a_word(h, static_cast<std::uint64_t>(src_vm));
  h = fnv1a_word(h, static_cast<std::uint64_t>(dst_vm));
  h = fnv1a_word(h, static_cast<std::uint64_t>(seq));
  h = fnv1a_word(h, static_cast<std::uint64_t>(ack_seq));
  h = fnv1a_word(h, static_cast<std::uint64_t>(payload));
  h = fnv1a_word(h, flags);
  return h;
}

}  // namespace

std::uint64_t ClusterSim::delivery_trace_checksum() const {
  // Canonical order: sort by the full record tuple. Flow ids are excluded
  // from the record on purpose — they encode the island and would differ
  // between sequential and parallel runs of the same scenario.
  std::vector<DeliveryRecord> all;
  for (const auto& isl : islands_)
    all.insert(all.end(), isl->trace.begin(), isl->trace.end());
  std::sort(all.begin(), all.end(),
            [](const DeliveryRecord& a, const DeliveryRecord& b) {
              return std::tie(a.at, a.src_vm, a.dst_vm, a.seq, a.ack_seq,
                              a.payload, a.flags) <
                     std::tie(b.at, b.src_vm, b.dst_vm, b.seq, b.ack_seq,
                              b.payload, b.flags);
            });
  std::uint64_t h = kFnvSeed;
  for (const auto& r : all)
    h = fold_record(h, r.at, r.src_vm, r.dst_vm, r.seq, r.ack_seq, r.payload,
                    r.flags);
  return h;
}

std::uint64_t ClusterSim::island_trace_checksum() const {
  // Unsorted: island by island, records in the order they were observed.
  // Any executor-dependent reordering anywhere in the engine changes this.
  std::uint64_t h = kFnvSeed;
  for (const auto& isl : islands_) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(isl->id));
    for (const auto& r : isl->trace)
      h = fold_record(h, r.at, r.src_vm, r.dst_vm, r.seq, r.ack_seq, r.payload,
                      r.flags);
  }
  return h;
}

std::int64_t ClusterSim::delivery_trace_size() const {
  std::int64_t total = 0;
  for (const auto& isl : islands_)
    total += static_cast<std::int64_t>(isl->trace.size());
  return total;
}

}  // namespace silo::sim
