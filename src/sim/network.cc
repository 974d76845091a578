#include "sim/network.h"

#include <algorithm>

namespace silo::sim {

namespace {

// NIC slot ids are the packet handle, tagged with whether a pacer released
// it, so the batch builder attributes the wait without a packet load.
constexpr std::uint64_t kPacedSlot = std::uint64_t{1} << 32;

}  // namespace

Fabric::Fabric(const topology::Topology& topo,
               const PortConfig& port_template, std::vector<int> port_island,
               const std::vector<EventQueue*>& island_queues)
    : topo_(topo), port_island_(std::move(port_island)) {
  ports_.resize(static_cast<std::size_t>(topo.num_ports()));
  for (int i = 0; i < topo.num_ports(); ++i) {
    PortConfig cfg = port_template;
    cfg.rate = topo.port(topology::PortId{i}).rate;
    cfg.buffer = topo.port(topology::PortId{i}).buffer;
    const int island = port_island_[static_cast<std::size_t>(i)];
    EventQueue* q = island_queues.at(static_cast<std::size_t>(island));
    ports_[static_cast<std::size_t>(i)] = std::make_unique<SwitchPortSim>(
        *q, cfg,
        [this, island, q](PacketHandle h) { advance(island, *q, h); });
    ports_[static_cast<std::size_t>(i)]->set_location(i);
  }
}

void Fabric::ingress_from_host(int island, EventQueue& q, PacketHandle h) {
  Packet& p = q.pool().get(h);
  if (p.is_void) {  // first-hop switch drops void frames
    q.pool().free(h);
    return;
  }
  p.hop = 1;  // path[0] (the NIC egress) was the host's wire
  advance(island, q, h);
}

void Fabric::advance(int island, EventQueue& q, PacketHandle h) {
  Packet& p = q.pool().get(h);
  const topology::PortSpan path = topo_.path_span(p.src_server, p.dst_server);
  if (p.hop >= path.size) {
    if (deliver_)
      deliver_(island, q, h);
    else
      q.pool().free(h);
    return;
  }
  // The next hop is always island-local: a transmission
  // whose next queue lives elsewhere was claimed by the egress handoff
  // hook and re-enters through the destination island's gateway instead.
  const auto port_id = path.port[static_cast<std::size_t>(p.hop)];
  ++p.hop;
  ports_[static_cast<std::size_t>(port_id.value)]->enqueue(h);
}

std::int64_t Fabric::total_drops() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().drops;
  return total;
}

std::int64_t Fabric::total_ecn_marks() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().ecn_marks;
  return total;
}

std::int64_t Fabric::total_fault_drops() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().fault_drops;
  return total;
}

Host::Host(EventQueue& events, Fabric& fabric, int server_id,
           const Config& cfg)
    : events_(events),
      fabric_(fabric),
      server_id_(server_id),
      cfg_(cfg),
      nic_(cfg.link_rate, cfg.nic_mode, cfg.batch_window) {
  PortConfig lo;
  lo.rate = cfg.loopback_rate;
  lo.buffer = cfg.loopback_buffer;
  lo.link_delay = cfg.loopback_delay;
  loopback_ =
      std::make_unique<SwitchPortSim>(events, lo, [this](PacketHandle h) {
        if (local_deliver_)
          local_deliver_(h);
        else
          events_.pool().free(h);
      });
  loopback_->set_location(obs::host_location(server_id));
}

void Host::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (up) {
    loopback_->set_link_up(true);
    return;
  }
  // Crash: everything parked on this server dies. Per-VM pacer queues,
  // the NIC batch queue (slot ids are pool handles) and the loopback
  // vswitch all hold live handles that must go back to the pool.
  for (auto& [vm, v] : tx_) {
    for (auto& [dst, dq] : v.dests) {
      for (std::uint32_t i = 0; i < dq.q.size(); ++i)
        drop_faulted(dq.q[i].handle);
      dq.q.clear();
      dq.bytes = Bytes{0};
    }
  }
  for (const std::uint64_t id : nic_.drain())
    drop_faulted(static_cast<PacketHandle>(id));  // drops the paced tag
  loopback_->set_link_up(false);
}

void Host::drop_faulted(PacketHandle h) {
  ++fault_drops_;
  metrics_.fault_drops.inc();
  record_flight(events_, events_.pool().get(h), obs::FlightEventType::kDropped,
                obs::host_location(server_id_), /*fault=*/true);
  events_.pool().free(h);
}

void Host::send(PacketHandle h) {
  if (!up_) {
    drop_faulted(h);
    return;
  }
  const Packet& p = events_.pool().get(h);
  if (p.dst_server == server_id_) {
    // VM-to-VM on the same server: the virtual switch forwards internally
    // at memory speed — fast, but a finite, contended resource.
    loopback_->enqueue(h);
    return;
  }
  if (VmTx* v = tx_.find(p.src_vm)) {
    const int vm = p.src_vm;
    auto& dq = v->dests[p.dst_vm];
    if (dq.bytes + p.wire_bytes > cfg_.pacer_queue_cap) {
      ++pacer_drops_;  // finite driver queue
      metrics_.pacer_drops.inc();
      record_flight(events_, p, obs::FlightEventType::kDropped,
                    obs::host_location(server_id_));
      events_.pool().free(h);
      return;
    }
    dq.bytes += p.wire_bytes;
    dq.q.push_back({h, static_cast<std::uint32_t>(p.wire_bytes.count())});
    schedule_release(vm);
    return;
  }
  hand_to_nic(h, p.wire_bytes, events_.now(), /*paced=*/false);
}

void Host::hand_to_nic(PacketHandle h, Bytes wire, TimeNs release,
                       bool paced) {
  if (release > events_.now()) metrics_.throttled.inc();
  if (obs::FlightRecorder* r = events_.flight_recorder()) {
    const Packet& p = events_.pool().get(h);
    obs::FlightEvent e;
    e.at = release;  // when the pacer allows the first bit on the wire
    e.packet_id = p.id;
    e.seq = p.seq;
    e.flow_id = p.flow_id;
    e.location = obs::host_location(server_id_);
    e.bytes = static_cast<std::int32_t>(p.wire_bytes);
    e.type = obs::FlightEventType::kPaced;
    e.is_ack = p.is_ack;
    r->record(e);
  }
  // The NIC slot id *is* the packet handle — no side map needed.
  nic_.enqueue(release, wire, paced ? h | kPacedSlot : h);
  kick();
}

void Host::schedule_release(int vm) {
  auto& v = *tx_.find(vm);
  auto* pacer = v.pacer;
  // Earliest conformance over the head packets of all destination queues.
  TimeNs best {-1};
  for (auto& [dst, dq] : v.dests) {
    if (dq.q.empty()) continue;
    const TimeNs t =
        pacer->peek(events_.now(), dst, Bytes{dq.q.front().wire});
    if (best < TimeNs{0} || t < best) best = t;
  }
  if (best < TimeNs{0}) return;  // all queues empty
  // Eligible one batch window early (NIC lookahead for void filling).
  const TimeNs when =
      std::max(events_.now(), best - nic_.batch_window());
  if (v.release_scheduled && v.scheduled_at <= when) return;
  v.release_scheduled = true;
  v.scheduled_at = when;
  const std::uint64_t gen = ++v.generation;
  events_.schedule(when, EventKind::kHostRelease, this,
                   static_cast<std::uint32_t>(vm), gen);
}

void Host::handle_release(int vm, std::uint64_t generation) {
  auto& v = *tx_.find(vm);
  if (generation != v.generation || !v.release_scheduled) return;
  v.release_scheduled = false;
  auto* pacer = v.pacer;
  // Re-derive the winner at release time (arrivals may have changed it).
  // Backlogged destinations tie on the shared-bucket conformance time, so
  // ties rotate round-robin after the last served destination — a strict
  // "<" would let the lowest id starve every other queue.
  TimeNs best {-1};
  int best_dst = -1;
  for (auto& [dst, dq] : v.dests) {
    if (dq.q.empty()) continue;
    const TimeNs t =
        pacer->peek(events_.now(), dst, Bytes{dq.q.front().wire});
    const bool wins =
        best < TimeNs{0} || t < best ||
        (t == best && best_dst <= v.last_served && dst > v.last_served);
    if (wins) {
      best = t;
      best_dst = dst;
    }
  }
  if (best_dst < 0) return;
  v.last_served = best_dst;
  // Release packets whose conformance falls within one NIC batch window —
  // the lookahead Paced IO Batching needs to build void-filled batches.
  // The shared-bucket cross-charging this allows is bounded by one window
  // of bytes, which is negligible skew.
  if (best > events_.now() + nic_.batch_window()) {
    schedule_release(vm);
    return;
  }
  auto& dq = *v.dests.find(best_dst);
  const QueuedPacket e = dq.q.pop_front();
  const Bytes wire{e.wire};
  dq.bytes -= wire;
  const TimeNs release = pacer->stamp(events_.now(), best_dst, wire);
  hand_to_nic(e.handle, wire, release, /*paced=*/true);
  schedule_release(vm);
}

TimeNs Host::pacer_delay(TimeNs now, int src_vm, int dst_vm, Bytes bytes) {
  VmTx* v = tx_.find(src_vm);
  if (v == nullptr) return TimeNs{0};
  const TimeNs head_wait = v->pacer->peek(now, dst_vm, bytes) - now;
  const DestQueue* dq = v->dests.find(dst_vm);
  if (dq == nullptr) return head_wait;
  // Queued bytes drain at (at least) the VM's hose rate.
  const double drain = static_cast<double>(dq->bytes + bytes) * 8e9 /
                       v->pacer->guarantee().bandwidth.bps();
  return head_wait + static_cast<TimeNs>(drain);
}

void Host::kick() {
  if (transmitting_) return;  // DMA completion will re-kick
  const TimeNs start = nic_.next_start(events_.now());
  if (start < TimeNs{0}) return;  // queue empty
  if (build_scheduled_ && scheduled_start_ <= start) return;
  build_scheduled_ = true;
  scheduled_start_ = start;
  const std::uint64_t gen = ++build_generation_;
  events_.schedule(start, EventKind::kHostBuild, this, 0, gen);
}

void Host::handle_build(std::uint64_t generation) {
  if (generation != build_generation_ || !build_scheduled_) return;
  build_scheduled_ = false;
  run_batch();
}

void Host::run_batch() {
  const auto& slots = nic_.build_batch(events_.now());
  if (slots.empty()) {
    transmitting_ = false;
    kick();
    return;
  }
  transmitting_ = true;
  metrics_.batches.inc();
  for (const auto& slot : slots) {
    if (slot.is_void) {  // occupies the wire; ToR will not see it
      metrics_.void_packets.inc();
      continue;
    }
    metrics_.data_packets.inc();
    const auto h = static_cast<PacketHandle>(slot.id);
    // Emit -> wire start: pacing delay for paced VMs (token wait + batch
    // alignment), sender-NIC queueing for unpaced ones. Wire start -> ToR
    // arrival is the NIC's serialization time plus propagation.
    const bool paced = (slot.id & kPacedSlot) != 0;
    const TimeNs at_tor = slot.end + cfg_.tor_link_delay;
    events_.timeline().advance(
        PacketPool::slot_of(h), slot.start,
        paced ? obs::Stage::kPacing : obs::Stage::kQueueing);
    events_.timeline().advance(PacketPool::slot_of(h), at_tor,
                               obs::Stage::kSerialization);
    events_.schedule(at_tor, EventKind::kHostIngress, this, h);
  }
  const TimeNs batch_end = slots.back().end;
  events_.schedule(batch_end, EventKind::kHostBatchEnd, this);
}

void Host::handle_batch_end() {
  transmitting_ = false;
  kick();
}

void Host::handle_ingress(PacketHandle h) {
  // Server -> ToR propagation was charged to serialization at batch build.
  if (!up_) {
    // The server died after this frame was scheduled onto the wire.
    drop_faulted(h);
    return;
  }
  // The first fabric hop (this server's rack) is always island-local.
  fabric_.ingress_from_host(cfg_.island, events_, h);
}

}  // namespace silo::sim
