// Output-queued switch port: drop-tail shared buffer, two 802.1q priority
// levels, optional DCTCP ECN marking and optional HULL phantom queue.
//
// Packets are pool handles; transmission and propagation self-schedule as
// typed events (kPortTxDone / kPortDeliver) — nothing on the per-packet
// path allocates. The deliver callback receives ownership of the handle.
//
// Memory-touch contract: a queued packet's wire size rides in its queue
// entry and the packet on the wire has its size and tx time kept on the
// port, so dequeue and tx-start never load the packet from the arena; they
// prefetch it and its timeline record instead. Tx-done charges the whole
// hop (queueing, transmission, propagation) in one touch of that record.
#pragma once

#include <functional>
#include <set>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/packet_ring.h"
#include "util/rng.h"
#include "util/units.h"

namespace silo::sim {

/// Record a flight-recorder event for `p` at the current time, if a
/// recorder is attached to the event queue. One pointer load + null check
/// when recording is off.
inline void record_flight(EventQueue& events, const Packet& p,
                          obs::FlightEventType type, std::int32_t location,
                          bool fault = false) {
  obs::FlightRecorder* r = events.flight_recorder();
  if (!r) return;
  obs::FlightEvent e;
  e.at = events.now();
  e.packet_id = p.id;
  e.seq = p.seq;
  e.flow_id = p.flow_id;
  e.location = location;
  e.bytes = static_cast<std::int32_t>(p.wire_bytes);
  e.type = type;
  e.is_ack = p.is_ack;
  e.fault = fault;
  r->record(e);
}

struct PortConfig {
  RateBps rate = 10 * kGbps;
  Bytes buffer = 312 * kKB;     ///< shared across both priorities
  Bytes ecn_threshold {};      ///< DCTCP K in bytes; 0 disables marking
  bool phantom_queue = false;   ///< HULL: mark off a virtual queue instead
  double phantom_drain = 0.95;  ///< phantom queue drains at this link fraction
  Bytes phantom_threshold = 3 * kKB;
  TimeNs link_delay {500};      ///< propagation + forwarding to next hop
  /// pFabric: serve the packet with the fewest remaining message bytes
  /// first; when the buffer fills, evict the largest-remaining packet.
  bool pfabric = false;
};

/// Registry handles a port updates alongside its local PortStats. The
/// cells are typically shared fabric-wide (every port increments the same
/// counter); default-constructed handles are null sinks, so an unwired
/// port pays one add per event and nothing else.
struct PortMetricHooks {
  obs::Counter tx_packets;
  obs::Counter tx_bytes;
  obs::Counter drops;
  obs::Counter fault_drops;
  obs::Counter ecn_marks;
  obs::Gauge peak_queue_bytes;
  obs::Histogram queue_bytes;
};

struct PortStats {
  std::int64_t tx_packets = 0;
  std::int64_t tx_bytes = 0;
  std::int64_t drops = 0;
  std::int64_t ecn_marks = 0;
  /// Packets killed by injected faults (dead link, random loss) — kept
  /// apart from congestion `drops` so recovery tests can tell them apart.
  std::int64_t fault_drops = 0;
  Bytes max_queue_bytes {};
};

/// Cross-island egress interception point. When attached to a port, every
/// successful transmission is offered to the hook at tx-done, *before* the
/// local kPortDeliver is scheduled. Returning true means the hook consumed
/// the handle (the packet is crossing into another island's mailbox and
/// will be re-materialized there at `deliver_at`); false leaves the
/// sequential delivery path untouched. Because the offer happens at
/// transmission completion, the earliest possible re-entry time is
/// now + link_delay — exactly the lookahead the window protocol assumes.
class PortTxHandoff {
 public:
  virtual ~PortTxHandoff() = default;
  virtual bool offer(SwitchPortSim& port, PacketHandle h,
                     TimeNs deliver_at) = 0;
};

class SwitchPortSim {
 public:
  /// Receives ownership of the delivered packet handle; the callee (next
  /// hop, host, or test) must free or forward it.
  using DeliverFn = std::function<void(PacketHandle)>;

  SwitchPortSim(EventQueue& events, PortConfig cfg, DeliverFn deliver)
      : events_(events), cfg_(cfg), deliver_(std::move(deliver)) {}

  /// Queue a packet for transmission; drops (and frees) when the buffer is
  /// full. Takes ownership of the handle.
  void enqueue(PacketHandle h);

  /// Fault injection: a downed link flushes (and frees) everything queued,
  /// kills the packet currently on the wire at tx-done, and drops all new
  /// arrivals until the link comes back up.
  void set_link_up(bool up);
  bool link_up() const { return link_up_; }

  /// Probabilistic per-link packet loss (injected fault, not congestion).
  /// `rng` must outlive the loss window; rate 0 / nullptr disables.
  void set_loss(double rate, Rng* rng) {
    loss_rate_ = rate;
    loss_rng_ = rate > 0 ? rng : nullptr;
  }

  Bytes queued_bytes() const { return queued_bytes_; }
  const PortStats& stats() const { return stats_; }
  const PortConfig& config() const { return cfg_; }

  /// Attach registry handles (cold path; see PortMetricHooks).
  void set_metrics(const PortMetricHooks& m) { metrics_ = m; }
  /// Attach the cross-island egress hook (parallel mode only; null — the
  /// default — keeps the sequential path bit-identical).
  void set_tx_handoff(PortTxHandoff* hook) { handoff_ = hook; }
  /// Flight-recorder location id: fabric ports use their PortId value,
  /// host-side ports (loopback vswitch) use obs::host_location(server).
  void set_location(std::int32_t location) { location_ = location; }
  std::int32_t location() const { return location_; }

 private:
  friend class EventQueue;  ///< typed-event dispatch

  /// pFabric queue entry: ordered by (remaining, arrival) so the head is
  /// the most urgent packet (earliest arrival among ties) and the largest
  /// remaining value is at the back — both O(log n).
  struct PfEntry {
    std::int64_t remaining;
    std::uint64_t arrival;
    PacketHandle handle;
    std::uint32_t wire;
    bool operator<(const PfEntry& o) const {
      return remaining != o.remaining ? remaining < o.remaining
                                      : arrival < o.arrival;
    }
  };

  // SILO_AUDIT byte-conservation ledger: every wire byte the port accepts
  // must later leave through exactly one of tx-start, pfabric eviction, or
  // a fault flush — or still be queued. An imbalance means a packet was
  // dropped without accounting (leak) or double-counted (corruption). O(1)
  // per check, compiled out entirely without SILO_AUDIT.
#ifdef SILO_AUDIT
  void audit_accept(Bytes b) { audit_in_ += b.count(); }
  void audit_leave(Bytes b) { audit_out_ += b.count(); }
  void audit_conserved() const {
    if (audit_in_ != audit_out_ + queued_bytes_.count())
      throw std::logic_error("SwitchPortSim: queued bytes not conserved");
  }
#else
  void audit_accept(Bytes) {}
  void audit_leave(Bytes) {}
  void audit_conserved() const {}
#endif

  void maybe_mark(Packet& p);
  void start_tx();
  void handle_tx_done(PacketHandle h);
  void handle_deliver(PacketHandle h);
  void enqueue_pfabric(PacketHandle h);
  QueuedPacket dequeue_next();
  void flush_queues();
  void drop_flushed(PacketHandle h, Bytes wire);

  EventQueue& events_;
  PortConfig cfg_;
  DeliverFn deliver_;
  PacketRing queue_[2];  ///< [0]=guaranteed, [1]=best effort
  std::set<PfEntry> pfabric_queue_;
  std::uint64_t pfabric_arrivals_ = 0;
  Bytes queued_bytes_ {};
  Bytes tx_wire_ {};  ///< wire bytes of the packet on the wire (when busy_)
  TimeNs tx_time_ {};  ///< its transmission time; tx started tx_time_ ago
  bool busy_ = false;
  bool link_up_ = true;
  double loss_rate_ = 0;
  Rng* loss_rng_ = nullptr;
  double phantom_bytes_ = 0;
  TimeNs phantom_updated_ {};
  PortStats stats_;
  PortMetricHooks metrics_;
  PortTxHandoff* handoff_ = nullptr;
  std::int32_t location_ = 0;
#ifdef SILO_AUDIT
  std::int64_t audit_in_ = 0;   ///< wire bytes ever accepted into the queue
  std::int64_t audit_out_ = 0;  ///< wire bytes that left (tx/evict/flush)
#endif
};

}  // namespace silo::sim
