// Discrete-event engine for the packet-level simulator (the repository's
// ns2 stand-in). Deterministic: ties in time break by insertion order.
//
// The scheduler is a two-level hashed hierarchical timing wheel (256 ns
// ticks, 256 slots per level -> ~65 us level-0 span, ~16.8 ms level-1 span)
// with a small binary-heap overflow for far-future events (RTO timers,
// control-plane periodics). Events are typed POD records dispatched through
// a switch on EventKind — no virtual call, no std::function, and no heap
// allocation anywhere on the per-packet path. Generic std::function
// callbacks remain available for cold control-plane work (tests, drivers'
// response closures); they ride the same wheel via a recycled slot table.
//
// The engine also owns the PacketPool: every component that can schedule
// events can reach the packet arena through it, so packets travel as 4-byte
// handles instead of 80-byte structs captured in closures.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/packet_timeline.h"
#include "sim/packet_pool.h"
#include "util/units.h"

namespace silo::sim {

class SwitchPortSim;
class Host;
class TcpFlow;
class ClusterSim;
class IslandGateway;

/// The simulator's actual event kinds. Hot per-packet kinds carry a packet
/// handle; control kinds carry small integers. kCallback/kRawCall cover
/// everything else.
enum class EventKind : std::uint8_t {
  kCallback,          ///< std::function slot (arg = slot index)
  kRawCall,           ///< captureless fn(void* ctx, uint32 arg); fn in aux
  kPortTxDone,        ///< target SwitchPortSim, arg = packet handle
  kPortDeliver,       ///< target SwitchPortSim, arg = packet handle
  kHostRelease,       ///< target Host, arg = vm, aux = generation
  kHostBuild,         ///< target Host, aux = generation
  kHostBatchEnd,      ///< target Host
  kHostIngress,       ///< target Host, arg = packet handle
  kFlowRtoTimer,      ///< target TcpFlow
  kFlowTsqRetry,      ///< target TcpFlow
  kClusterRebalance,  ///< target ClusterSim, arg = tenant
  kClusterLeaseEpoch, ///< target ClusterSim (headroom-lender epoch tick)
  kIslandArrival,     ///< target IslandGateway, arg = packet handle
                      ///< (cross-island handoff re-entering this island)
};

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using RawFn = void (*)(void* ctx, std::uint32_t arg);

  TimeNs now() const { return now_; }

  PacketPool& pool() { return pool_; }
  const PacketPool& pool() const { return pool_; }

  /// Per-packet stage accounting (latency-breakdown attribution), keyed by
  /// pool handle. Lives here so every component holding the event queue can
  /// reach it without extra plumbing. Always on; pure stores, no branches.
  obs::PacketTimeline& timeline() { return timeline_; }
  const obs::PacketTimeline& timeline() const { return timeline_; }

  /// Optional flight recorder; components check for null before recording.
  /// Owned by the facade (ClusterSim) or the test that enables it.
  void set_flight_recorder(obs::FlightRecorder* r) { recorder_ = r; }
  obs::FlightRecorder* flight_recorder() { return recorder_; }

  /// Schedule a typed event at absolute time `t` (clamped to >= now).
  void schedule(TimeNs t, EventKind kind, void* target, std::uint32_t arg = 0,
                std::uint64_t aux = 0) {
    push(make_event(t, kind, target, arg, aux));
  }
  void schedule_after(TimeNs delay, EventKind kind, void* target,
                      std::uint32_t arg = 0, std::uint64_t aux = 0) {
    schedule(now_ + delay, kind, target, arg, aux);
  }

  /// Schedule a captureless function + context pointer: typed dispatch for
  /// components outside the sim layer (workload arrivals, tracers).
  void raw_at(TimeNs t, RawFn fn, void* ctx, std::uint32_t arg = 0) {
    push(make_event(t, EventKind::kRawCall, ctx, arg,
                    reinterpret_cast<std::uint64_t>(fn)));
  }
  void raw_after(TimeNs delay, RawFn fn, void* ctx, std::uint32_t arg = 0) {
    raw_at(now_ + delay, fn, ctx, arg);
  }

  /// Schedule `cb` at absolute time `t` (>= now). Cold path: the callback
  /// object lives in a recycled slot table.
  void at(TimeNs t, Callback cb) {
    std::uint32_t slot;
    if (!cb_free_.empty()) {
      slot = cb_free_.back();
      cb_free_.pop_back();
      cb_slots_[slot] = std::move(cb);
    } else {
      slot = static_cast<std::uint32_t>(cb_slots_.size());
      cb_slots_.push_back(std::move(cb));
    }
    ++callback_events_;
    push(make_event(t, EventKind::kCallback, nullptr, slot, 0));
  }

  /// Schedule `cb` after a delay.
  void after(TimeNs delay, Callback cb) { at(now_ + delay, std::move(cb)); }

  /// Timestamp of the earliest pending event without dispatching it, or
  /// empty when the queue is idle. The conservative window protocol reads
  /// every island's next-event time to derive safe horizons. Mutates wheel
  /// cursors (cascades slots into the due run) but never the event set —
  /// owner-thread-only, like every other member.
  std::optional<TimeNs> peek_next_time() {
    if (!prepare_next()) return std::nullopt;
    return due_[due_head_].time;
  }

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }
  std::uint64_t processed() const { return processed_; }
  /// std::function events ever scheduled — a hot path regression detector:
  /// this must not grow with per-packet work.
  std::uint64_t callback_events() const { return callback_events_; }

  /// Run the earliest event; returns false when none remain.
  bool step() {
    if (!prepare_next()) return false;
    const Event ev = due_[due_head_++];  // copy: dispatch may grow due_
    audit_monotonic(ev.time);
    now_ = ev.time;
    ++processed_;
    --size_;
    prefetch_next();
    dispatch(ev);
    return true;
  }

  /// Run events with time <= deadline; clock lands on the deadline.
  void run_until(TimeNs deadline) {
    while (prepare_next() && due_[due_head_].time <= deadline) {
      const Event ev = due_[due_head_++];
      audit_monotonic(ev.time);
      now_ = ev.time;
      ++processed_;
      --size_;
      prefetch_next();
      dispatch(ev);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  // Timing-wheel geometry: 2^kTickBits ns per tick, 2^kSlotBits slots per
  // level. Level 0 spans ~65 us, level 1 ~16.8 ms; everything farther out
  // waits in the overflow heap until its 16.8 ms window opens.
  static constexpr int kTickBits = 8;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Event {
    TimeNs time;
    std::uint64_t seq;
    void* target;
    std::uint64_t aux;
    std::uint32_t arg;
    EventKind kind;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  static std::uint64_t tick_of(TimeNs t) {
    return static_cast<std::uint64_t>(t) >> kTickBits;
  }

  Event make_event(TimeNs t, EventKind kind, void* target, std::uint32_t arg,
                   std::uint64_t aux) {
    return Event{t < now_ ? now_ : t, seq_++, target, aux, arg, kind};
  }

  /// SILO_AUDIT: the dispatch clock must never run backwards. A violation
  /// means wheel cascading or the due-run merge mis-ordered an event — the
  /// exact class of bug that silently corrupts every downstream trace.
  void audit_monotonic(TimeNs t) const {
#ifdef SILO_AUDIT
    if (t < now_)
      throw std::logic_error("EventQueue: event time ran backwards");
#else
    (void)t;
#endif
  }

  /// Start loading the packet state the next due event will touch while
  /// this one runs (~one event of lead time): the packet a delivery or an
  /// ingress routes, the stage record a tx-done charges.
  void prefetch_next() const {
    if (due_head_ == due_.size()) return;
    const Event& next = due_[due_head_];
    switch (next.kind) {
      case EventKind::kPortDeliver:
      case EventKind::kHostIngress:
      case EventKind::kIslandArrival:
        pool_.prefetch(next.arg);
        break;
      case EventKind::kPortTxDone:
        timeline_.prefetch(PacketPool::slot_of(next.arg));
        break;
      default:
        break;
    }
  }

  void push(const Event& ev);
  bool prepare_next();  ///< ensures due_ holds the global minimum
  void dispatch(const Event& ev);
  void run_callback(const Event& ev);
  void insert_due(const Event& ev);
  void place_in_wheel(const Event& ev);  ///< tick strictly > cur_tick_
  void take_slot(int level, std::uint32_t slot);
  bool advance();  ///< move cur_tick_ to the next occupied tick, fill due_

  static int find_slot(const std::uint64_t* bits, int from);

  // Sorted run of already-due events ((time, seq) ascending), consumed from
  // due_head_. Same-time reentrant schedules binary-insert here.
  std::vector<Event> due_;
  std::size_t due_head_ = 0;

  std::vector<Event> wheel_[2][kSlots];
  std::uint64_t occupied_[2][kSlots / 64] = {};
  std::uint64_t cur_tick_ = 0;

  std::priority_queue<Event, std::vector<Event>, Later> overflow_;

  std::vector<Callback> cb_slots_;
  std::vector<std::uint32_t> cb_free_;

  PacketPool pool_;
  obs::PacketTimeline timeline_;
  obs::FlightRecorder* recorder_ = nullptr;
  TimeNs now_ {};
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t callback_events_ = 0;
};

}  // namespace silo::sim
