// PacketTimeline: per-packet stage accounting for latency-breakdown
// attribution, keyed by PacketHandle.
//
// The simulator's Packet POD is deliberately small and pooled (PR 1), so
// attribution state lives in this side table indexed by the pool *slot*
// (PacketPool::slot_of(handle) — never the raw generation-tagged handle,
// whose high bits would blow the table up) instead of growing the POD. The table only grows when the pool arena
// grows, so it inherits the pool's steady-state zero-allocation property.
//
// A packet's life is modeled as contiguous stage segments that partition
// [emitted, delivered]:
//
//   emit ──pacing──> wire-start ──serialization──> next hop
//        ──queueing──> tx-start ──serialization──> ... ──> delivered
//
// Each instrumentation site calls advance(h, t, stage), which charges
// `t - mark` to that stage and moves the mark to `t`. Because the mark
// never skips time, pacing + queueing + serialization == delivery_time -
// emitted *exactly*, in integer nanoseconds — the property bench_breakdown
// asserts to within 1 ns after per-message aggregation.
//
// To touch a record once per hop, `t` may lie in the past or a little in
// the future: a switch port charges a whole hop at tx-done (queueing up to
// tx start, serialization through propagation to the next hop), and the
// NIC charges at batch build through arrival at the ToR. Nothing reads or
// charges the record while its packet is on the wire, so the totals are
// the same integers as charging each segment when it ends.
#pragma once

#include <cstdint>
#include <vector>

#include "util/prefetch.h"
#include "util/units.h"

namespace silo::obs {

enum class Stage : std::uint8_t { kPacing, kQueueing, kSerialization };

struct PacketStages {
  TimeNs emitted {};  ///< transport handed the packet to the host
  TimeNs mark {};     ///< end of the last charged segment
  TimeNs pacing_ns {};
  TimeNs queue_ns {};
  TimeNs serial_ns {};
  bool retransmit = false;
  bool tracked = false;
};

class PacketTimeline {
 public:
  /// Start tracking a (re)used arena slot at emit time `now`.
  void on_emit(std::uint32_t h, TimeNs now, bool retransmit) {
    if (h >= stages_.size()) stages_.resize(h + 1);
    stages_[h] =
        PacketStages{now, now, TimeNs{0}, TimeNs{0}, TimeNs{0}, retransmit,
                     true};
  }

  /// Charge `now - mark` to `stage` and advance the mark. Handles the
  /// simulator never emitted through a transport (hand-built test
  /// packets, voids) are ignored.
  void advance(std::uint32_t h, TimeNs now, Stage stage) {
    if (h >= stages_.size() || !stages_[h].tracked) return;
    PacketStages& st = stages_[h];
    const TimeNs dt = now - st.mark;
    if (dt <= TimeNs{0}) return;
    switch (stage) {
      case Stage::kPacing:
        st.pacing_ns += dt;
        break;
      case Stage::kQueueing:
        st.queue_ns += dt;
        break;
      case Stage::kSerialization:
        st.serial_ns += dt;
        break;
    }
    st.mark = now;
  }

  /// Start loading slot `h`'s record ahead of an advance() a hop away.
  /// No bounds check: a prefetch past the table is harmless.
  void prefetch(std::uint32_t h) const {
    prefetch_object(reinterpret_cast<std::uintptr_t>(stages_.data()) +
                        std::uintptr_t{h} * sizeof(PacketStages),
                    sizeof(PacketStages));
  }

  /// Re-seed a slot from a snapshot taken in another arena. Cross-island
  /// handoff re-allocates the packet in the destination island's pool; the
  /// stage accounting accumulated so far travels with it so the breakdown
  /// identity (pacing + queueing + serialization == total) still holds.
  void restore(std::uint32_t h, const PacketStages& st) {
    if (h >= stages_.size()) stages_.resize(h + 1);
    stages_[h] = st;
  }

  bool tracked(std::uint32_t h) const {
    return h < stages_.size() && stages_[h].tracked;
  }

  const PacketStages& stages(std::uint32_t h) const {
    static const PacketStages kEmpty{};
    if (h >= stages_.size()) return kEmpty;
    return stages_[h];
  }

  std::size_t capacity() const { return stages_.size(); }

 private:
  std::vector<PacketStages> stages_;  ///< indexed by arena slot
};

}  // namespace silo::obs
