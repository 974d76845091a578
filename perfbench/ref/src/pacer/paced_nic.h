// Paced IO Batching (§4.3.1, §5): the NIC transmits whole batches back to
// back, which would destroy packet spacing; the pacer therefore interleaves
// "void" packets — frames addressed so the first-hop switch drops them —
// sized to reproduce the stamped inter-packet gaps on the wire. The minimum
// void frame is 84 wire bytes, so spacing granularity at 10 Gbps is ~68 ns.
//
// The model is event-driven: the owner calls `build_batch(t)` whenever the
// wire goes idle (the DMA-completion "soft timer" of the prototype) and
// receives the exact wire schedule of the next batch.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "pacer/pacer_config.h"
#include "util/units.h"

namespace silo::pacer {

enum class NicMode {
  kPacedVoid,  ///< Silo: batches padded with void frames (keeps spacing)
  kBatched,    ///< plain IO batching: ready packets sent back-to-back
  kPerPacket,  ///< idealized per-packet release (no batching, high CPU)
};

struct WireSlot {
  TimeNs start {};       ///< first bit on the wire
  TimeNs end {};         ///< last bit (incl. framing + IFG) off the NIC
  Bytes wire_bytes {};   ///< occupancy incl. Ethernet framing
  bool is_void = false;
  std::uint64_t id = 0;   ///< caller-assigned id for data packets
};

struct BatchStats {
  std::int64_t data_packets = 0;
  std::int64_t void_packets = 0;
  Bytes data_wire_bytes {};
  Bytes void_wire_bytes {};
  std::int64_t batches = 0;  ///< DMA interrupts taken (CPU-cost proxy)
};

class PacedNic {
 public:
  PacedNic(RateBps line_rate, NicMode mode, TimeNs batch_window = 50 * kUsec);

  /// Queue a pacer-stamped packet. `payload_bytes` excludes Ethernet
  /// framing; the NIC accounts for kEthOverhead on the wire.
  void enqueue(TimeNs release_time, Bytes payload_bytes, std::uint64_t id);

  bool idle() const { return queue_.empty(); }
  std::size_t backlog() const { return queue_.size(); }

  /// Earliest time >= now at which a batch could start (the release time
  /// of the head packet); -1 when the queue is empty.
  TimeNs next_start(TimeNs now) const;

  /// Build the wire schedule of one batch starting no earlier than `now`.
  /// Consumes the packets it schedules. Empty result iff queue is empty.
  /// The returned reference aliases an internal buffer that the next
  /// build_batch call overwrites — consume it before rebuilding.
  const std::vector<WireSlot>& build_batch(TimeNs now);

  /// Fault injection (server crash): empty the queue and hand back the ids
  /// of the pending packets so the owner can recycle their pool handles.
  std::vector<std::uint64_t> drain();

  const BatchStats& stats() const { return stats_; }
  RateBps line_rate() const { return line_rate_; }
  TimeNs batch_window() const { return batch_window_; }

  /// Fold one controller-emitted pacer-config delta into this server's
  /// applied state. Deltas for other servers are a caller bug.
  PacerApplyResult apply_config(const PacerConfigDelta& delta) {
    return config_.apply(delta);
  }
  /// Clock-driven lease expiry (docs/WORKCONSERVING.md): advance the local
  /// lease epoch and return the leases that just died. Never waits on
  /// delta delivery — a lost revoke only delays reclamation, never expiry.
  std::vector<PacerLeaseRecord> advance_lease_epoch(std::uint64_t epoch) {
    return config_.advance_epoch(epoch);
  }
  /// The applied per-VM pacing records (what a full server_config snapshot
  /// must reproduce — see the controller golden tests).
  const PacerConfigTable& config() const { return config_; }

 private:
  struct Pending {
    TimeNs release;
    Bytes payload;
    std::uint64_t id;
  };

  /// Append void frames covering `gap_bytes` of wire time (>= 84 bytes per
  /// frame, <= one MTU frame each). Rounds sub-84-byte gaps up, so data is
  /// never released *early*.
  void fill_void(std::vector<WireSlot>& out, TimeNs& cursor, TimeNs target);

  RateBps line_rate_;
  NicMode mode_;
  TimeNs batch_window_;
  std::deque<Pending> queue_;  // pacer stamps are non-decreasing per VM;
                               // cross-VM merge keeps it sorted on insert
  std::vector<WireSlot> batch_;  ///< reused across build_batch calls
  BatchStats stats_;
  PacerConfigTable config_;  ///< delta-applied per-VM pacing records
};

}  // namespace silo::pacer
