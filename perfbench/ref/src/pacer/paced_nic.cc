#include "pacer/paced_nic.h"

#include <algorithm>
#include <stdexcept>

namespace silo::pacer {

PacedNic::PacedNic(RateBps line_rate, NicMode mode, TimeNs batch_window)
    : line_rate_(line_rate), mode_(mode), batch_window_(batch_window) {
  if (line_rate <= RateBps{0}) throw std::invalid_argument("line rate must be positive");
  if (batch_window <= TimeNs{0}) throw std::invalid_argument("batch window must be positive");
}

void PacedNic::enqueue(TimeNs release_time, Bytes payload_bytes,
                       std::uint64_t id) {
  if (payload_bytes <= Bytes{0} || payload_bytes > kMtu)
    throw std::invalid_argument("NIC takes wire packets of <= one MTU");
  Pending p{release_time, payload_bytes, id};
  // Packets from one VM arrive stamped in order; with multiple VMs the
  // merge point is here. Insertion from the back is O(1) amortized.
  auto it = queue_.end();
  while (it != queue_.begin() && std::prev(it)->release > release_time) --it;
  queue_.insert(it, p);
}

TimeNs PacedNic::next_start(TimeNs now) const {
  if (queue_.empty()) return TimeNs{-1};
  return std::max(now, queue_.front().release);
}

std::vector<std::uint64_t> PacedNic::drain() {
  std::vector<std::uint64_t> ids;
  ids.reserve(queue_.size());
  for (const Pending& p : queue_) ids.push_back(p.id);
  queue_.clear();
  return ids;
}

void PacedNic::fill_void(std::vector<WireSlot>& out, TimeNs& cursor,
                         TimeNs target) {
  while (cursor < target) {
    const TimeNs gap = target - cursor;
    Bytes gap_bytes = bytes_in(line_rate_, gap);
    // Round sub-minimum gaps up to one minimum void frame: data packets may
    // be released a hair late (<= 68 ns at 10 Gbps) but never early.
    Bytes frame = std::clamp<Bytes>(gap_bytes, kMinWireFrame,
                                    kMtu + kEthOverhead);
    // Avoid leaving an un-fillable residual gap smaller than a minimum frame.
    if (gap_bytes - frame > Bytes{0} && gap_bytes - frame < kMinWireFrame)
      frame = gap_bytes - kMinWireFrame;
    const TimeNs dur = transmission_time(frame, line_rate_);
    out.push_back({cursor, cursor + dur, frame, true, 0});
    ++stats_.void_packets;
    stats_.void_wire_bytes += frame;
    cursor += dur;
  }
}

const std::vector<WireSlot>& PacedNic::build_batch(TimeNs now) {
  std::vector<WireSlot>& out = batch_;
  out.clear();
  if (queue_.empty()) return out;

  const TimeNs start = std::max(now, queue_.front().release);
  const TimeNs window_end = start + batch_window_;
  TimeNs cursor = start;
  ++stats_.batches;

  while (!queue_.empty()) {
    const Pending& head = queue_.front();
    if (head.release >= window_end) break;
    const Bytes wire = head.payload + kEthOverhead;
    switch (mode_) {
      case NicMode::kPacedVoid:
        if (head.release > cursor) fill_void(out, cursor, head.release);
        break;
      case NicMode::kBatched:
        break;  // back-to-back: spacing is lost
      case NicMode::kPerPacket:
        cursor = std::max(cursor, head.release);  // exact release, no voids
        break;
    }
    const TimeNs dur = transmission_time(wire, line_rate_);
    out.push_back({cursor, cursor + dur, wire, false, head.id});
    ++stats_.data_packets;
    stats_.data_wire_bytes += wire;
    cursor += dur;
    queue_.pop_front();
    if (mode_ == NicMode::kPerPacket) break;  // one interrupt per packet
  }
  return out;
}

}  // namespace silo::pacer
