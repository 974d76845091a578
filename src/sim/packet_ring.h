// FIFO of packet handles that carries each packet's wire size beside its
// handle, so queue bookkeeping (byte counts, pacer head sizes) never has to
// load the packet itself from the arena.
//
// A power-of-two ring of 8-byte entries. An empty ring owns no storage: the
// buffer is allocated on the first push and doubles when full, so an idle
// port's two priority rings cost 48 bytes instead of the ~1.2 KB that two
// default-constructed std::deques allocate up front (a 32K-server fabric
// has ~100K ports, most of them idle at any instant).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/packet_pool.h"

namespace silo::sim {

struct QueuedPacket {
  PacketHandle handle = kNullPacket;
  std::uint32_t wire = 0;  ///< Packet::wire_bytes at enqueue time
};
static_assert(sizeof(QueuedPacket) == 8);

class PacketRing {
 public:
  PacketRing() = default;
  // Moving leaves the source empty rather than sized over a moved-out
  // buffer.
  PacketRing(PacketRing&& o) noexcept { *this = std::move(o); }
  PacketRing& operator=(PacketRing&& o) noexcept {
    buf_ = std::move(o.buf_);
    head_ = std::exchange(o.head_, 0);
    size_ = std::exchange(o.size_, 0);
    cap_ = std::exchange(o.cap_, 0);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }

  const QueuedPacket& front() const { return buf_[head_]; }
  /// i-th entry from the front (0 = front).
  const QueuedPacket& operator[](std::uint32_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  void push_back(QueuedPacket e) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = e;
    ++size_;
  }

  QueuedPacket pop_front() {
    const QueuedPacket e = buf_[head_];
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return e;
  }

  /// Forget every entry; keeps the storage for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kInitialCap = 8;

  void grow() {
    const std::uint32_t cap = cap_ == 0 ? kInitialCap : cap_ * 2;
    auto buf = std::make_unique<QueuedPacket[]>(cap);
    for (std::uint32_t i = 0; i < size_; ++i) buf[i] = (*this)[i];
    buf_ = std::move(buf);
    head_ = 0;
    cap_ = cap;
  }

  std::unique_ptr<QueuedPacket[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

}  // namespace silo::sim
