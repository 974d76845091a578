// Wire packet of the simulator. Kept a plain value type: queues copy it.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace silo::sim {

inline constexpr Bytes kMss {1460};        ///< TCP payload per full segment
inline constexpr Bytes kHeaderBytes {40};  ///< TCP/IP headers

/// 802.1q priority classes (§4.4): guaranteed tenants ride high priority,
/// best-effort tenants low priority.
enum class Priority : std::uint8_t { kGuaranteed = 0, kBestEffort = 1 };

struct Packet {
  std::uint64_t id = 0;
  int flow_id = -1;
  int src_vm = -1;
  int dst_vm = -1;
  int src_server = -1;
  int dst_server = -1;

  Bytes payload {};     ///< TCP payload bytes carried
  Bytes wire_bytes {};  ///< payload + headers (Ethernet framing added by NIC)

  std::int64_t seq = 0;      ///< first payload byte's sequence number
  std::int64_t ack_seq = 0;  ///< cumulative ACK (valid when is_ack)
  bool is_ack = false;
  bool ecn_marked = false;  ///< CE mark set by a congested port
  bool ecn_echo = false;    ///< receiver echoes CE back to sender (on ACKs)
  bool is_void = false;     ///< pacer filler; first-hop switch discards
  Priority priority = Priority::kGuaranteed;

  TimeNs enqueue_time {};  ///< when the transport emitted it
  std::uint8_t hop = 0;     ///< next index into the precomputed path
  /// Bytes left in the message when this packet was emitted — pFabric's
  /// priority (smaller = more urgent). Maintained for every scheme;
  /// only pFabric-mode ports consult it.
  std::int64_t remaining = 0;
};

}  // namespace silo::sim
