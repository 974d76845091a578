// FlightRecorder: a bounded ring buffer of typed per-packet events.
//
// Recording is hot-path friendly: one filter check plus a POD store into
// a preallocated ring; when full, the oldest events are overwritten
// (black-box semantics — the recorder always holds the most recent
// window). Filters select which traffic is recorded: everything, specific
// tenants, or specific locations (fabric ports / host NICs).
//
// Dumps:
//   dump_chrome_trace — Chrome trace_event JSON ("instant" events, one
//     row per location) loadable in chrome://tracing or ui.perfetto.dev
//   dump_jsonl        — one JSON object per line, for scripting
//
// Schema documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "util/units.h"

namespace silo::obs {

enum class FlightEventType : std::uint8_t {
  kPaced,      ///< release time stamped / handed to the NIC wire
  kEnqueued,   ///< accepted into a port queue
  kDequeued,   ///< selected for transmission (wire start)
  kDropped,    ///< congestion or fault drop
  kDelivered,  ///< handed to the destination transport
};

const char* flight_event_name(FlightEventType t);

/// Location encoding: fabric ports use their non-negative port index;
/// host-side sites use -1 - server (so server 0 -> -1, server 3 -> -4).
inline std::int32_t host_location(int server) { return -1 - server; }

struct FlightEvent {
  TimeNs at{};
  std::uint64_t packet_id = 0;
  std::int64_t seq = 0;
  std::int32_t flow_id = -1;
  std::int32_t tenant = -1;
  std::int32_t location = 0;
  std::int32_t bytes = 0;
  FlightEventType type = FlightEventType::kPaced;
  bool is_ack = false;
  bool fault = false;  ///< drop caused by fault injection, not congestion
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  // -- filters (cold path) --------------------------------------------
  void enable_all() { all_ = true; }
  void enable_tenant(int tenant) { tenants_.push_back(tenant); }
  void enable_port(std::int32_t location) { locations_.push_back(location); }

  /// Flow-id -> tenant-id table used to resolve an event's tenant at
  /// record time (the recording sites only know the flow). Owned by
  /// ClusterSim; must outlive the recorder's use.
  void set_flow_tenants(const std::vector<int>* flow_tenant) {
    flow_tenant_ = flow_tenant;
  }

  // -- recording (hot path) -------------------------------------------
  /// Resolves the tenant, applies filters, and stores the event if it
  /// passes. `ev.tenant` is filled in from the flow table.
  void record(FlightEvent ev);

  // -- inspection / dumping -------------------------------------------
  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return wrapped_ ? ring_.size() : head_; }
  std::uint64_t total_recorded() const { return recorded_; }
  std::uint64_t overwritten() const {
    return recorded_ - static_cast<std::uint64_t>(size());
  }

  /// Events oldest-to-newest (copies out of the ring).
  std::vector<FlightEvent> in_order() const;

  void dump_jsonl(std::ostream& os) const;
  void dump_chrome_trace(std::ostream& os) const;

 private:
  bool wants(int tenant, std::int32_t location) const;

  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;  ///< next write slot
  bool wrapped_ = false;
  std::uint64_t recorded_ = 0;

  bool all_ = false;
  std::vector<int> tenants_;
  std::vector<std::int32_t> locations_;
  const std::vector<int>* flow_tenant_ = nullptr;
};

}  // namespace silo::obs
