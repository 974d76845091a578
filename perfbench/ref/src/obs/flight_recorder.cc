#include "obs/flight_recorder.h"

#include <algorithm>
#include <stdexcept>

namespace silo::obs {

const char* flight_event_name(FlightEventType t) {
  switch (t) {
    case FlightEventType::kPaced:
      return "paced";
    case FlightEventType::kEnqueued:
      return "enqueued";
    case FlightEventType::kDequeued:
      return "dequeued";
    case FlightEventType::kDropped:
      return "dropped";
    case FlightEventType::kDelivered:
      return "delivered";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("FlightRecorder capacity must be > 0");
}

bool FlightRecorder::wants(int tenant, std::int32_t location) const {
  if (all_) return true;
  if (std::find(tenants_.begin(), tenants_.end(), tenant) != tenants_.end())
    return true;
  return std::find(locations_.begin(), locations_.end(), location) !=
         locations_.end();
}

void FlightRecorder::record(FlightEvent ev) {
  if (ev.tenant < 0 && flow_tenant_ && ev.flow_id >= 0 &&
      static_cast<std::size_t>(ev.flow_id) < flow_tenant_->size()) {
    ev.tenant = (*flow_tenant_)[static_cast<std::size_t>(ev.flow_id)];
  }
  if (!wants(ev.tenant, ev.location)) return;
  ring_[head_] = ev;
  if (++head_ == ring_.size()) {
    head_ = 0;
    wrapped_ = true;
  }
  ++recorded_;
}

std::vector<FlightEvent> FlightRecorder::in_order() const {
  std::vector<FlightEvent> out;
  out.reserve(size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
  }
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

namespace {

// Events are POD with no string fields, so rendering by hand keeps the
// dumpers dependency-free.
void append_event_fields(std::ostream& os, const FlightEvent& e) {
  os << "\"t_ns\":" << e.at << ",\"type\":\"" << flight_event_name(e.type)
     << "\",\"packet_id\":" << e.packet_id << ",\"flow\":" << e.flow_id
     << ",\"tenant\":" << e.tenant << ",\"location\":" << e.location
     << ",\"seq\":" << e.seq << ",\"bytes\":" << e.bytes
     << ",\"ack\":" << (e.is_ack ? "true" : "false")
     << ",\"fault\":" << (e.fault ? "true" : "false");
}

}  // namespace

void FlightRecorder::dump_jsonl(std::ostream& os) const {
  for (const FlightEvent& e : in_order()) {
    os << '{';
    append_event_fields(os, e);
    os << "}\n";
  }
}

void FlightRecorder::dump_chrome_trace(std::ostream& os) const {
  // Instant events ("ph":"i"), one pid per simulation, one tid (row) per
  // location. chrome://tracing wants timestamps in microseconds; keep ns
  // resolution by emitting a fractional part.
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const FlightEvent& e : in_order()) {
    if (!first) os << ',';
    first = false;
    const std::int64_t us = e.at.count() / 1000;
    const std::int64_t frac = e.at.count() % 1000;
    os << "{\"name\":\"" << flight_event_name(e.type)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << e.location
       << ",\"ts\":" << us << '.';
    // zero-padded 3-digit fractional microseconds
    os << (frac / 100) << (frac / 10 % 10) << (frac % 10);
    os << ",\"args\":{";
    append_event_fields(os, e);
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace silo::obs
