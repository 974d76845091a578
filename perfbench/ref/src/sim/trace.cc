#include "sim/trace.h"

#include <algorithm>

namespace silo::sim {

PortTracer::PortTracer(ClusterSim& cluster, topology::PortId port,
                       TimeNs period)
    : cluster_(cluster), port_(port), period_(period) {}

void PortTracer::start(TimeNs until) {
  until_ = until;
  sample();
}

void PortTracer::sample() {
  samples_.push_back(
      {cluster_.port_events(port_).now(), cluster_.fabric().port(port_).queued_bytes()});
  if (cluster_.port_events(port_).now() + period_ <= until_) {
    // Typed raw event: periodic sampling stays off the std::function path.
    cluster_.port_events(port_).raw_after(
        period_,
        [](void* self, std::uint32_t) { static_cast<PortTracer*>(self)->sample(); },
        this);
  }
}

Bytes PortTracer::max_queued() const {
  Bytes mx {};
  for (const auto& s : samples_) mx = std::max(mx, s.queued);
  return mx;
}

double PortTracer::mean_queued() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (const auto& s : samples_) sum += static_cast<double>(s.queued);
  return sum / static_cast<double>(samples_.size());
}

double PortTracer::busy_fraction() const {
  if (samples_.empty()) return 0.0;
  int busy = 0;
  for (const auto& s : samples_) busy += s.queued > Bytes{0};
  return static_cast<double>(busy) / static_cast<double>(samples_.size());
}

FabricTracer::FabricTracer(ClusterSim& cluster, TimeNs period) {
  tracers_.reserve(static_cast<std::size_t>(cluster.topo().num_ports()));
  for (int p = 0; p < cluster.topo().num_ports(); ++p)
    tracers_.emplace_back(cluster, topology::PortId{p}, period);
}

void FabricTracer::start(TimeNs until) {
  for (auto& t : tracers_) t.start(until);
}

std::vector<std::pair<int, Bytes>> FabricTracer::hottest_ports(
    std::size_t k) const {
  std::vector<std::pair<int, Bytes>> all;
  all.reserve(tracers_.size());
  for (std::size_t p = 0; p < tracers_.size(); ++p)
    all.emplace_back(static_cast<int>(p), tracers_[p].max_queued());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (all.size() > k) all.resize(k);
  return all;
}

Bytes FabricTracer::max_queued_anywhere() const {
  Bytes mx {};
  for (const auto& t : tracers_) mx = std::max(mx, t.max_queued());
  return mx;
}

}  // namespace silo::sim
