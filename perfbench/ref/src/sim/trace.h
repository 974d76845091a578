// Telemetry for the packet simulator: periodic sampling of switch-port
// queues and host pacers into time series — the instrumentation an
// ns2-style evaluation uses to show queue dynamics (e.g. buffer occupancy
// during a synchronized burst, or that Silo's bounds actually hold
// moment to moment, not just at the endpoints).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/cluster.h"

namespace silo::sim {

struct QueueSample {
  TimeNs at {};
  Bytes queued {};
};

/// Samples one port's queue occupancy on a fixed period.
class PortTracer {
 public:
  PortTracer(ClusterSim& cluster, topology::PortId port,
             TimeNs period = 10 * kUsec);

  /// Begin sampling until `until` (inclusive of the first sample at now).
  void start(TimeNs until);

  const std::vector<QueueSample>& samples() const { return samples_; }
  topology::PortId port() const { return port_; }

  Bytes max_queued() const;
  double mean_queued() const;
  /// Fraction of samples with a non-empty queue.
  double busy_fraction() const;

 private:
  void sample();

  ClusterSim& cluster_;
  topology::PortId port_;
  TimeNs period_;
  TimeNs until_ {};
  std::vector<QueueSample> samples_;
};

/// Traces every port of the fabric and reports the worst offenders —
/// used to verify that no admitted workload ever approaches buffer
/// overflow under Silo, and to find the hot ports under baselines.
class FabricTracer {
 public:
  FabricTracer(ClusterSim& cluster, TimeNs period = 20 * kUsec);

  void start(TimeNs until);

  /// (port id, max queued bytes), sorted descending by occupancy.
  std::vector<std::pair<int, Bytes>> hottest_ports(std::size_t k = 5) const;

  /// The single worst queue occupancy observed anywhere in the fabric.
  Bytes max_queued_anywhere() const;

  const PortTracer& tracer(int port) const { return tracers_.at(port); }

 private:
  std::vector<PortTracer> tracers_;
};

}  // namespace silo::sim
