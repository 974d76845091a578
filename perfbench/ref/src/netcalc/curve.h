// Piecewise-linear network calculus (Cruz, Kurose, Le Boudec & Thiran).
//
// Arrival curves bound the traffic a source can emit over any interval;
// service curves bound what a switch port serves. Silo's placement reduces
// tenant guarantees to two constraints on these curves at every port
// (§4.2.2 of the paper):
//   1. queue bound (max horizontal deviation)  <=  queue capacity
//   2. sum of queue capacities along a path    <=  delay guarantee
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/units.h"

namespace silo::netcalc {

/// A non-decreasing, concave, piecewise-linear function of time (ns),
/// valued in bytes. Concavity is the natural shape of arrival curves built
/// from minima of token buckets, and it is preserved by the operations we
/// need (sum, min, shift); the constructor enforces it.
class Curve {
 public:
  struct Segment {
    TimeNs start;        ///< segment begins at this time (first is 0)
    double value;        ///< curve value at `start`, bytes
    double slope;        ///< bytes per ns on [start, next.start)
  };

  Curve() = default;  ///< the zero curve

  /// Build from segments; they must start at t=0, have increasing start
  /// times, non-increasing slopes (concavity) and continuous values.
  /// Throws std::invalid_argument otherwise.
  explicit Curve(std::vector<Segment> segments);

  /// Token bucket A(t) = S + B*t (the paper's A_{B,S}); `burst` is released
  /// instantaneously at t=0.
  static Curve token_bucket(RateBps bandwidth, Bytes burst);

  /// The paper's A'(t): burst drains at Bmax, not instantaneously —
  /// A'(t) = min(mtu + Bmax*t, S + B*t). Requires burst_rate >= bandwidth.
  static Curve rate_limited_burst(RateBps bandwidth, Bytes burst,
                                  RateBps burst_rate, Bytes mtu = kMtu);

  /// Constant-rate service curve S(t) = C*t (a work-conserving port).
  static Curve constant_rate(RateBps rate);

  bool is_zero() const { return segments_.empty(); }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Curve value at time t (t < 0 yields 0).
  double value(TimeNs t) const;

  /// Earliest time at which the curve reaches `bytes`; nullopt if it never
  /// does (long-run slope too small).
  std::optional<TimeNs> time_to_reach(double bytes) const;

  /// Long-run slope (bytes/ns) — the sustained rate of the source.
  double long_run_slope() const;

  /// Initial burst A(0+), bytes.
  double burst() const { return segments_.empty() ? 0.0 : segments_[0].value; }

  /// y-intercept of the final (sustained-rate) segment: the classic
  /// token-bucket burst parameter S of the curve's long-run bound.
  double sustained_intercept() const;

  /// A'(t) = A(t + delta): the arrival curve of traffic after it may have
  /// been held up to `delta` inside a queue (Kurose propagation).
  Curve shifted_left(TimeNs delta) const;

  /// Pointwise sum (aggregating independent sources at a port).
  Curve plus(const Curve& other) const;

  /// Pointwise minimum (tightening a bound). Both operands concave.
  Curve min_with(const Curve& other) const;

  /// Scale values by a constant factor k >= 0 (k identical sources).
  Curve scaled(double k) const;

  std::string to_string() const;

 private:
  void validate() const;
  std::vector<Segment> segments_;  // empty == zero curve
};

/// Result of comparing an aggregate arrival curve with a port's service.
struct QueueAnalysis {
  /// Max horizontal deviation: worst packet queuing delay at the port.
  /// nullopt if unbounded (arrival rate exceeds service rate).
  std::optional<TimeNs> queue_bound;
  /// Max vertical deviation: worst backlog in bytes.
  /// nullopt if unbounded.
  std::optional<double> backlog_bound;
  /// The `p` value of Fig. 6: earliest time by which the queue must have
  /// emptied at least once (service has caught up with all arrivals).
  /// nullopt if the curves never meet.
  std::optional<TimeNs> busy_period;
};

/// Analyze a FIFO port: `arrival` is the sum of all traffic traversing it,
/// `service` its service curve (typically constant_rate(link_rate)).
QueueAnalysis analyze_queue(const Curve& arrival, const Curve& service);

/// Aggregate arrival curve for `m` of a tenant's `n` hose-model VMs sending
/// across a cut (§4.2.2 "Adding arrival curves"): sustained bandwidth is
/// destination-limited to min(m, n-m)*B, but bursts are not hose-limited,
/// so the burst is m*S drained at min(m*Bmax, cap) where `cap` is the line
/// rate bounding any physical burst.
Curve tenant_cut_curve(int n_vms, int m_side, RateBps bandwidth, Bytes burst,
                       RateBps burst_rate, RateBps line_rate_cap,
                       Bytes mtu = kMtu);

/// Arrival curve of traffic after it egresses a port with queue capacity
/// `queue_capacity` (ns) on a link of `line_rate` (§4.2.2 "Propagating
/// arrival curves", Kurose's bound loosened to the port's queue capacity):
/// the sustained rate is unchanged but every byte that can arrive within
/// the queue-capacity window may leave as one line-rate burst.
Curve propagate_through_port(const Curve& ingress, TimeNs queue_capacity,
                             RateBps line_rate, Bytes mtu = kMtu);

/// Rate-latency service curve beta_{R,T}(t) = R * max(0, t - T): the
/// standard abstraction of a switch port that serves a flow at rate R
/// after at most T of scheduling delay (Le Boudec & Thiran §1.3).
struct RateLatency {
  RateBps rate{};
  TimeNs latency{};
};

/// Min-plus concatenation of a path of rate-latency servers:
/// beta1 (x) beta2 = beta_{min(R1,R2), T1+T2}. The basis of the
/// "pay bursts only once" end-to-end bound — tighter than summing
/// per-hop worst cases, which Silo's placement uses for simplicity.
RateLatency concatenate(const std::vector<RateLatency>& path);

/// End-to-end delay bound for `arrival` over a (possibly concatenated)
/// rate-latency service: T + max horizontal deviation against rate R.
/// nullopt when the sustained arrival rate exceeds the service rate.
std::optional<TimeNs> end_to_end_delay_bound(const Curve& arrival,
                                             const RateLatency& service);

}  // namespace silo::netcalc
