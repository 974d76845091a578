#include "netcalc/curve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

namespace silo::netcalc {
namespace {

constexpr double kSlopeTol = 1e-12;  // bytes/ns
// Breakpoints live on integer nanoseconds, so a crossover can be off by up
// to half a tick; at 100 Gbps that is ~6 bytes of value. Continuity and
// non-negativity checks allow that much slack.
constexpr double kValueTol = 16.0;  // bytes

double bps_to_bytes_per_ns(RateBps bps) { return bps.bps() / 8e9; }

}  // namespace

Curve::Curve(std::vector<Segment> segments) : segments_(std::move(segments)) {
  validate();
}

void Curve::validate() const {
  if (segments_.empty()) return;
  if (segments_.front().start != TimeNs{0})
    throw std::invalid_argument("curve must start at t=0");
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const auto& s = segments_[i];
    if (s.value < -kValueTol || s.slope < -kSlopeTol)
      throw std::invalid_argument("curve must be non-negative/non-decreasing");
    if (i == 0) continue;
    const auto& prev = segments_[i - 1];
    if (s.start <= prev.start)
      throw std::invalid_argument("segment starts must increase");
    if (s.slope > prev.slope + kSlopeTol)
      throw std::invalid_argument("curve must be concave");
    const double expected =
        prev.value + prev.slope * static_cast<double>(s.start - prev.start);
    // Breakpoints are rounded to whole nanoseconds, so continuity can be
    // off by up to one tick's worth of the steeper slope.
    const double tol = kValueTol + prev.slope +
                       1e-9 * std::max(std::abs(expected), std::abs(s.value));
    if (std::abs(expected - s.value) > tol)
      throw std::invalid_argument("curve must be continuous");
  }
}

Curve Curve::token_bucket(RateBps bandwidth, Bytes burst) {
  return Curve({{TimeNs{0}, static_cast<double>(burst),
                 bps_to_bytes_per_ns(bandwidth)}});
}

Curve Curve::rate_limited_burst(RateBps bandwidth, Bytes burst,
                                RateBps burst_rate, Bytes mtu) {
  if (burst_rate < bandwidth)
    throw std::invalid_argument("burst_rate must be >= bandwidth");
  const double bmax = bps_to_bytes_per_ns(burst_rate);
  const double b = bps_to_bytes_per_ns(bandwidth);
  const double s = static_cast<double>(burst);
  const double m = static_cast<double>(mtu);
  // min(m + bmax*t, s + b*t)
  if (s <= m || burst_rate == bandwidth)
    return Curve({{TimeNs{0}, std::min(s, m), b}});
  const double cross = (s - m) / (bmax - b);
  const auto t = static_cast<TimeNs>(std::llround(cross));
  if (t <= TimeNs{0}) return Curve({{TimeNs{0}, s, b}});
  // Anchor the post-crossover piece on the min of both lines so the curve
  // never exceeds the token bucket despite integer-time rounding.
  const double at_cross = std::min(m + bmax * static_cast<double>(t),
                                   s + b * static_cast<double>(t));
  return Curve({{TimeNs{0}, m, bmax}, {t, at_cross, b}});
}

Curve Curve::constant_rate(RateBps rate) {
  return Curve({{TimeNs{0}, 0.0, bps_to_bytes_per_ns(rate)}});
}

double Curve::value(TimeNs t) const {
  if (t < TimeNs{0} || segments_.empty()) return 0.0;
  // Last segment whose start <= t.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](TimeNs lhs, const Segment& seg) { return lhs < seg.start; });
  --it;
  return it->value + it->slope * static_cast<double>(t - it->start);
}

std::optional<TimeNs> Curve::time_to_reach(double bytes) const {
  if (bytes <= 0.0) return TimeNs{0};
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const auto& s = segments_[i];
    const bool last = (i + 1 == segments_.size());
    const double end_value =
        last ? std::numeric_limits<double>::infinity()
             : segments_[i + 1].value;
    if (bytes <= s.value) return s.start;
    if (bytes <= end_value + kValueTol) {
      if (s.slope <= kSlopeTol) {
        if (last) return std::nullopt;
        continue;
      }
      const double dt = (bytes - s.value) / s.slope;
      return s.start + static_cast<TimeNs>(std::ceil(dt - 1e-9));
    }
  }
  return std::nullopt;
}

double Curve::long_run_slope() const {
  return segments_.empty() ? 0.0 : segments_.back().slope;
}

double Curve::sustained_intercept() const {
  if (segments_.empty()) return 0.0;
  const auto& last = segments_.back();
  return last.value - last.slope * static_cast<double>(last.start);
}

Curve Curve::shifted_left(TimeNs delta) const {
  if (delta <= TimeNs{0} || is_zero()) return *this;
  std::vector<Segment> out;
  out.reserve(segments_.size());
  for (const auto& s : segments_) {
    if (s.start <= delta) {
      // Segment covering the new origin (keep overwriting until past it).
      out.clear();
      out.push_back({TimeNs{0}, value(delta), s.slope});
    } else {
      out.push_back({s.start - delta, s.value, s.slope});
    }
  }
  return Curve(std::move(out));
}

Curve Curve::plus(const Curve& other) const {
  if (is_zero()) return other;
  if (other.is_zero()) return *this;
  std::set<TimeNs> starts;
  for (const auto& s : segments_) starts.insert(s.start);
  for (const auto& s : other.segments_) starts.insert(s.start);
  std::vector<Segment> out;
  out.reserve(starts.size());
  for (TimeNs t : starts) {
    // Slope just after t is the sum of each curve's slope at t.
    auto slope_at = [](const std::vector<Segment>& segs, TimeNs when) {
      auto it = std::upper_bound(
          segs.begin(), segs.end(), when,
          [](TimeNs lhs, const Segment& seg) { return lhs < seg.start; });
      --it;
      return it->slope;
    };
    out.push_back({t, value(t) + other.value(t),
                   slope_at(segments_, t) + slope_at(other.segments_, t)});
  }
  return Curve(std::move(out));
}

Curve Curve::min_with(const Curve& other) const {
  if (is_zero() || other.is_zero()) return Curve{};
  std::set<TimeNs> candidates;
  for (const auto& s : segments_) candidates.insert(s.start);
  for (const auto& s : other.segments_) candidates.insert(s.start);
  // Pairwise segment intersections.
  auto seg_end = [](const std::vector<Segment>& segs, std::size_t i) {
    return i + 1 < segs.size() ? segs[i + 1].start
                               : TimeNs::max() / 4;
  };
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    for (std::size_t j = 0; j < other.segments_.size(); ++j) {
      const auto& a = segments_[i];
      const auto& b = other.segments_[j];
      const TimeNs lo = std::max(a.start, b.start);
      const TimeNs hi = std::min(seg_end(segments_, i),
                                 seg_end(other.segments_, j));
      if (lo >= hi) continue;
      const double va = a.value + a.slope * static_cast<double>(lo - a.start);
      const double vb = b.value + b.slope * static_cast<double>(lo - b.start);
      const double ds = a.slope - b.slope;
      if (std::abs(ds) < kSlopeTol) continue;
      const double cross = (vb - va) / ds;
      if (cross > 0.0) {
        const TimeNs tc = lo + static_cast<TimeNs>(std::llround(cross));
        if (tc > lo && tc < hi) candidates.insert(tc);
      }
    }
  }
  std::vector<TimeNs> times(candidates.begin(), candidates.end());
  std::vector<Segment> out;
  out.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const TimeNs t = times[i];
    const double v = std::min(value(t), other.value(t));
    double slope;
    if (i + 1 < times.size()) {
      const TimeNs tn = times[i + 1];
      const double vn = std::min(value(tn), other.value(tn));
      slope = (vn - v) / static_cast<double>(tn - t);
    } else {
      // Beyond the last candidate there are no more crossings: follow the
      // curve that is (or becomes) the minimum.
      const double sa = segments_.back().slope;
      const double sb = other.segments_.back().slope;
      slope = std::min(sa, sb);
    }
    if (!out.empty() && std::abs(out.back().slope - slope) < kSlopeTol)
      continue;  // merge collinear pieces
    out.push_back({t, v, slope});
  }
  return Curve(std::move(out));
}

Curve Curve::scaled(double k) const {
  if (k < 0.0) throw std::invalid_argument("negative scale");
  if (k == 0.0 || is_zero()) return Curve{};
  std::vector<Segment> out = segments_;
  for (auto& s : out) {
    s.value *= k;
    s.slope *= k;
  }
  return Curve(std::move(out));
}

std::string Curve::to_string() const {
  std::ostringstream os;
  os << "Curve[";
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const auto& s = segments_[i];
    if (i) os << ", ";
    os << "(t=" << s.start << "ns, v=" << s.value << "B, m=" << s.slope * 8e9
       << "bps)";
  }
  os << "]";
  return os.str();
}

QueueAnalysis analyze_queue(const Curve& arrival, const Curve& service) {
  QueueAnalysis res;
  if (arrival.is_zero()) {
    res.queue_bound = TimeNs{0};
    res.backlog_bound = 0.0;
    res.busy_period = TimeNs{0};
    return res;
  }
  if (service.is_zero()) return res;  // nothing is served: unbounded
  const double ar = arrival.long_run_slope();
  const double sr = service.long_run_slope();
  if (ar > sr + kSlopeTol) return res;  // overload: all bounds infinite

  // Horizontal deviation: with a concave arrival curve and a (piecewise-
  // linear, concave) service curve the deviation t -> S^{-1}(A(t)) - t is
  // maximized at a breakpoint of either curve.
  std::set<TimeNs> candidates;
  for (const auto& s : arrival.segments()) candidates.insert(s.start);
  for (const auto& s : service.segments())
    if (auto t = arrival.time_to_reach(s.value)) candidates.insert(*t);
  TimeNs worst_delay{};
  double worst_backlog = 0.0;
  bool delay_bounded = true;
  for (TimeNs t : candidates) {
    const double a = arrival.value(t);
    const auto caught = service.time_to_reach(a);
    if (!caught) {
      delay_bounded = false;
      break;
    }
    worst_delay = std::max(worst_delay, *caught - t);
    worst_backlog = std::max(worst_backlog, a - service.value(t));
  }
  // Vertical deviation can also peak at service breakpoints.
  for (const auto& s : service.segments())
    worst_backlog =
        std::max(worst_backlog, arrival.value(s.start) - s.value);
  if (delay_bounded) res.queue_bound = worst_delay;
  res.backlog_bound = std::max(0.0, worst_backlog);

  // Busy period p: earliest t with S(t) >= A(t) (t > 0). Scan arrival
  // segments for the crossing against the service curve.
  const auto& segs = arrival.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& a = segs[i];
    const TimeNs end = i + 1 < segs.size()
                           ? segs[i + 1].start
                           : TimeNs::max() / 4;
    // Service is constant-rate in practice; handle general piecewise by
    // sampling its breakpoints within [a.start, end) plus the analytic
    // crossing against each service segment.
    for (const auto& sv : service.segments()) {
      const double ds = sv.slope - a.slope;
      if (ds <= kSlopeTol) continue;
      // Solve sv.value + sv.slope*(t - sv.start) = a.value + a.slope*(t - a.start)
      const double num = (a.value - a.slope * static_cast<double>(a.start)) -
                         (sv.value - sv.slope * static_cast<double>(sv.start));
      const double t = num / ds;
      const auto tc = static_cast<TimeNs>(std::ceil(t - 1e-9));
      if (tc >= a.start && tc < end && tc >= sv.start &&
          service.value(tc) + kValueTol >= arrival.value(tc)) {
        if (!res.busy_period || tc < *res.busy_period) res.busy_period = tc;
      }
    }
  }
  return res;
}

Curve tenant_cut_curve(int n_vms, int m_side, RateBps bandwidth, Bytes burst,
                       RateBps burst_rate, RateBps line_rate_cap, Bytes mtu) {
  if (n_vms < 2 || m_side < 1 || m_side >= n_vms)
    throw std::invalid_argument("tenant_cut_curve: need 1 <= m < n, n >= 2");
  const RateBps sustained_raw =
      static_cast<double>(std::min(m_side, n_vms - m_side)) * bandwidth;
  const RateBps sustained = std::min(sustained_raw, line_rate_cap);
  const Bytes total_burst = burst * m_side;
  const RateBps brate = std::max(
      sustained,
      std::min(static_cast<double>(m_side) * burst_rate, line_rate_cap));
  return Curve::rate_limited_burst(sustained, total_burst, brate, mtu);
}

Curve propagate_through_port(const Curve& ingress, TimeNs queue_capacity,
                             RateBps line_rate, Bytes mtu) {
  // Output over any window [t, t+tau] is bounded by arrivals over
  // [t - c, t + tau], i.e. by A(tau + c): shift the curve left by the
  // port's queue capacity. (The line rate and MTU need no extra handling:
  // the shifted curve is already a valid, conservative bound.)
  (void)line_rate;
  (void)mtu;
  return ingress.shifted_left(queue_capacity);
}

RateLatency concatenate(const std::vector<RateLatency>& path) {
  if (path.empty()) throw std::invalid_argument("empty service path");
  RateLatency out{path.front().rate, TimeNs{0}};
  for (const auto& hop : path) {
    if (hop.rate <= RateBps{0}) throw std::invalid_argument("non-positive hop rate");
    out.rate = std::min(out.rate, hop.rate);
    out.latency += hop.latency;
  }
  return out;
}

std::optional<TimeNs> end_to_end_delay_bound(const Curve& arrival,
                                             const RateLatency& service) {
  if (arrival.is_zero()) return service.latency;
  const auto q =
      analyze_queue(arrival, Curve::constant_rate(service.rate));
  if (!q.queue_bound) return std::nullopt;
  return service.latency + *q.queue_bound;
}

}  // namespace silo::netcalc
