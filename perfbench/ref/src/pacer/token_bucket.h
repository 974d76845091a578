// Virtual token bucket (§5): instead of draining packets at absolute times,
// the pacer computes, per packet, the earliest timestamp at which the packet
// conforms, and stamps it. Chaining buckets means taking the max of their
// conformance times.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "util/units.h"

namespace silo::pacer {

class TokenBucket {
 public:
  /// `rate` tokens (bytes) accrue per second up to `capacity` bytes.
  /// The bucket starts full: a fresh VM may immediately spend its burst.
  TokenBucket(RateBps rate, Bytes capacity)
      : rate_(rate), capacity_(capacity), tokens_(static_cast<double>(capacity)) {
    if (rate <= RateBps{0} || capacity <= Bytes{0})
      throw std::invalid_argument("token bucket needs positive rate/capacity");
  }

  RateBps rate() const { return rate_; }
  Bytes capacity() const { return capacity_; }

  /// Change the refill rate (EyeQ-style destination coordination adjusts
  /// per-destination rates at runtime). Tokens accrued so far are kept.
  void set_rate(TimeNs now, RateBps rate) {
    refill(now);
    if (rate <= RateBps{0}) throw std::invalid_argument("rate must be positive");
    rate_ = rate;
  }

  /// Token balance at time `now` (>= last_ uses accrual; earlier times
  /// report the balance as of the bucket's own clock).
  double tokens(TimeNs now) const {
    if (now <= last_) return tokens_;
    return std::min(static_cast<double>(capacity_),
                    tokens_ + rate_.bps() / 8e9 * static_cast<double>(now - last_));
  }

  /// Earliest time >= now at which `bytes` tokens will be available.
  /// PURE: chained conformance queries at hypothetical future times must
  /// not disturb the bucket — shared (chained) buckets would otherwise
  /// inherit one destination's wait. Virtual buckets consume at future
  /// timestamps, so the wait is computed from max(now, last_).
  TimeNs earliest_conformance(TimeNs now, Bytes bytes) const {
    const TimeNs base = std::max(now, last_);
    const double avail = tokens(base);
    if (avail >= static_cast<double>(bytes)) return base;
    const double deficit = static_cast<double>(bytes) - avail;
    const double wait_ns = deficit * 8e9 / rate_.bps();
    return base + static_cast<TimeNs>(wait_ns) + TimeNs{1};
  }

  /// Spend tokens at time `when` (a conformance time; `when >= last_`).
  void consume(TimeNs when, Bytes bytes) {
    refill(when);
    tokens_ -= static_cast<double>(bytes);
  }

 private:
  void refill(TimeNs now) {
    if (now <= last_) return;
    tokens_ = std::min(static_cast<double>(capacity_),
                       tokens_ + rate_.bps() / 8e9 * static_cast<double>(now - last_));
    last_ = now;
  }

  RateBps rate_;
  Bytes capacity_;
  double tokens_;
  TimeNs last_ {};
};

}  // namespace silo::pacer
