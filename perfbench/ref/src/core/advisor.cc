#include "core/advisor.h"

#include <algorithm>
#include <stdexcept>

#include "pacer/token_bucket.h"
#include "util/rng.h"

namespace silo {
namespace {

double mean_size(const std::vector<Bytes>& sizes) {
  double sum = 0;
  for (Bytes b : sizes) sum += static_cast<double>(b);
  return sum / static_cast<double>(sizes.size());
}

}  // namespace

double evaluate_late_fraction(const WorkloadProfile& profile,
                              const SiloGuarantee& candidate, int messages,
                              std::uint64_t seed) {
  if (profile.message_sizes.empty() || profile.messages_per_sec <= 0)
    throw std::invalid_argument("advisor needs sizes and a positive rate");
  Rng rng(seed);
  // The pacer model of §4.3 reduced to message granularity: the {B, S}
  // bucket gates the message body; the Bmax cap turns bucket-conformant
  // bytes into wire time. A message is late when its completion exceeds
  // the §4.1 bound for this guarantee.
  pacer::TokenBucket bucket(candidate.bandwidth,
                            std::max<Bytes>(candidate.burst, kMtu));
  const RateBps bmax =
      candidate.burst_rate > RateBps{0} ? candidate.burst_rate
                                        : candidate.bandwidth;
  TimeNs now {};
  TimeNs busy_until {};  // the Bmax serializer
  int late = 0;
  for (int i = 0; i < messages; ++i) {
    now += TimeNs{static_cast<std::int64_t>(
        rng.exponential(1.0 / profile.messages_per_sec) *
        static_cast<double>(kSec))};
    const Bytes size = profile.message_sizes[static_cast<std::size_t>(
        rng.uniform_int(0,
                        static_cast<std::int64_t>(profile.message_sizes.size()) -
                            1))];
    // Drain the message through the bucket in MTU chunks, each serialized
    // at Bmax behind previously released bytes.
    TimeNs done = now;
    Bytes left = size;
    while (left > Bytes{0}) {
      const Bytes chunk = std::min<Bytes>(left, kMtu);
      TimeNs t = bucket.earliest_conformance(done, chunk);
      bucket.consume(t, chunk);
      t = std::max(t, busy_until);
      busy_until = t + transmission_time(chunk, bmax);
      done = busy_until;
      left -= chunk;
    }
    const TimeNs bound = max_message_latency(candidate, size);
    if (done - now + profile.expected_network_delay > bound) ++late;
  }
  return static_cast<double>(late) / static_cast<double>(messages);
}

GuaranteeRecommendation recommend_guarantee(const WorkloadProfile& profile,
                                            const AdvisorOptions& options) {
  if (profile.message_sizes.empty())
    throw std::invalid_argument("advisor needs at least one message size");
  GuaranteeRecommendation best;
  best.average_bandwidth =
      profile.messages_per_sec * mean_size(profile.message_sizes) * 8.0;
  const Bytes max_msg =
      *std::max_element(profile.message_sizes.begin(),
                        profile.message_sizes.end());

  for (double bw_mult : options.bandwidth_multiples) {
    for (double burst_mult : options.burst_multiples) {
      SiloGuarantee cand;
      cand.bandwidth = RateBps{best.average_bandwidth * bw_mult};
      cand.burst = static_cast<Bytes>(burst_mult * static_cast<double>(max_msg));
      cand.delay = profile.packet_delay;
      cand.burst_rate = std::max(profile.burst_rate, cand.bandwidth);
      const double late = evaluate_late_fraction(
          profile, cand, options.evaluated_messages, options.seed);
      if (late <= options.target_late_fraction) {
        // Cheapest wins: bandwidth dominates cost, then burst.
        const bool cheaper =
            !best.feasible ||
            cand.bandwidth < best.guarantee.bandwidth - RateBps{1.0} ||
            (cand.bandwidth <= best.guarantee.bandwidth + RateBps{1.0} &&
             cand.burst < best.guarantee.burst);
        if (cheaper) {
          best.guarantee = cand;
          best.expected_late_fraction = late;
          best.feasible = true;
        }
      } else if (!best.feasible && late < best.expected_late_fraction) {
        best.guarantee = cand;
        best.expected_late_fraction = late;
      }
    }
  }
  return best;
}

}  // namespace silo
