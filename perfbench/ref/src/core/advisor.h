// Guarantee advisor: pick {B, S, Bmax} for an observed message workload.
//
// The paper (§4.1) expects tenants to choose guarantees with tools like
// Cicada and demonstrates the trade-off in Table 1: guaranteeing only the
// average bandwidth leaves almost every message late, while modest
// multiples of bandwidth and burst drive lateness to ~zero. This module
// automates that choice: given an empirical message-size distribution and
// a Poisson arrival rate, it Monte-Carlo-evaluates the pacer's token
// buckets analytically (no packet simulation) and returns the cheapest
// guarantee whose expected late fraction meets the target.
#pragma once

#include <vector>

#include "model/guarantee.h"
#include "util/units.h"

namespace silo {

struct WorkloadProfile {
  /// Empirical message sizes (bytes); sampled uniformly during evaluation.
  std::vector<Bytes> message_sizes;
  double messages_per_sec = 0;
  /// The in-network delay bound the provider offers for the chosen class.
  TimeNs packet_delay = 1 * kMsec;
  /// The delay packets actually experience in a Silo-provisioned fabric —
  /// typically far below the bound `d`; the difference is slack the pacer
  /// can spend on absorbing bursts before a message goes "late".
  TimeNs expected_network_delay = 100 * kUsec;
  /// The provider's burst-rate cap for the class.
  RateBps burst_rate = 1 * kGbps;
};

struct AdvisorOptions {
  double target_late_fraction = 0.001;  ///< e.g. 99.9% of messages on time
  int evaluated_messages = 20000;
  std::uint64_t seed = 1;
  /// Candidate grids, as multiples of the average bandwidth and of the
  /// largest observed message respectively (Table 1's axes).
  std::vector<double> bandwidth_multiples{1.0, 1.2, 1.4, 1.6, 1.8, 2.0,
                                          2.4, 2.8, 3.2, 4.0};
  std::vector<double> burst_multiples{1.0, 2.0, 3.0, 5.0, 7.0, 9.0};
};

struct GuaranteeRecommendation {
  SiloGuarantee guarantee;
  double expected_late_fraction = 1.0;
  double average_bandwidth = 0;  ///< the workload's raw average (bits/s)
  bool feasible = false;         ///< a candidate met the target
};

/// Evaluate one candidate guarantee against the workload: the fraction of
/// messages whose pacer-release completion exceeds the §4.1 latency bound.
double evaluate_late_fraction(const WorkloadProfile& profile,
                              const SiloGuarantee& candidate,
                              int messages, std::uint64_t seed);

/// Search the candidate grid for the cheapest guarantee (smallest
/// bandwidth, then smallest burst) meeting the target late fraction. If
/// none does, returns the best-performing candidate with feasible=false.
GuaranteeRecommendation recommend_guarantee(const WorkloadProfile& profile,
                                            const AdvisorOptions& options = {});

}  // namespace silo
