// The four benchmark workloads, each a run people wait for (see
// perfbench/README.md for the catalog):
//
//   packet_silo      sequential ClusterSim, Scheme::kSilo, Fig 12 mix
//   islands_tcp      32,768-server island engine, kTcp bulk, one thread
//   admission_churn  SiloController storm at 16,000 servers, 50% full
//   flow_locality    run_flow_sim, Policy::kLocality, 32,000 servers
//
// Every workload measures its set-up several times and runs a fixed count
// of measured units, timed piece by piece with the paired reference's
// turns in between (pairing.h); it folds the outputs the run computes into
// a digest, and checks invariants that hold for any seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pairing.h"
#include "trace.h"

namespace perfbench {

/// kFull is the benchmark; kTiny shrinks every workload so the self-tests
/// can run each one twice in a second or two (set in-process only).
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Recorded in the machine stamp. The work per run is fixed, so every
  /// run measures the same thing; it is sized to take about this long.
  double seconds = 27;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Untraced runs hand over to the paired reference after every timed
  /// piece (see pairing.h); null when unpaired.
  Turns* turns = nullptr;
  /// This process is the reference: the default seed, pieces a fraction
  /// of the benchmark's, and no end until the benchmark closes the pipe.
  bool reference = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  ///< why `correct` is false
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t digest = 0;
  /// The benchmark's end-to-end metrics (BENCHMARK.json "end_to_end").
  std::vector<Metric> end_to_end;
  /// The workload's own figures under their catalog names (msg_p95_us,
  /// reject_p50_us, net_util, ...), printed with every untraced run.
  std::vector<Metric> report;
  /// Per-layer metrics (BENCHMARK.json "per_layer"); traced runs only.
  std::vector<Metric> per_layer;
  /// Free-form facts about the run: sample counts, checkpoints, threads.
  std::vector<std::pair<std::string, std::string>> notes;
  /// The traced pass's spans and per-thread ticket stats (traced runs).
  std::vector<Span> spans;
  std::vector<TicketStats> ticket_stats;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

const std::vector<std::string>& workload_names();

/// Run one workload. Never throws for a failed check: mismatches land in
/// RunResult::errors with `correct` cleared and every operation failed.
RunResult run_workload(const Options& opts);

/// The digest a workload must produce at full scale with the default
/// seed (0 when none is pinned).
inline constexpr std::uint64_t kDefaultSeed = 1;
std::uint64_t pinned_digest(const std::string& workload);

}  // namespace perfbench
