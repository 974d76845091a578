// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the simulator's public API, a timing decorator for the
// island executor, and the small statistics helpers every workload uses.
//
// Nothing here reaches inside src/: each span covers one public call
// (ClusterSim construction, add_tenant, run_until, SiloController::admit,
// run_flow_sim, ...). Spans are kept in memory and written out when the
// run ends; a disabled Tracer records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/parallel.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval. `parent` is the index of the enclosing span in the
/// same Tracer (-1 for a root); times are seconds since the tracer began.
struct Span {
  std::string name;
  std::string tag;  ///< e.g. "accept" / "reject" on core.admit
  int parent = -1;
  double start = 0;
  double end = 0;
  double duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children are clipped to the
/// parent, and overlapping children are counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span recorder for one thread of control (the benchmark's
/// main thread). begin/end nest like a stack.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Open a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const char* name);
  void end(int id, const char* tag = nullptr);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations over spans named `name`, optionally restricted to
  /// one tag.
  double total(const std::string& name, const char* tag = nullptr) const;
  std::int64_t count(const std::string& name, const char* tag = nullptr) const;
  /// Durations of the spans named `name` (and `tag`, when given), in order.
  std::vector<double> durations(const std::string& name,
                                const char* tag = nullptr) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Write spans (with their self times) as one JSON object per line.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

/// RAII span; end() may be called early to attach a tag.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void end(const char* tag = nullptr) {
    if (!done_) t_.end(id_, tag);
    done_ = true;
  }

 private:
  Tracer& t_;
  int id_;
  bool done_ = false;
};

/// Per-thread ticket statistics kept by TimingExecutor.
struct TicketStats {
  std::int64_t count = 0;
  double sum_s = 0;
  double max_s = 0;
};

/// Transparent timing decorator around another IslandExecutor: one span
/// per parallel_for call (named "par.parallel_for") and, per worker
/// thread, the count, sum and max of ticket body time. It never records a
/// span per ticket — a 32K-server run has millions of them.
class TimingExecutor final : public silo::sim::IslandExecutor {
 public:
  TimingExecutor(silo::sim::IslandExecutor& inner, Tracer& tracer);

  void parallel_for(int n, const std::function<void(int)>& fn) override;
  int threads() const override { return inner_.threads(); }

  std::int64_t calls() const { return calls_; }
  std::int64_t tickets() const { return tickets_; }
  /// Wall time spent inside parallel_for, summed over calls.
  double section_s() const { return section_s_; }
  /// One entry per thread that ran at least one ticket.
  std::vector<TicketStats> per_thread() const;

 private:
  TicketStats& slot_for_current_thread();

  silo::sim::IslandExecutor& inner_;
  Tracer& tracer_;
  const std::uint64_t instance_;
  std::int64_t calls_ = 0;
  std::int64_t tickets_ = 0;
  double section_s_ = 0;
  std::mutex slots_mu_;              ///< guards slots_ growth only
  std::deque<TicketStats> slots_;    ///< stable addresses, one per thread
};

// ---------------------------------------------------------------- stats

/// Nearest-rank index rule behind checked_percentile: the p-th percentile
/// of n samples may be reported only when at least `kTailSamples` samples
/// lie strictly beyond its rank.
inline constexpr std::size_t kTailSamples = 10;
std::size_t samples_beyond(std::size_t n, double p);
bool percentile_supported(std::size_t n, double p);

/// Nearest-rank percentile; throws std::invalid_argument when fewer than
/// kTailSamples samples lie beyond it (see percentile_supported).
double checked_percentile(std::vector<double> values, double p);

/// Plain median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> values);

/// 64-bit FNV-1a fold used for every output digest.
class Digest {
 public:
  void add(std::uint64_t v);
  void add_double(double v);
  void add_string(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench
