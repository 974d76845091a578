#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/controller.h"
#include "core/journal.h"
#include "flowsim/flow_sim.h"
#include "model/guarantee.h"
#include "par/thread_executor.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace perfbench {

using namespace silo;

namespace {

// ------------------------------------------------------------- helpers

/// Set-up is timed at least kSetupReps times and, when it is cheap, until
/// kSetupFloorS of set-up time has accumulated (at most kSetupMaxReps), so
/// a millisecond set-up still yields a steady median.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 1000;
constexpr double kSetupFloorS = 1.0;

/// Add set-up samples by running `build` as described above, starting
/// from the samples already taken; returns the median seconds.
double timed_setups(std::vector<double> times, const std::function<void()>& build) {
  double total = 0;
  for (const double t : times) total += t;
  while (static_cast<int>(times.size()) < kSetupReps ||
         (total < kSetupFloorS && static_cast<int>(times.size()) < kSetupMaxReps)) {
    const auto t0 = Clock::now();
    build();
    times.push_back(seconds_between(t0, Clock::now()));
    total += times.back();
  }
  return median(times);
}

double peak_rss_mb() {
  rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::int64_t sample_value(const std::vector<obs::MetricSample>& samples,
                          const std::string& name) {
  for (const auto& s : samples)
    if (s.name == name) return s.value;
  return 0;
}

/// Fold every counter and gauge of a registry snapshot into `d`.
void digest_counters(Digest& d, const std::vector<obs::MetricSample>& samples) {
  for (const auto& s : samples) {
    if (s.type == obs::MetricType::kHistogram) continue;
    d.add_string(s.name);
    d.add(static_cast<std::uint64_t>(s.value));
  }
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Stream k of a workload seed (stream 0 is the seed itself), for
/// workloads whose repeats draw fresh inputs.
std::uint64_t stream_seed(std::uint64_t seed, int k) {
  return seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull);
}

/// Every per-layer metric the benchmark defines, in BENCHMARK.json order,
/// with its unit. A traced run reports all of them; a layer that does no
/// work on a workload reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.callback_events", "count"},
      {"sim.pool_peak_live", "count"},
      {"sim.construct_s", "s"},
      {"sim.partition_s", "s"},
      {"sim.port.tx_packets", "count"},
      {"sim.port.drops", "count"},
      {"sim.port.peak_queue_bytes", "bytes"},
      {"sim.transport.segments", "count"},
      {"sim.transport.retransmits", "count"},
      {"sim.transport.rtos", "count"},
      {"sim.msg.pacing_us", "us"},
      {"sim.msg.queueing_us", "us"},
      {"sim.msg.serialization_us", "us"},
      {"sim.msg.retransmit_us", "us"},
      {"sim.msg.p50_us", "us"},
      {"sim.msg.p95_us", "us"},
      {"pacer.data_packets", "count"},
      {"pacer.void_packets", "count"},
      {"pacer.void_share", "ratio"},
      {"pacer.batches", "count"},
      {"pacer.throttled", "count"},
      {"par.rounds", "count"},
      {"par.islands", "count"},
      {"par.tickets", "count"},
      {"par.section_s", "s"},
      {"par.serial_s", "s"},
      {"par.body_busy_s", "s"},
      {"par.idle_share", "ratio"},
      {"par.busiest_island_share", "ratio"},
      {"placement.add_tenant_us", "us"},
      {"placement.occupancy", "ratio"},
      {"placement.max_port_reservation", "ratio"},
      {"placement.max_queue_headroom_used", "ratio"},
      {"core.admit_accept_us", "us"},
      {"core.admit_reject_us", "us"},
      {"core.reject_share", "ratio"},
      {"core.release_us", "us"},
      {"core.recover_us", "us"},
      {"core.drain_us", "us"},
      {"core.admit_p99_us", "us"},
      {"core.reject_p50_us", "us"},
      {"core.reject_p90_us", "us"},
      {"controller.rejections", "count"},
      {"controller.recovery.degraded", "count"},
      {"controller.diff.deltas", "count"},
      {"controller.diff.upserts", "count"},
      {"controller.journal.appends", "count"},
      {"controller.journal.snapshots", "count"},
      {"flowsim.events", "count"},
      {"flowsim.solves", "count"},
      {"flowsim.solved_flows", "count"},
      {"flowsim.maxmin_rounds", "count"},
      {"flowsim.rate_changes", "count"},
      {"flowsim.stale_share", "ratio"},
      {"flowsim.ns_per_solved_flow", "ns"},
      {"flowsim.net_util", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kCatalog;
}

/// Per-layer values being filled by a traced run; emitted in catalog order.
class LayerSheet {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  std::vector<Metric> emit() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Mean span duration in µs over spans named `name` (optionally tagged).
double mean_us(const Tracer& t, const std::string& name,
               const char* tag = nullptr) {
  const std::int64_t n = t.count(name, tag);
  return n ? t.total(name, tag) * 1e6 / static_cast<double>(n) : 0.0;
}

void fill_sim_counters(LayerSheet& sheet,
                       const std::vector<obs::MetricSample>& m) {
  for (const char* name :
       {"sim.port.tx_packets", "sim.port.drops", "sim.port.peak_queue_bytes",
        "sim.transport.segments", "sim.transport.retransmits",
        "sim.transport.rtos"})
    sheet.set(name, static_cast<double>(sample_value(m, name)));
  const double data = static_cast<double>(sample_value(m, "sim.pacer.data_packets"));
  const double voids = static_cast<double>(sample_value(m, "sim.pacer.void_packets"));
  sheet.set("pacer.data_packets", data);
  sheet.set("pacer.void_packets", voids);
  sheet.set("pacer.void_share", share(voids, data + voids));
  sheet.set("pacer.batches",
            static_cast<double>(sample_value(m, "sim.pacer.batches")));
  sheet.set("pacer.throttled",
            static_cast<double>(sample_value(m, "sim.pacer.throttled")));
}

void fill_breakdown(LayerSheet& sheet, const workload::BreakdownAgg& b) {
  sheet.set("sim.msg.pacing_us", b.pacing_us.sum());
  sheet.set("sim.msg.queueing_us", b.queueing_us.sum());
  sheet.set("sim.msg.serialization_us", b.serialization_us.sum());
  sheet.set("sim.msg.retransmit_us", b.retransmit_us.sum());
}

void merge_breakdown(workload::BreakdownAgg& into,
                     const workload::BreakdownAgg& from) {
  into.pacing_us.merge(from.pacing_us);
  into.queueing_us.merge(from.queueing_us);
  into.serialization_us.merge(from.serialization_us);
  into.retransmit_us.merge(from.retransmit_us);
  into.max_sum_error_ns = std::max(into.max_sum_error_ns, from.max_sum_error_ns);
  into.messages += from.messages;
}

/// Run `cluster` from `from` to `until` in `chunk` steps, one span each.
void run_chunks(sim::ClusterSim& cluster, Tracer& tracer, TimeNs from,
                TimeNs until, TimeNs chunk) {
  for (TimeNs t = from; t < until; t = std::min(until, t + chunk)) {
    Scope span(tracer, "sim.run_until");
    cluster.run_until(std::min(until, t + chunk));
  }
}

/// What run_units measured: per unit, its set-up and simulation wall
/// times (the simulation's summed over its run_until steps, without the
/// reference's turns); the checkpoint; and the first unit's outputs.
template <class Outputs>
struct UnitLog {
  std::vector<double> setups;  ///< host s to build each unit's rig
  std::vector<double> run_s;   ///< host s to simulate each unit
  TimeNs checkpoint {};        ///< where the outputs were taken
  std::optional<Outputs> first;
  /// Simulated ms per host second, pooled over the units.
  double sim_ms_per_s() const {
    double total_s = 0;
    for (const double s : run_s) total_s += s;
    return static_cast<double>(checkpoint) / static_cast<double>(kMsec) *
           static_cast<double>(run_s.size()) / total_s;
  }
  /// Median host seconds of one whole unit (set-up plus simulation).
  double unit_s() const {
    std::vector<double> total;
    for (std::size_t i = 0; i < run_s.size(); ++i) total.push_back(setups[i] + run_s[i]);
    return median(total);
  }
};

/// The measured loop of the packet workloads. A unit builds a fresh rig
/// (one set-up sample) and simulates in `chunk` steps until
/// `reached(rig, t)` holds at a step boundary (the checkpoint; a unit
/// that passes `limit` fails the run); `collect` checks the rig and
/// returns its outputs. Each step is one timed piece; `between()` runs
/// after it, and then the paired reference takes a turn. Untraced runs make
/// exactly `units` units (the reference, endless ones), and every unit must
/// reproduce the first one's digest. Traced runs make one unit, as the
/// untraced reference.
template <class Rig, class Build, class Reached, class Collect, class Between>
auto run_units(const Options& opts, RunResult& r, int units, TimeNs chunk,
               TimeNs limit, Build&& build, Reached&& reached,
               Collect&& collect, Between&& between) {
  using Outputs = decltype(collect(std::declval<Rig&>()));
  UnitLog<Outputs> log;
  Tracer off(false);
  const int wanted = opts.trace ? 1 : units;
  do {
    const auto s0 = Clock::now();
    Rig rig = build(off);
    const double setup = seconds_between(s0, Clock::now());
    double run_s = 0;
    TimeNs t{0};
    while (!reached(rig, t)) {
      if (t >= limit) {
        r.fail(opts.workload + " did not reach its checkpoint");
        break;
      }
      const auto c0 = Clock::now();
      run_chunks(*rig.cluster, off, t, t + chunk, chunk);
      const double step_s = seconds_between(c0, Clock::now());
      run_s += step_s;
      t = t + chunk;
      between();
      if (opts.turns)
        opts.turns->yield({static_cast<double>(chunk) / static_cast<double>(kMsec), step_s});
    }
    log.setups.push_back(setup);
    log.run_s.push_back(run_s);
    log.checkpoint = t;
    Outputs o = collect(rig);
    if (!log.first)
      log.first = std::move(o);
    else if (o.digest != log.first->digest)
      r.fail(opts.workload + " repetitions disagree");
  } while (opts.reference || static_cast<int>(log.run_s.size()) < wanted);
  return log;
}

/// The traced pass of a packet workload: the first unit again, with spans
/// on. Returns the rig (for its counters), its outputs, and the unit's
/// wall time (set-up plus simulation), to set against UnitLog::unit_s().
template <class Rig, class Build, class Collect>
auto traced_unit(Tracer& tracer, TimeNs checkpoint, TimeNs chunk,
                 Build&& build, Collect&& collect) {
  const auto t0 = Clock::now();
  Rig rig = build(tracer);
  run_chunks(*rig.cluster, tracer, TimeNs{0}, checkpoint, chunk);
  const double wall = seconds_between(t0, Clock::now());
  auto outputs = collect(rig);
  struct Traced {
    Rig rig;
    decltype(outputs) out;
    double wall_s;
  };
  return Traced{std::move(rig), std::move(outputs), wall};
}

void add_common_e2e(RunResult& r, double setup_s, double throughput) {
  r.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", 0.0, "ratio"},  // filled by finish()
      {"throughput", throughput, "1/s"},
  };
}

/// Close out a run: pinned digest check, failure accounting, ok_frac.
void finish(RunResult& r, const Options& opts) {
  if (opts.scale == Scale::kFull && opts.seed == kDefaultSeed) {
    const std::uint64_t pin = pinned_digest(opts.workload);
    if (pin != 0 && pin != r.digest) {
      char msg[96];
      std::snprintf(msg, sizeof(msg), "digest %016llx != pinned %016llx",
                    static_cast<unsigned long long>(r.digest),
                    static_cast<unsigned long long>(pin));
      r.fail(msg);
    }
  }
  if (!r.correct) r.failed = r.attempted;
  const double fail_frac = share(static_cast<double>(r.failed),
                                 static_cast<double>(r.attempted));
  for (auto& m : r.end_to_end)
    if (m.name == "ok_frac") m.value = 1.0 - fail_frac;
  r.report.push_back({"fail_frac", fail_frac, "ratio"});
}

void note(RunResult& r, const std::string& k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  r.notes.emplace_back(k, buf);
}

// ======================================================== packet_silo

struct SiloParams {
  int pods, racks_per_pod, servers_per_rack, slots;
  int a_vms, b_vms;
  double occupancy = 0.9;
  double load_factor = 0.12;
  TimeNs horizon;           ///< simulated time the checkpoint needs
  std::size_t min_class_a;  ///< and class-A messages it needs
  TimeNs chunk;             ///< run_until step
};

/// packet_silo set-up samples taken after each step (about 1 s per run).
constexpr int kSetupRepsPerStep = 16;

SiloParams silo_params(Scale s) {
  // Full scale is bench_fig12_14's default fabric and tenant mix.
  // The checkpoint is the first step at or past the horizon with >= 200
  // completed class-A messages, so p95 has ten samples beyond it whatever
  // the seed. The horizon keeps the simulated span, and with it the event
  // mix and memory, the same for almost every seed: ten seeds needed 260
  // to 620 ms for 200 messages.
  if (s == Scale::kFull)
    return {2, 2, 8, 4, 18, 8, 0.9, 0.12, 600 * kMsec, 200, 10 * kMsec};
  return {1, 2, 4, 4, 6, 4, 0.9, 0.12, 100 * kMsec, 20, 20 * kMsec};
}

struct SiloRig {
  std::unique_ptr<sim::ClusterSim> cluster;
  std::vector<std::unique_ptr<workload::BurstDriver>> bursts;
  std::vector<std::unique_ptr<workload::BulkDriver>> bulks;
  int placed_vms = 0;
  int total_slots = 0;
  std::vector<double> add_tenant_s;
};

/// bench_fig12_14's default --seed, which draws its Fig 12 tenant mix.
constexpr std::uint64_t kFig12MixSeed = 21;

SiloRig build_silo(const SiloParams& p, std::uint64_t seed, Tracer& tracer) {
  SiloRig rig;
  sim::ClusterConfig cfg;
  cfg.topo.pods = p.pods;
  cfg.topo.racks_per_pod = p.racks_per_pod;
  cfg.topo.servers_per_rack = p.servers_per_rack;
  cfg.topo.vm_slots_per_server = p.slots;
  cfg.topo.oversubscription = 2.5;
  cfg.scheme = sim::Scheme::kSilo;
  cfg.tcp.min_rto = 10 * kMsec;
  {
    Scope span(tracer, "sim.construct");
    rig.cluster = std::make_unique<sim::ClusterSim>(cfg);
  }
  rig.total_slots = p.pods * p.racks_per_pod * p.servers_per_rack * p.slots;
  const int target = static_cast<int>(p.occupancy * rig.total_slots);

  // Alternate class-A and class-B requests until the fabric is ~90% full,
  // exactly as bench_fig12_14 builds its Fig 12 mix. The mix itself (the
  // guarantee draws, hence the placement) is that bench's default one; the
  // workload seed drives the traffic. Mixes drawn from other seeds move
  // the event rate by a quarter, which would drown any code change.
  Rng rng(kFig12MixSeed);
  struct A { int id; SiloGuarantee g; };
  std::vector<A> as;
  std::vector<int> bs;
  bool next_is_a = true;
  while (rig.placed_vms + (next_is_a ? p.a_vms : p.b_vms) <= target) {
    TenantRequest req;
    req.num_vms = next_is_a ? p.a_vms : p.b_vms;
    if (next_is_a) {
      req.tenant_class = TenantClass::kDelaySensitive;
      req.guarantee = {RateBps{std::clamp(rng.exponential(0.25e9), 0.1e9, 0.5e9)},
                       15 * kKB, 1 * kMsec, 1 * kGbps};
    } else {
      req.tenant_class = TenantClass::kBandwidthOnly;
      req.guarantee = {RateBps{std::clamp(rng.exponential(2e9), 0.5e9, 4e9)},
                       Bytes{1500}, TimeNs{0}, RateBps{0}};
      req.guarantee.burst_rate = req.guarantee.bandwidth;
    }
    const auto a0 = Clock::now();
    std::optional<int> t;
    {
      Scope span(tracer, "placement.add_tenant");
      t = rig.cluster->add_tenant(req);
    }
    rig.add_tenant_s.push_back(seconds_between(a0, Clock::now()));
    if (t) {
      rig.placed_vms += req.num_vms;
      if (next_is_a)
        as.push_back({*t, req.guarantee});
      else
        bs.push_back(*t);
    }
    next_is_a = !next_is_a;
  }

  const TimeNs forever = 1000 * kSec;  // traffic outlasts any run
  std::uint64_t driver_seed = seed * 977;
  for (const A& a : as) {
    workload::BurstDriver::Config bc;
    bc.receiver = p.a_vms - 1;
    bc.message_size = 15 * kKB;
    bc.epochs_per_sec = p.load_factor * a.g.bandwidth.bps() /
                        (8.0 * static_cast<double>(p.a_vms - 1) *
                         static_cast<double>(bc.message_size));
    rig.bursts.push_back(std::make_unique<workload::BurstDriver>(
        *rig.cluster, a.id, p.a_vms, bc, ++driver_seed));
    rig.bursts.back()->start(forever);
  }
  for (const int b : bs) {
    rig.bulks.push_back(std::make_unique<workload::BulkDriver>(
        *rig.cluster, b, workload::all_to_all(p.b_vms), 256 * kKB,
        ++driver_seed));
    rig.bulks.back()->start(forever);
  }
  return rig;
}

struct SiloOutputs {
  std::uint64_t digest = 0;
  std::vector<double> class_a_us;
  workload::BreakdownAgg a_breakdown;
  std::int64_t completed = 0, aborted = 0, slo_violations = 0;
  std::int64_t class_a_aborted = 0;
  std::int64_t events = 0;
  std::vector<obs::MetricSample> metrics;
};

SiloOutputs silo_outputs(SiloRig& rig) {
  SiloOutputs o;
  Digest d;
  for (const auto& b : rig.bursts) {
    for (const double v : b->latencies_us().samples()) {
      o.class_a_us.push_back(v);
      d.add_double(v);
    }
    merge_breakdown(o.a_breakdown, b->breakdown());
    o.class_a_aborted += b->aborted_messages();
  }
  o.metrics = rig.cluster->merged_metrics();
  digest_counters(d, o.metrics);
  o.completed = sample_value(o.metrics, "cluster.messages_completed");
  o.aborted = sample_value(o.metrics, "cluster.messages_aborted");
  o.slo_violations = sample_value(o.metrics, "cluster.slo_violations");
  o.events = static_cast<std::int64_t>(rig.cluster->events().processed());
  d.add(static_cast<std::uint64_t>(o.events));
  o.digest = d.value();
  return o;
}

void check_silo(RunResult& r, SiloRig& rig) {
  // Exact attribution: every message's breakdown sums to its latency.
  for (const auto& b : rig.bursts)
    if (b->breakdown().max_sum_error_ns != TimeNs{0})
      r.fail("class-A breakdown does not sum to latency");
  for (const auto& b : rig.bulks)
    if (b->breakdown().max_sum_error_ns != TimeNs{0})
      r.fail("class-B breakdown does not sum to latency");
}

RunResult run_packet_silo(const Options& opts) {
  const SiloParams p = silo_params(opts.scale);
  RunResult r;
  const auto build = [&](Tracer& t) { return build_silo(p, opts.seed, t); };
  // Set-up is a millisecond here, so it is sampled kSetupRepsPerStep times
  // after every step: the samples spread over the same stretch of the run
  // as the reference's turns that correct them for host speed.
  std::vector<double> setups;
  const auto sample_setups = [&] {
    if (opts.reference || opts.trace) return;
    Tracer off(false);
    for (int i = 0; i < kSetupRepsPerStep; ++i) {
      const auto t0 = Clock::now();
      (void)build_silo(p, opts.seed, off);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
  };
  // The reference's turns are half a step, so pairing adds half the
  // simulation's time to the run; its 120 half-steps per unit outlast the
  // benchmark's 60 steps, so it never rebuilds mid-run. (Quarter steps
  // were cheaper but tracked the host worse: a short turn spends a larger
  // share of its time refilling the caches the other process evicted.)
  auto log = run_units<SiloRig>(
      opts, r, 1, opts.reference ? p.chunk / 2 : p.chunk, 2 * kSec, build,
      [&](SiloRig& rig, TimeNs t) {
        std::size_t done = 0;
        for (const auto& b : rig.bursts) done += b->latencies_us().count();
        return t >= p.horizon && done >= p.min_class_a;
      },
      [&](SiloRig& rig) {
        check_silo(r, rig);
        return silo_outputs(rig);
      },
      sample_setups);
  const SiloOutputs& o = *log.first;
  r.digest = o.digest;
  setups.insert(setups.end(), log.setups.begin(), log.setups.end());
  const double setup_s = median(setups);

  // Operations are class-A messages only: cluster.slo_violations counts
  // class-A messages past their bound (class B has no delay guarantee), and
  // the tens of thousands of class-B bulk messages would dilute them.
  const std::size_t n = o.class_a_us.size();
  r.attempted = static_cast<std::int64_t>(n) + o.class_a_aborted;
  r.failed = o.slo_violations + o.class_a_aborted;
  const double rate = log.sim_ms_per_s();
  add_common_e2e(r, setup_s, rate);
  const bool p95_ok = percentile_supported(n, 95);
  if (!p95_ok && opts.scale == Scale::kFull)
    r.fail("too few class-A messages for p95: " + std::to_string(n));
  r.report.push_back({"sim_ms_per_s", rate, "ms/s"});
  r.report.push_back({"msg_p50_us", p95_ok ? checked_percentile(o.class_a_us, 50) : 0, "us"});
  r.report.push_back({"msg_p95_us", p95_ok ? checked_percentile(o.class_a_us, 95) : 0, "us"});
  note(r, "units", static_cast<double>(log.run_s.size()));
  note(r, "class_a_messages", static_cast<double>(n));
  note(r, "events_at_checkpoint", static_cast<double>(o.events));
  note(r, "checkpoint_ms", static_cast<double>(log.checkpoint) / static_cast<double>(kMsec));
  note(r, "slo_violations", static_cast<double>(o.slo_violations));
  note(r, "class_a_aborted", static_cast<double>(o.class_a_aborted));
  note(r, "aborted", static_cast<double>(o.aborted));

  if (opts.trace) {
    // Traced pass: the same set-up and checkpoint run with spans on.
    Tracer tracer(true);
    auto pass = traced_unit<SiloRig>(tracer, log.checkpoint, p.chunk, build,
                                     silo_outputs);
    const SiloRig& traced = pass.rig;
    const SiloOutputs& to = pass.out;
    if (to.digest != o.digest) r.fail("traced packet_silo digest differs");

    LayerSheet sheet;
    const double run_s = tracer.total("sim.run_until");
    sheet.set("sim.events", static_cast<double>(to.events));
    sheet.set("sim.ns_per_event", share(run_s * 1e9, static_cast<double>(to.events)));
    sheet.set("sim.callback_events",
              static_cast<double>(traced.cluster->events().callback_events()));
    sheet.set("sim.pool_peak_live",
              static_cast<double>(traced.cluster->events().pool().peak_live()));
    sheet.set("sim.construct_s", tracer.total("sim.construct"));
    fill_sim_counters(sheet, to.metrics);
    fill_breakdown(sheet, to.a_breakdown);
    if (p95_ok) {
      sheet.set("sim.msg.p50_us", checked_percentile(to.class_a_us, 50));
      sheet.set("sim.msg.p95_us", checked_percentile(to.class_a_us, 95));
    }
    sheet.set("placement.add_tenant_us", mean_us(tracer, "placement.add_tenant"));
    sheet.set("placement.occupancy",
              share(traced.placed_vms, traced.total_slots));
    sheet.set("trace.overhead_share", share(pass.wall_s, log.unit_s()));
    r.per_layer = sheet.emit();
    r.spans = tracer.spans();
  }
  finish(r, opts);
  return r;
}

// ======================================================== islands_tcp

struct IslandParams {
  int pods, racks_per_pod, servers_per_rack;
  TimeNs checkpoint, chunk;
};

IslandParams island_params(Scale s) {
  // Full scale is bench_event_engine's parallel scenario: 32,768 servers.
  if (s == Scale::kFull) return {32, 32, 32, 1 * kMsec, 125 * kUsec};
  return {4, 4, 8, 500 * kUsec, 125 * kUsec};
}

struct IslandRig {
  std::unique_ptr<sim::ClusterSim> cluster;
  std::vector<std::unique_ptr<workload::BulkDriver>> drivers;
};

IslandRig build_islands(const IslandParams& p, std::uint64_t seed,
                        sim::IslandExecutor* exec, Tracer& tracer) {
  IslandRig rig;
  sim::ClusterConfig cfg;
  cfg.topo.pods = p.pods;
  cfg.topo.racks_per_pod = p.racks_per_pod;
  cfg.topo.servers_per_rack = p.servers_per_rack;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = sim::Scheme::kTcp;
  cfg.parallel.enabled = true;
  {
    Scope span(tracer, "sim.construct");
    rig.cluster = std::make_unique<sim::ClusterSim>(cfg);
  }
  rig.cluster->set_island_executor(exec);
  sim::ClusterSim& cluster = *rig.cluster;

  // One local all-to-all tenant per rack, plus two crossing tenants per
  // adjacent pod pair so the aggregation queues become shared islands.
  TenantRequest quad;
  quad.num_vms = 4;
  quad.tenant_class = TenantClass::kBandwidthOnly;
  quad.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  const std::uint64_t base_seed = seed * 1000003;
  const auto pinned = [&](const TenantRequest& req, std::vector<int> servers) {
    Scope span(tracer, "placement.add_tenant");
    return cluster.add_tenant_pinned(req, std::move(servers));
  };
  const int racks = p.pods * p.racks_per_pod;
  for (int r = 0; r < racks; ++r) {
    const int base = r * p.servers_per_rack;
    const int t = pinned(quad, {base, base + 1, base + 2, base + 3});
    rig.drivers.push_back(std::make_unique<workload::BulkDriver>(
        cluster, t, workload::all_to_all(4), 64 * kKB,
        base_seed + 100 + static_cast<std::uint64_t>(r)));
  }
  // The seed picks which free server of its rack each crossing VM lands
  // on; the island structure, and so the work, does not depend on it.
  TenantRequest pair = quad;
  pair.num_vms = 2;
  Rng rng(seed);
  const int pod_servers = p.racks_per_pod * p.servers_per_rack;
  for (int pod = 0; pod + 1 < p.pods; pod += 2) {
    for (int g = 0; g < 2 && g < p.racks_per_pod; ++g) {
      const int off = g * p.servers_per_rack +
                      static_cast<int>(rng.uniform_int(4, p.servers_per_rack - 1));
      const int t = pinned(pair, {pod * pod_servers + off,
                                  (pod + 1) * pod_servers + off});
      rig.drivers.push_back(std::make_unique<workload::BulkDriver>(
          cluster, t, workload::all_to_all(2), 64 * kKB,
          base_seed + 7000 + static_cast<std::uint64_t>(2 * pod + g)));
    }
  }
  {
    Scope span(tracer, "sim.partition");
    (void)cluster.partition();
  }
  for (auto& d : rig.drivers) d->start(1000 * kSec);
  return rig;
}

struct IslandOutputs {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::int64_t completed = 0, aborted = 0, rounds = 0;
  std::vector<obs::MetricSample> metrics;
  workload::BreakdownAgg breakdown;
};

IslandOutputs island_outputs(IslandRig& rig) {
  IslandOutputs o;
  Digest d;
  o.events = rig.cluster->total_processed();
  o.completed = rig.cluster->total_completed_messages();
  o.aborted = rig.cluster->total_aborted_messages();
  o.rounds = rig.cluster->parallel_rounds();
  d.add(o.events);
  d.add(static_cast<std::uint64_t>(o.completed));
  d.add(static_cast<std::uint64_t>(o.aborted));
  o.metrics = rig.cluster->merged_metrics();
  digest_counters(d, o.metrics);
  for (const auto& drv : rig.drivers) merge_breakdown(o.breakdown, drv->breakdown());
  o.digest = d.value();
  return o;
}

/// islands_tcp runs its windows through a one-thread ThreadPoolExecutor:
/// on a shared 4-vCPU machine threaded runs of one input spread by a
/// quarter from run to run, which no bound can absorb.
constexpr int kIslandThreads = 1;

RunResult run_islands_tcp(const Options& opts) {
  const IslandParams p = island_params(opts.scale);
  RunResult r;
  par::ThreadPoolExecutor pool(kIslandThreads);
  int islands = 0;
  // Three units, whatever the machine's speed: the first unit of a process
  // also pays for faulting in ~800 MB, so a count that followed a time
  // budget would mix populations (two and three units differ by 10%). The
  // reference's turns are a quarter step; its 32 per unit outlast the
  // benchmark's 24 steps, so it never rebuilds its 800 MB rig mid-run.
  auto log = run_units<IslandRig>(
      opts, r, 3, opts.reference ? p.chunk / 4 : p.chunk, p.checkpoint,
      [&](Tracer& t) { return build_islands(p, opts.seed, &pool, t); },
      [&](IslandRig&, TimeNs t) { return t >= p.checkpoint; },
      [&](IslandRig& rig) {
        IslandOutputs o = island_outputs(rig);
        if (o.breakdown.max_sum_error_ns != TimeNs{0})
          r.fail("bulk breakdown does not sum to latency");
        islands = rig.cluster->num_islands();
        return o;
      },
      [] {});
  const IslandOutputs& o = *log.first;
  r.digest = o.digest;
  const double setup_s = timed_setups(log.setups, [&] {
    Tracer off(false);
    (void)build_islands(p, opts.seed, &pool, off);
  });
  r.attempted = o.completed + o.aborted;
  r.failed = o.aborted;
  const double rate = log.sim_ms_per_s();
  add_common_e2e(r, setup_s, rate);
  r.report.push_back({"sim_ms_per_s", rate, "ms/s"});
  note(r, "units", static_cast<double>(log.run_s.size()));
  note(r, "threads", kIslandThreads);
  note(r, "islands", islands);
  note(r, "events_at_checkpoint", static_cast<double>(o.events));
  note(r, "messages_at_checkpoint", static_cast<double>(o.completed));

  if (opts.trace) {
    // Traced pass: the same scenario through the timing decorator. It
    // must be transparent — same digest, same window rounds.
    Tracer tracer(true);
    TimingExecutor timing(pool, tracer);
    auto pass = traced_unit<IslandRig>(
        tracer, log.checkpoint, p.chunk,
        [&](Tracer& t) { return build_islands(p, opts.seed, &timing, t); },
        island_outputs);
    const IslandRig& traced = pass.rig;
    const IslandOutputs& to = pass.out;
    if (to.digest != o.digest)
      r.fail("timing executor changed the islands_tcp digest");
    if (to.rounds != o.rounds)
      r.fail("timing executor changed parallel_rounds()");

    LayerSheet sheet;
    const double run_s = tracer.total("sim.run_until");
    sheet.set("sim.events", static_cast<double>(to.events));
    sheet.set("sim.ns_per_event", share(run_s * 1e9, static_cast<double>(to.events)));
    sheet.set("sim.construct_s", tracer.total("sim.construct"));
    sheet.set("sim.partition_s", tracer.total("sim.partition"));
    fill_sim_counters(sheet, to.metrics);
    fill_breakdown(sheet, to.breakdown);
    const int islands = traced.cluster->num_islands();
    std::uint64_t busiest = 0;
    for (int i = 0; i < islands; ++i)
      busiest = std::max(busiest, traced.cluster->island_processed(i));
    double busy = 0;
    for (const TicketStats& ts : timing.per_thread()) busy += ts.sum_s;
    sheet.set("par.rounds", static_cast<double>(to.rounds));
    sheet.set("par.islands", islands);
    sheet.set("par.tickets", static_cast<double>(timing.tickets()));
    sheet.set("par.section_s", timing.section_s());
    sheet.set("par.serial_s", run_s - timing.section_s());
    sheet.set("par.body_busy_s", busy);
    sheet.set("par.idle_share",
              1.0 - share(busy, timing.section_s() * timing.threads()));
    sheet.set("par.busiest_island_share",
              share(static_cast<double>(busiest), static_cast<double>(to.events)));
    sheet.set("placement.add_tenant_us", mean_us(tracer, "placement.add_tenant"));
    sheet.set("trace.overhead_share", share(pass.wall_s, log.unit_s()));
    r.per_layer = sheet.emit();
    r.spans = tracer.spans();
    r.ticket_stats = timing.per_thread();
  }
  finish(r, opts);
  return r;
}

// ==================================================== admission_churn

struct ChurnParams {
  int pods, racks_per_pod, servers_per_rack;
  double target_occupancy;
  std::int64_t storm_ops;
  std::int64_t snapshot_every;
  int batch_ops;  ///< storm ops per timed piece
};

ChurnParams churn_params(const Options& o) {
  ChurnParams p = o.scale == Scale::kFull ? ChurnParams{16, 40, 25, 0.5, 4000, 256, 50}
                                          : ChurnParams{2, 4, 10, 0.5, 200, 32, 50};
  if (o.reference) {
    // One endless storm after one prefill, in half-size turns.
    p.storm_ops = std::numeric_limits<std::int64_t>::max();
    p.batch_ops /= 2;
  }
  return p;
}

/// The Fig 15 tenant mix (flowsim's sampler): geometric size with mean
/// 16 (at least 2), half class-A, Table 3 bandwidth draws.
TenantRequest fig15_request(Rng& rng) {
  constexpr double kMeanVms = 16.0;
  const bool class_a = rng.uniform() < 0.5;
  TenantRequest req;
  const double p = 1.0 / (kMeanVms - 1.0);
  int n = 2;
  while (rng.uniform() > p && n < 8 * kMeanVms) ++n;
  req.num_vms = n;
  const auto bw = [&](double mean) {
    return RateBps{std::clamp(rng.exponential(mean), 0.1e9, 5e9)};
  };
  if (class_a) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {bw(0.25e9), 15 * kKB, 1 * kMsec, 1 * kGbps};
    req.guarantee.burst_rate =
        std::max(req.guarantee.burst_rate, req.guarantee.bandwidth);
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {bw(2e9), Bytes{1500}, TimeNs{0}, RateBps{0}};
  }
  return req;
}

struct ChurnRep {
  double setup_s = 0;
  double storm_s = 0;
  std::vector<double> accept_us, reject_us;
  std::int64_t prefill_admits = 0;  ///< admit calls the prefill made
  std::int64_t ops = 0, threw = 0;
  std::uint64_t digest = 0;
  std::int64_t mismatched_servers = 0;  ///< delta-applied != snapshot
  std::vector<obs::MetricSample> controller_metrics;
  std::vector<obs::MetricSample> journal_metrics;
  DatacenterStats stats;
};

ChurnRep run_churn_rep(const ChurnParams& p, std::uint64_t seed,
                       Tracer& tracer, Turns* turns) {
  ChurnRep rep;
  topology::TopologyConfig tcfg;
  tcfg.pods = p.pods;
  tcfg.racks_per_pod = p.racks_per_pod;
  tcfg.servers_per_rack = p.servers_per_rack;
  Rng rng(seed);
  Digest decisions;

  const auto s0 = Clock::now();
  SiloController ctl = [&] {
    Scope span(tracer, "sim.construct");
    return SiloController(tcfg);
  }();
  DeltaJournal journal;
  ctl.attach_journal(&journal, p.snapshot_every);
  const int total_slots = ctl.topo().num_servers() * tcfg.vm_slots_per_server;
  const auto occupancy = [&] {
    return 1.0 - static_cast<double>(ctl.placement().free_slots()) / total_slots;
  };

  std::vector<TenantHandle> live;
  std::map<placement::TenantId, std::size_t> index_of;
  const auto track = [&](const TenantHandle& h) {
    index_of[h.id] = live.size();
    live.push_back(h);
    decisions.add(static_cast<std::uint64_t>(h.id));
    for (const int s : h.vm_to_server) decisions.add(static_cast<std::uint64_t>(s));
  };
  const auto refresh = [&](const RecoveryReport& report) {
    for (const auto id : report.affected) {
      const auto it = index_of.find(id);
      if (it != index_of.end()) live[it->second].vm_to_server = ctl.tenant_placement(id);
    }
  };
  // Hypervisor model: every drained delta lands on its server's table.
  std::map<int, PacerConfigTable> fleet;
  const auto drain = [&] {
    Scope span(tracer, "core.drain");
    for (const auto& delta : ctl.drain_config_deltas()) fleet[delta.server].apply(delta);
  };

  // Prefill to the target occupancy (part of set-up).
  {
    Scope span(tracer, "placement.prefill");
    for (; occupancy() < p.target_occupancy; ++rep.prefill_admits)
      if (const auto h = ctl.admit(fig15_request(rng))) track(*h);
    drain();
  }
  rep.setup_s = seconds_between(s0, Clock::now());

  // Closed-loop storm from one caller: admit below the target, release
  // above it; one op in ten is a server failure + restore pair. Ops run in
  // timed batches, and the paired reference takes a turn after each.
  auto batch0 = Clock::now();
  int in_batch = 0;
  for (std::int64_t op = 0; op < p.storm_ops; ++op) {
    try {
      const bool recover = rng.uniform_int(0, 9) == 0 && !live.empty();
      if (recover) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const int anchor = live[i].vm_to_server.front();
        if (anchor >= 0) {
          Scope span(tracer, "core.recover");
          refresh(ctl.handle_server_failure(anchor));
          refresh(ctl.restore_server(anchor));
        }
        decisions.add(0xfa11u);
      } else if (occupancy() < p.target_occupancy || live.empty()) {
        const TenantRequest req = fig15_request(rng);
        const auto a0 = Clock::now();
        std::optional<TenantHandle> h;
        {
          Scope span(tracer, "core.admit");
          h = ctl.admit(req);
          span.end(h ? "accept" : "reject");
        }
        const double dt = seconds_between(a0, Clock::now());
        if (h) {
          rep.accept_us.push_back(dt * 1e6);
          track(*h);
        } else {
          rep.reject_us.push_back(dt * 1e6);
          decisions.add(0x4e4eu);
        }
      } else {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        {
          Scope span(tracer, "core.release");
          ctl.release(live[i]);
        }
        decisions.add(static_cast<std::uint64_t>(live[i].id) ^ 0x5e1eu);
        index_of.erase(live[i].id);
        live[i] = live.back();
        live.pop_back();
        if (i < live.size()) index_of[live[i].id] = i;
      }
      drain();
    } catch (const std::exception&) {
      ++rep.threw;
    }
    ++rep.ops;
    if (++in_batch == p.batch_ops || op + 1 == p.storm_ops) {
      const double batch_s = seconds_between(batch0, Clock::now());
      rep.storm_s += batch_s;
      if (turns) turns->yield({static_cast<double>(in_batch), batch_s});
      in_batch = 0;
      batch0 = Clock::now();
    }
  }

  // Applying the drained deltas must reproduce every server's snapshot.
  Digest configs;
  const int servers = ctl.topo().num_servers();
  for (int s = 0; s < servers; ++s) {
    const std::uint64_t snap = pacer_config_checksum(ctl.server_config(s));
    const auto it = fleet.find(s);
    const std::uint64_t applied =
        it == fleet.end() ? pacer_config_checksum({}) : it->second.checksum();
    if (applied != snap) ++rep.mismatched_servers;
    configs.add(snap);
  }
  rep.controller_metrics = ctl.metrics().snapshot();
  rep.journal_metrics = journal.metrics().snapshot();
  rep.stats = ctl.stats();
  Digest all;
  all.add(decisions.value());
  all.add(configs.value());
  all.add(static_cast<std::uint64_t>(
      sample_value(rep.controller_metrics, "controller.diff.deltas")));
  rep.digest = all.value();
  return rep;
}

/// Prefill + storm repetitions per admission_churn run.
constexpr int kChurnReps = 3;

RunResult run_admission_churn(const Options& opts) {
  const ChurnParams p = churn_params(opts);
  RunResult r;
  Tracer off(false);

  // Each repetition is a fresh prefill (set-up) plus a storm, each drawn
  // from its own stream of the workload seed so the reject mix averages
  // over several op sequences. A run makes exactly kChurnReps of them,
  // whatever the machine's speed, so every run pools the same streams.
  // Repetition 0 carries the digest. (The reference's one storm never ends.)
  std::vector<ChurnRep> reps;
  const int wanted = opts.trace ? 1 : kChurnReps;
  while (static_cast<int>(reps.size()) < wanted)
    reps.push_back(run_churn_rep(p, stream_seed(opts.seed, static_cast<int>(reps.size())),
                                 off, opts.turns));

  std::vector<double> setups, accept, reject;
  double storm_s = 0;
  for (const ChurnRep& rep : reps) {
    setups.push_back(rep.setup_s);
    storm_s += rep.storm_s;
    accept.insert(accept.end(), rep.accept_us.begin(), rep.accept_us.end());
    reject.insert(reject.end(), rep.reject_us.begin(), rep.reject_us.end());
    r.attempted += rep.ops;
    r.failed += rep.threw;
    if (rep.mismatched_servers != 0)
      r.fail("drained deltas do not reproduce " +
             std::to_string(rep.mismatched_servers) + " server snapshots");
  }
  r.digest = reps.front().digest;
  const double rate = static_cast<double>(r.attempted) / storm_s;
  add_common_e2e(r, median(setups), rate);
  r.report.push_back({"ops_per_s", rate, "1/s"});
  if (!opts.trace) {
    // The tiny self-test scale has too few samples for these percentiles.
    const auto pct = [&](const std::vector<double>& v, double q) {
      if (percentile_supported(v.size(), q)) return checked_percentile(v, q);
      if (opts.scale == Scale::kFull)
        r.fail("too few samples for p" + std::to_string(static_cast<int>(q)) +
               ": " + std::to_string(v.size()));
      return 0.0;
    };
    r.report.push_back({"admit_p99_us", pct(accept, 99), "us"});
    r.report.push_back({"reject_p50_us", pct(reject, 50), "us"});
    r.report.push_back({"reject_p90_us", pct(reject, 90), "us"});
  }
  note(r, "repetitions", static_cast<double>(reps.size()));
  note(r, "storm_ops_per_rep", static_cast<double>(p.storm_ops));
  note(r, "accepted_admits", static_cast<double>(accept.size()));
  note(r, "rejected_admits", static_cast<double>(reject.size()));

  if (opts.trace) {
    Tracer tracer(true);
    const auto t0 = Clock::now();
    const ChurnRep rep = run_churn_rep(p, stream_seed(opts.seed, 0), tracer, nullptr);
    const double traced_wall = seconds_between(t0, Clock::now());
    if (rep.digest != r.digest) r.fail("traced admission_churn digest differs");
    LayerSheet sheet;
    const auto& m = rep.controller_metrics;
    const auto& j = rep.journal_metrics;
    sheet.set("sim.construct_s", tracer.total("sim.construct"));
    sheet.set("placement.add_tenant_us",
              share(tracer.total("placement.prefill") * 1e6,
                    static_cast<double>(rep.prefill_admits)));
    sheet.set("placement.occupancy",
              1.0 - share(rep.stats.free_slots, rep.stats.total_slots));
    sheet.set("placement.max_port_reservation", rep.stats.max_port_reservation);
    sheet.set("placement.max_queue_headroom_used", rep.stats.max_queue_headroom_used);
    sheet.set("core.admit_accept_us", mean_us(tracer, "core.admit", "accept"));
    sheet.set("core.admit_reject_us", mean_us(tracer, "core.admit", "reject"));
    sheet.set("core.reject_share", share(tracer.total("core.admit", "reject"), rep.storm_s));
    sheet.set("core.release_us", mean_us(tracer, "core.release"));
    sheet.set("core.recover_us", mean_us(tracer, "core.recover"));
    sheet.set("core.drain_us", mean_us(tracer, "core.drain"));
    const auto accepts = tracer.durations("core.admit", "accept");
    const auto rejects = tracer.durations("core.admit", "reject");
    if (percentile_supported(accepts.size(), 99))
      sheet.set("core.admit_p99_us", checked_percentile(accepts, 99) * 1e6);
    if (percentile_supported(rejects.size(), 90)) {
      sheet.set("core.reject_p50_us", checked_percentile(rejects, 50) * 1e6);
      sheet.set("core.reject_p90_us", checked_percentile(rejects, 90) * 1e6);
    }
    for (const char* name : {"controller.rejections", "controller.recovery.degraded",
                             "controller.diff.deltas", "controller.diff.upserts"})
      sheet.set(name, static_cast<double>(sample_value(m, name)));
    for (const char* name : {"controller.journal.appends", "controller.journal.snapshots"})
      sheet.set(name, static_cast<double>(sample_value(j, name)));
    sheet.set("trace.overhead_share",
              share(traced_wall, reps.front().setup_s + reps.front().storm_s));
    r.per_layer = sheet.emit();
    r.spans = tracer.spans();
  }
  finish(r, opts);
  return r;
}

// ====================================================== flow_locality

flowsim::FlowSimConfig flow_config(Scale s, std::uint64_t seed) {
  flowsim::FlowSimConfig cfg;
  if (s == Scale::kFull) {
    cfg.topo.pods = 32;
    cfg.topo.racks_per_pod = 40;
    cfg.topo.servers_per_rack = 25;  // the paper's 32,000 servers
    cfg.sim_duration_s = 300.0;
  } else {
    cfg.topo.pods = 2;
    cfg.topo.racks_per_pod = 4;
    cfg.topo.servers_per_rack = 10;
    cfg.sim_duration_s = 30.0;
  }
  cfg.warmup_s = cfg.sim_duration_s / 4;
  cfg.policy = placement::Policy::kLocality;
  cfg.occupancy = 0.9;
  cfg.permutation_x = 1.0;
  cfg.mean_vms = 16.0;
  cfg.rate_update_s = 1.0;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t flow_digest(const flowsim::FlowSimResult& f) {
  Digest d;
  for (const int v : {f.arrivals, f.admitted, f.arrivals_a, f.admitted_a,
                      f.arrivals_b, f.admitted_b, f.completed_jobs})
    d.add(static_cast<std::uint64_t>(v));
  d.add_double(f.network_utilization);
  d.add_double(f.avg_occupancy);
  d.add_double(f.avg_job_duration_s);
  for (const std::int64_t v : {f.perf.events, f.perf.solves, f.perf.solved_flows,
                               f.perf.rate_changes, f.perf.maxmin_rounds,
                               f.perf.stale_predictions})
    d.add(static_cast<std::uint64_t>(v));
  return d.value();
}

/// Seed streams a flow_locality run pools.
constexpr int kFlowUnits = 2;

RunResult run_flow_locality(const Options& opts) {
  flowsim::FlowSimConfig cfg = flow_config(opts.scale, opts.seed);
  if (opts.reference) {
    // The reference's turns are half-length units.
    cfg.sim_duration_s /= 2;
    cfg.warmup_s /= 2;
  }
  RunResult r;

  // Set-up: a zero-length simulation builds the topology, placement
  // engine and flow tables and returns.
  flowsim::FlowSimConfig empty = cfg;
  empty.sim_duration_s = 0;
  empty.warmup_s = 0;
  const double setup_s = opts.reference
                             ? 0
                             : timed_setups({}, [&] { (void)flowsim::run_flow_sim(empty); });

  // Units draw from successive streams of the seed: the solver's cost per
  // flow follows the sharing graph a stream happens to build (15% apart
  // between two seeds), so a run pools kFlowUnits streams, whatever the
  // machine's speed. A unit is one timed piece; the paired reference runs
  // a half-length unit of its own between units.
  double sim_s = 0, wall_s = 0, first_wall_s = 0;
  int units = 0;
  flowsim::FlowSimResult first;
  const int units_wanted =
      opts.trace ? 1 : opts.reference ? std::numeric_limits<int>::max() : kFlowUnits;
  do {
    flowsim::FlowSimConfig unit = cfg;
    unit.seed = stream_seed(opts.seed, units);
    const auto t0 = Clock::now();
    const flowsim::FlowSimResult res = flowsim::run_flow_sim(unit);
    const double unit_s = seconds_between(t0, Clock::now());
    wall_s += unit_s;
    sim_s += unit.sim_duration_s;
    if (units++ == 0) {
      first = res;
      first_wall_s = unit_s;
    }
    if (!(res.network_utilization >= 0 && res.network_utilization <= 1))
      r.fail("net_util outside [0, 1]");
    if (res.admitted > res.arrivals) r.fail("more admissions than arrivals");
    r.attempted += res.arrivals;
    // The reference's turns come between units (its first ran before ours).
    if (opts.turns && units < units_wanted) opts.turns->yield({unit.sim_duration_s, unit_s});
  } while (units < units_wanted);

  r.digest = flow_digest(first);
  const double rate = sim_s / wall_s;
  add_common_e2e(r, setup_s, rate);
  r.report.push_back({"flow_sim_s_per_s", rate, "s/s"});
  r.report.push_back({"net_util", first.network_utilization, "ratio"});
  note(r, "units", units);
  note(r, "simulated_s_per_unit", cfg.sim_duration_s);
  note(r, "arrivals", first.arrivals);
  note(r, "admitted_frac", first.admitted_frac());

  if (opts.trace) {
    Tracer tracer(true);
    const auto t0 = Clock::now();
    flowsim::FlowSimResult res;
    {
      Scope span(tracer, "flowsim.run");
      res = flowsim::run_flow_sim(cfg);
    }
    const double traced_wall = seconds_between(t0, Clock::now());
    if (flow_digest(res) != r.digest) r.fail("traced flow_locality digest differs");
    LayerSheet sheet;
    const auto& pf = res.perf;
    sheet.set("flowsim.events", static_cast<double>(pf.events));
    sheet.set("flowsim.solves", static_cast<double>(pf.solves));
    sheet.set("flowsim.solved_flows", static_cast<double>(pf.solved_flows));
    sheet.set("flowsim.maxmin_rounds", static_cast<double>(pf.maxmin_rounds));
    sheet.set("flowsim.rate_changes", static_cast<double>(pf.rate_changes));
    sheet.set("flowsim.stale_share",
              share(static_cast<double>(pf.stale_predictions),
                    static_cast<double>(pf.stale_predictions + pf.events)));
    sheet.set("flowsim.ns_per_solved_flow",
              share(tracer.total("flowsim.run") * 1e9,
                    static_cast<double>(pf.solved_flows)));
    sheet.set("flowsim.net_util", res.network_utilization);
    sheet.set("placement.occupancy", res.avg_occupancy);
    // Against the untraced unit on the same stream (stream 0): streams
    // differ in solver cost per flow.
    sheet.set("trace.overhead_share", share(traced_wall, first_wall_s));
    r.per_layer = sheet.emit();
    r.spans = tracer.spans();
  }
  finish(r, opts);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "packet_silo", "islands_tcp", "admission_churn", "flow_locality"};
  return kNames;
}

std::uint64_t pinned_digest(const std::string& workload) {
  // Full scale, kDefaultSeed. A change that alters any simulated output
  // moves these; a pure speed-up must not.
  static const std::map<std::string, std::uint64_t> kPins = {
      {"packet_silo", 0xfa824f581651864eull},
      {"islands_tcp", 0x47a5fc20cfb9fb3bull},
      {"admission_churn", 0x04395d2ccadc2b1aull},
      {"flow_locality", 0x9cef68a36b6f0d60ull},
  };
  const auto it = kPins.find(workload);
  return it == kPins.end() ? 0 : it->second;
}

RunResult run_workload(const Options& opts) {
  try {
    if (opts.workload == "packet_silo") return run_packet_silo(opts);
    if (opts.workload == "islands_tcp") return run_islands_tcp(opts);
    if (opts.workload == "admission_churn") return run_admission_churn(opts);
    if (opts.workload == "flow_locality") return run_flow_locality(opts);
  } catch (const std::exception& e) {
    RunResult r;
    r.attempted = 1;
    r.fail(std::string("exception: ") + e.what());
    r.failed = r.attempted;
    return r;
  }
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
