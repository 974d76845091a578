// Google-benchmark microbenchmarks of the hot-path primitives: network-
// calculus curve operations, queue-bound analysis, token-bucket stamping,
// void-packet batch construction, hose allocation, placement admission,
// and the control plane's journal compaction and codec — the operations
// whose cost bounds how fast a placement manager and a software pacer can
// run.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/controller.h"
#include "core/journal.h"
#include "netcalc/curve.h"
#include "pacer/hose_allocator.h"
#include "pacer/paced_nic.h"
#include "pacer/token_bucket.h"
#include "pacer/vm_pacer.h"
#include "placement/placement.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace silo {
namespace {

void BM_CurveTokenBucket(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        netcalc::Curve::token_bucket(1 * kGbps, 100 * kKB));
  }
}
BENCHMARK(BM_CurveTokenBucket);

void BM_CurvePlus(benchmark::State& state) {
  const auto a = netcalc::Curve::rate_limited_burst(1 * kGbps, 100 * kKB,
                                                    10 * kGbps);
  const auto b = netcalc::Curve::rate_limited_burst(2 * kGbps, 30 * kKB,
                                                    10 * kGbps);
  for (auto _ : state) benchmark::DoNotOptimize(a.plus(b));
}
BENCHMARK(BM_CurvePlus);

void BM_CurveMin(benchmark::State& state) {
  const auto a = netcalc::Curve::token_bucket(1 * kGbps, 100 * kKB);
  const auto b = netcalc::Curve::token_bucket(10 * kGbps, Bytes{1500});
  for (auto _ : state) benchmark::DoNotOptimize(a.min_with(b));
}
BENCHMARK(BM_CurveMin);

void BM_AnalyzeQueue(benchmark::State& state) {
  const auto arrival = netcalc::Curve::rate_limited_burst(
      4 * kGbps, 300 * kKB, 20 * kGbps);
  const auto service = netcalc::Curve::constant_rate(10 * kGbps);
  for (auto _ : state)
    benchmark::DoNotOptimize(netcalc::analyze_queue(arrival, service));
}
BENCHMARK(BM_AnalyzeQueue);

void BM_TokenBucketStamp(benchmark::State& state) {
  pacer::TokenBucket bucket(1 * kGbps, 15 * kKB);
  TimeNs now {};
  for (auto _ : state) {
    now = bucket.earliest_conformance(now, Bytes{1500});
    bucket.consume(now, Bytes{1500});
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_TokenBucketStamp);

void BM_VmPacerStamp(benchmark::State& state) {
  pacer::VmPacer pacer({1 * kGbps, 15 * kKB, kMsec, 10 * kGbps});
  TimeNs now {};
  int dst = 0;
  for (auto _ : state) {
    now = pacer.stamp(now, dst, Bytes{1500});
    dst = (dst + 1) % 16;
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_VmPacerStamp);

void BM_PacedNicBatch(benchmark::State& state) {
  // One 50 us batch at a 2 Gbps limit: ~8 data packets + void fill.
  for (auto _ : state) {
    state.PauseTiming();
    pacer::PacedNic nic(10 * kGbps, pacer::NicMode::kPacedVoid);
    for (int i = 0; i < 8; ++i)
      nic.enqueue(TimeNs{i * 6000}, Bytes{1462}, i + 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(nic.build_batch(TimeNs{0}));
  }
}
BENCHMARK(BM_PacedNicBatch);

void BM_HoseAllocate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<pacer::HoseDemand> demands;
  for (int i = 0; i < n; ++i)
    demands.push_back({static_cast<int>(rng.uniform_int(0, 15)),
                       static_cast<int>(rng.uniform_int(0, 15)), RateBps{1e9}});
  const std::vector<RateBps> caps(16, RateBps{1e9});
  for (auto _ : state)
    benchmark::DoNotOptimize(pacer::hose_allocate(demands, caps, caps));
}
BENCHMARK(BM_HoseAllocate)->Arg(8)->Arg(64)->Arg(256);

void BM_PlacementAdmit(benchmark::State& state) {
  topology::TopologyConfig tcfg;
  tcfg.pods = 4;
  tcfg.racks_per_pod = 10;
  tcfg.servers_per_rack = 40;
  topology::Topology topo(tcfg);
  placement::PlacementEngine engine(topo, placement::Policy::kSilo);
  Rng rng(5);
  std::vector<placement::TenantId> ids;
  for (auto _ : state) {
    TenantRequest req;
    req.num_vms = 8 + static_cast<int>(rng.uniform_int(0, 24));
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {0.5 * kGbps, 15 * kKB, 2 * kMsec, 1 * kGbps};
    auto placed = engine.place(req);
    if (placed) ids.push_back(placed->id);
    if (ids.size() > 600) {  // steady-state churn
      engine.remove(ids.front());
      ids.erase(ids.begin());
    }
    benchmark::DoNotOptimize(placed);
  }
}
BENCHMARK(BM_PlacementAdmit)->Unit(benchmark::kMicrosecond);

/// A 1,600-server controller filled to half its VM slots with a 2-14 VM
/// class-A/B mix, built once and shared by the journal benchmarks.
const SiloController& prefilled_controller() {
  static const std::unique_ptr<SiloController> ctl = [] {
    topology::TopologyConfig tcfg;
    tcfg.pods = 4;
    tcfg.racks_per_pod = 10;
    tcfg.servers_per_rack = 40;
    auto c = std::make_unique<SiloController>(tcfg);
    Rng rng(9);
    const int half = c->stats().total_slots / 2;
    while (c->stats().free_slots > half) {
      TenantRequest req;
      req.num_vms = 2 + static_cast<int>(rng.uniform_int(0, 12));
      if (rng.uniform() < 0.5) {
        req.tenant_class = TenantClass::kDelaySensitive;
        req.guarantee = {300 * kMbps, 15 * kKB, 1300 * kUsec, 1 * kGbps};
      } else {
        req.tenant_class = TenantClass::kBandwidthOnly;
        req.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
      }
      if (!c->admit(req)) break;
    }
    return c;
  }();
  return *ctl;
}

/// Serialized size of a journal holding only a snapshot, less the framing
/// of an empty journal: the snapshot's own byte count.
std::int64_t snapshot_bytes(const DeltaJournal& compacted) {
  return static_cast<std::int64_t>(compacted.serialize().size() -
                                   DeltaJournal().serialize().size());
}

void BM_JournalCompact(benchmark::State& state) {
  // One compaction: copy the controller state, then hash its encoding.
  const SiloController& ctl = prefilled_controller();
  DeltaJournal journal;
  for (auto _ : state) journal.compact(ctl.snapshot());
  const std::int64_t bytes = snapshot_bytes(journal);
  state.SetBytesProcessed(state.iterations() * bytes);
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_JournalCompact)->Unit(benchmark::kMicrosecond);

void BM_JournalRoundTrip(benchmark::State& state) {
  // The durability path of a restart: serialize, then deserialize (which
  // re-verifies every chain value). The journal holds a snapshot and 128
  // loose records, half a compaction interval at snapshot_every = 256.
  const SiloController& ctl = prefilled_controller();
  DeltaJournal journal;
  journal.compact(ctl.snapshot());
  for (int i = 0; i < 128; ++i) {
    JournalRecord rec;
    rec.op = i % 2 == 0 ? JournalOp::kAdmit : JournalOp::kRelease;
    rec.request.num_vms = 2 + i % 13;
    rec.tenant = i;
    journal.append(rec);
  }
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = journal.serialize();
    bytes = static_cast<std::int64_t>(blob.size());
    benchmark::DoNotOptimize(DeltaJournal::deserialize(blob).chain());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_JournalRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace silo

// Custom main instead of BENCHMARK_MAIN(): peel off the repo-wide
// --metrics-json flag (google-benchmark rejects unknown flags) and emit
// the run manifest after the benchmarks finish. Pure CPU microbenches
// have no simulation registry, so the metrics array is empty.
int main(int argc, char** argv) {
  std::vector<char*> bm_args;
  std::vector<char*> our_args{argv[0]};
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--metrics-json", 0) == 0) {
      our_args.push_back(argv[i]);
    } else {
      bm_args.push_back(argv[i]);
    }
  }
  const silo::bench::Flags flags(static_cast<int>(our_args.size()),
                                 our_args.data());
  int bm_argc = static_cast<int>(bm_args.size());
  benchmark::Initialize(&bm_argc, bm_args.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  silo::obs::RunManifest m;
  m.bench = "micro_ops";
  m.seed = 0;
  m.params = {{"suite", "netcalc/pacer/placement/journal hot-path primitives"}};
  silo::bench::maybe_write_manifest(flags, m);
  return 0;
}
