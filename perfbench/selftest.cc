// Self-tests of the benchmark's own machinery:
//   - the percentile helper enforces >= 10 samples beyond the percentile;
//   - span self-time arithmetic on nested and overlapping children;
//   - the timing executor runs every ticket exactly once;
//   - two in-process runs of each workload at tiny scale agree, and the
//     traced islands run proves the timing executor transparent.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool throws(const std::vector<double>& v, double p) {
  try {
    (void)perfbench::checked_percentile(v, p);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentile_rule() {
  using perfbench::checked_percentile;
  CHECK(throws(iota(199), 95));
  CHECK(!throws(iota(200), 95));
  CHECK(near(checked_percentile(iota(200), 95), 190));
  CHECK(throws(iota(999), 99));
  CHECK(near(checked_percentile(iota(1000), 99), 990));
  CHECK(throws(iota(99), 90));
  CHECK(near(checked_percentile(iota(100), 90), 90));
  CHECK(throws(iota(19), 50));
  CHECK(near(checked_percentile(iota(20), 50), 10));
  CHECK(throws({}, 50));
  CHECK(perfbench::samples_beyond(200, 95) == 10);
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 2, 3}), 2.5));
}

perfbench::Span span(int parent, double start, double end) {
  return perfbench::Span{std::string(1, 'x'), std::string(), parent, start, end};
}

void test_self_time() {
  // 0: root [0, 10]
  //   1: [1, 4]   with grandchild 4: [2, 3]
  //   2: [3, 6]   overlaps 1; the union [1, 6] is counted once
  //   3: [8, 12]  overruns the parent; clipped to [8, 10]
  //   5: [5, 5.5] inside 2's coverage already; adds nothing to 0
  const std::vector<perfbench::Span> spans = {
      span(-1, 0, 10), span(0, 1, 4), span(0, 3, 6), span(0, 8, 12),
      span(1, 2, 3),   span(0, 5, 5.5)};
  const auto self = perfbench::self_times(spans);
  CHECK(near(self[0], 10 - 5 - 2));
  CHECK(near(self[1], 3 - 1));
  CHECK(near(self[2], 3));
  CHECK(near(self[3], 4));
  CHECK(near(self[4], 1));
  CHECK(near(self[5], 0.5));

  // Disjoint children and a child touching the parent's edges.
  const auto flat = perfbench::self_times(
      {span(-1, 0, 4), span(0, 0, 1), span(0, 3, 4), span(0, 1, 1)});
  CHECK(near(flat[0], 2));

  // The recorder nests begin/end calls into parents.
  perfbench::Tracer t(true);
  {
    perfbench::Scope outer(t, "outer");
    perfbench::Scope inner(t, "inner");
    inner.end("tagged");
  }
  CHECK(t.spans().size() == 2);
  CHECK(t.spans()[1].parent == 0);
  CHECK(t.spans()[1].tag == "tagged");
  CHECK(t.count("inner", "tagged") == 1);
  const auto nested = perfbench::self_times(t.spans());
  CHECK(nested[0] >= 0 && nested[0] <= t.total("outer"));
  perfbench::Tracer off(false);
  { perfbench::Scope s(off, "ignored"); }
  CHECK(off.spans().empty());
}

void test_timing_executor() {
  silo::sim::SerialExecutor serial;
  perfbench::Tracer t(true);
  perfbench::TimingExecutor timing(serial, t);
  std::vector<int> hits(7, 0);
  timing.parallel_for(7, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
  timing.parallel_for(0, [&](int) { CHECK(false); });
  for (const int h : hits) CHECK(h == 1);
  CHECK(timing.calls() == 2);
  CHECK(timing.tickets() == 7);
  CHECK(t.count("par.parallel_for") == 2);
  const auto per_thread = timing.per_thread();
  CHECK(per_thread.size() == 1);
  CHECK(!per_thread.empty() && per_thread[0].count == 7);
  CHECK(timing.threads() == 1);
}

void test_workloads_repeat() {
  for (const auto& name : perfbench::workload_names()) {
    perfbench::Options opts;
    opts.workload = name;
    opts.scale = perfbench::Scale::kTiny;
    opts.seconds = 0;
    const auto a = perfbench::run_workload(opts);
    const auto b = perfbench::run_workload(opts);
    for (const auto& e : a.errors) std::printf("  %s: %s\n", name.c_str(), e.c_str());
    CHECK(a.correct);
    CHECK(b.correct);
    CHECK(a.digest == b.digest);
    CHECK(a.digest != 0);
    CHECK(a.attempted > 0);
    CHECK(a.end_to_end.size() == 4);
    // Another seed gives other outputs — except on islands_tcp, whose seed
    // only moves crossing VMs between servers of one rack, and servers of
    // a rack are interchangeable in the fabric model.
    opts.seed = 2;
    const bool moved = perfbench::run_workload(opts).digest != a.digest;
    CHECK(moved == (name != "islands_tcp"));
    // The traced run repeats the untraced one through the span recorder
    // and, for islands_tcp, the timing executor; both must be invisible.
    opts.seed = 1;
    opts.trace = true;
    const auto traced = perfbench::run_workload(opts);
    for (const auto& e : traced.errors) std::printf("  %s: %s\n", name.c_str(), e.c_str());
    CHECK(traced.correct);
    CHECK(traced.digest == a.digest);
    CHECK(!traced.per_layer.empty());
    CHECK(!traced.spans.empty());
    std::printf("  %s: digest %016llx ok\n", name.c_str(),
                static_cast<unsigned long long>(a.digest));
  }
}

void test_paired_speed() {
  // A reference at twice its nominal rate: the host ran fast, so rates
  // are halved and host times doubled.
  const double nominal = perfbench::reference_nominal_rate("packet_silo");
  const auto fast = perfbench::paired_speed("packet_silo", {4 * nominal, 2.0});
  CHECK(fast.factor == 2.0);
  CHECK(fast.rate(10.0) == 5.0);
  CHECK(fast.seconds(1.5) == 3.0);
  // No reference work leaves the figures as measured.
  const auto none = perfbench::paired_speed("packet_silo", {});
  CHECK(none.factor == 1.0);
}

void test_pairing_turns() {
  // The reference answers every turn with one half-step of packet_silo
  // (5 simulated ms), and ends when the pairing does.
  {
    perfbench::Pairing pairing(PERFBENCH_REF_BINARY, "packet_silo");
    CHECK(pairing.first().work == 5.0);
    pairing.yield({10.0, 0.1});
    pairing.yield({10.0, 0.1});
    CHECK(pairing.log().size() == 2);
    for (const auto& [mine, ref] : pairing.log()) {
      CHECK(mine.work == 10.0);
      CHECK(ref.work == 5.0);
      CHECK(ref.seconds > 0);
    }
    CHECK(pairing.reference().work == 15.0);
  }
  bool threw = false;
  try {
    perfbench::Pairing missing("/nonexistent/silo_perfbench_ref", "packet_silo");
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_timing_executor();
  test_paired_speed();
  test_pairing_turns();
  test_workloads_repeat();
  std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "passed", failures,
              failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
