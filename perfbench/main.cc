// silo_perfbench: run one benchmark workload and print its metrics.
//
//   silo_perfbench --workload packet_silo --seed 1 --seconds 27 --trace 0
//                  [--reference BIN] [--git-describe STR] [--out-dir DIR]
//   silo_perfbench_ref --serve-reference packet_silo
//
// With --reference, an untraced run takes turns with BIN, the pinned
// reference build, and reports its host times and rates at the
// reference's nominal speed (pairing.h); the raw figures are printed too.
// --serve-reference is that reference's side of the hand-over.
//
// Human-readable lines come first: the machine stamp, then every metric
// by name with its unit. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The full record, and for traced runs every span, is also written to
// --out-dir. Exit status is 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "silo_perfbench: %s\nusage: silo_perfbench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--reference BIN] "
               "[--git-describe STR] [--out-dir DIR]\n"
               "       silo_perfbench --serve-reference NAME\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.seed = perfbench::kDefaultSeed;
  std::string git = "unknown";
  std::string out_dir;
  std::string reference;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") opts.workload = val;
    else if (key == "--seed") opts.seed = std::stoull(val);
    else if (key == "--seconds") opts.seconds = std::stod(val);
    else if (key == "--trace") opts.trace = val != "0";
    else if (key == "--git-describe") git = val;
    else if (key == "--out-dir") out_dir = val;
    else if (key == "--reference") reference = val;
    else if (key == "--serve-reference") {
      opts.workload = val;
      serve = true;
    }
    else usage(("unknown flag " + key).c_str());
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known = known || w == opts.workload;
  if (!known) usage(("unknown workload '" + opts.workload + "'").c_str());

  if (serve) {
    // The reference: the default seed, taking turns until the benchmark
    // closes the pipe (ReferenceTurns exits then). A return means a failure.
    perfbench::ReferenceTurns turns;
    opts.seed = perfbench::kDefaultSeed;
    opts.reference = true;
    opts.turns = &turns;
    const perfbench::RunResult r = perfbench::run_workload(opts);
    for (const auto& e : r.errors) std::fprintf(stderr, "reference: %s\n", e.c_str());
    return 3;
  }

  perfbench::RunResult r;
  std::unique_ptr<perfbench::Pairing> pairing;
  try {
    if (!reference.empty() && !opts.trace)
      pairing = std::make_unique<perfbench::Pairing>(reference, opts.workload);
    opts.turns = pairing.get();
    r = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    r = {};
    r.attempted = 1;
    r.fail(std::string("paired reference: ") + e.what());
    r.failed = r.attempted;
  }
  std::string turns_json = "[]";
  if (pairing) {
    // Express host times and rates at the reference's nominal speed.
    const perfbench::PairedSpeed speed =
        perfbench::paired_speed(opts.workload, pairing->reference());
    // The hand-overs, for the record: [work, s] of the reference's first
    // piece, then [work, s, reference work, reference s] per turn.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "[[%.9g, %.9g]", pairing->first().work,
                  pairing->first().seconds);
    turns_json = buf;
    for (const auto& [mine, ref] : pairing->log()) {
      std::snprintf(buf, sizeof(buf), ", [%.9g, %.9g, %.9g, %.9g]", mine.work,
                    mine.seconds, ref.work, ref.seconds);
      turns_json += buf;
    }
    turns_json += "]";
    pairing.reset();  // the reference has ended once this returns
    std::vector<perfbench::Metric> raw;
    for (auto* ms : {&r.end_to_end, &r.report}) {
      for (auto& m : *ms) {
        const bool rate = m.name == "throughput" || m.name == "sim_ms_per_s" ||
                          m.name == "ops_per_s" || m.name == "flow_sim_s_per_s";
        const bool host_time = m.name == "setup_s" || m.name == "admit_p99_us" ||
                               m.name == "reject_p50_us" || m.name == "reject_p90_us";
        if (ms == &r.end_to_end && (rate || host_time))
          raw.push_back({m.name + "_raw", m.value, m.unit});
        if (rate) m.value = speed.rate(m.value);
        if (host_time) m.value = speed.seconds(m.value);
      }
    }
    r.report.insert(r.report.end(), raw.begin(), raw.end());
    r.report.push_back({"host_speed", speed.factor, "ratio"});
  }

  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"git_describe\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d}",
                std::thread::hardware_concurrency(),
                json_escape("g++ " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
                json_escape(git).c_str(), opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
  std::printf("machine %s\n", stamp);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(r.digest));
  for (const auto& [k, v] : r.notes) std::printf("note %s = %s\n", k.c_str(), v.c_str());
  for (const auto& m : r.end_to_end)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : r.report)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : r.per_layer)
    std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  // Per span name: count, total and self time (duration minus the time
  // its children cover), the per-layer self-time split of a traced run.
  struct SpanTotal {
    long long count = 0;
    double total_s = 0, self_s = 0;
  };
  std::map<std::string, SpanTotal> span_totals;
  const std::vector<double> self = perfbench::self_times(r.spans);
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    SpanTotal& t = span_totals[r.spans[i].name];
    ++t.count;
    t.total_s += r.spans[i].duration();
    t.self_s += self[i];
  }
  std::string spans_json = "{";
  for (const auto& [name, t] : span_totals) {
    std::printf("span %s count=%lld total_s=%.6f self_s=%.6f\n", name.c_str(),
                t.count, t.total_s, t.self_s);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %lld, \"total_s\": %.9f, \"self_s\": %.9f}",
                  spans_json.size() > 1 ? ", " : "", name.c_str(), t.count,
                  t.total_s, t.self_s);
    spans_json += buf;
  }
  spans_json += "}";

  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    errors += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  errors += "]";
  if (!out_dir.empty()) {
    const std::string base = out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + (opts.trace ? "-trace" : "");
    if (std::FILE* f = std::fopen((base + ".json").c_str(), "w")) {
      std::string notes = "{";
      for (std::size_t i = 0; i < r.notes.size(); ++i)
        notes += (i ? ", \"" : "\"") + r.notes[i].first + "\": " + r.notes[i].second;
      notes += "}";
      std::string threads = "[";
      for (std::size_t i = 0; i < r.ticket_stats.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s{\"count\": %lld, \"sum_s\": %.9f, \"max_s\": %.9f}",
                      i ? ", " : "", static_cast<long long>(r.ticket_stats[i].count),
                      r.ticket_stats[i].sum_s, r.ticket_stats[i].max_s);
        threads += buf;
      }
      threads += "]";
      std::fprintf(f,
                   "{\"machine\": %s, \"correct\": %s, \"errors\": %s, "
                   "\"digest\": \"%016llx\", \"attempted\": %lld, \"failed\": %lld, "
                   "\"end_to_end\": %s, \"report\": %s, \"per_layer\": %s, "
                   "\"notes\": %s, \"ticket_stats\": %s, \"spans\": %s, "
                   "\"turns\": %s}\n",
                   stamp, r.correct ? "true" : "false", errors.c_str(),
                   static_cast<unsigned long long>(r.digest),
                   static_cast<long long>(r.attempted),
                   static_cast<long long>(r.failed),
                   metrics_json(r.end_to_end).c_str(), metrics_json(r.report).c_str(),
                   metrics_json(r.per_layer).c_str(), notes.c_str(), threads.c_str(),
                   spans_json.c_str(), turns_json.c_str());
      std::fclose(f);
    }
  }
  if (opts.trace && !out_dir.empty()) {
    // Spans were recorded by the traced pass; write them one per line.
    const std::string path = out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-spans.jsonl";
    if (!perfbench::write_spans_jsonl(path, r.spans))
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              metrics_json(opts.trace ? r.per_layer : r.end_to_end).c_str());
  return r.correct ? 0 : 1;
}
