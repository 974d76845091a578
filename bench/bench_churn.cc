// Control-plane churn storm: admission/release/fail/restore throughput of
// the sharded incremental placement + pacer-config diff path versus the
// full-recompute reference, at 1K / 8K / 32K servers.
//
// Both modes run the *identical* seeded op sequence; the bench checks the
// correctness bar inline (placement decisions are bit-identical, and the
// incremental mode's drained PacerConfigDeltas, applied to per-server
// tables, reproduce the full server_config snapshots checksum-for-
// checksum) before reporting the speedup.
// With --restart-every=N (N > 0) a third, journal-attached run crashes the
// controller every N storm ops and rebuilds it from the serialized
// DeltaJournal, measuring recovery latency (journal replay + control-
// channel anti-entropy convergence over the agent fleet). Its decisions
// and configs must checksum-match the incremental run — a crash is
// invisible to the placement history.
// --mix=fig15 swaps the request sampler for the Fig 15 tenant mix (mean 16
// VMs, Table 3 bandwidths) and prefills to about half the slots, so many
// admits are rejected: the same goldens then cover the reject path and
// static split pruning, and the run fails if neither was exercised.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/controller.h"
#include "sim/control_channel.h"
#include "sim/event_queue.h"
#include "util/rng.h"

using namespace silo;

namespace {

struct ScaleSpec {
  const char* name;
  int pods, racks_per_pod, servers_per_rack;
  int servers() const { return pods * racks_per_pod * servers_per_rack; }
};

constexpr ScaleSpec kScales[] = {
    {"1k", 5, 5, 40},
    {"8k", 10, 20, 40},
    {"32k", 16, 50, 40},
};

using Sampler = TenantRequest (*)(Rng&);

TenantRequest sample_request(Rng& rng) {
  TenantRequest req;
  req.num_vms = 2 + static_cast<int>(rng.uniform_int(0, 12));
  if (rng.uniform() < 0.5) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {300 * kMbps, 15 * kKB, 1300 * kUsec, 1 * kGbps};
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  }
  return req;
}

/// The Fig 15 tenant mix: geometric size with mean 16 (at least 2), half
/// class-A, Table 3 bandwidth draws (exponential, clamped to the NIC).
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

/// Rejected admits fold this marker into the decision checksum, so the
/// modes must agree on where rejects fall, not only on what was placed.
constexpr std::uint64_t kRejectMark = 0x4e4e;

struct StormResult {
  double storm_seconds = 0;
  std::int64_t ops = 0;
  std::int64_t admits = 0, releases = 0, fails = 0, restores = 0;
  std::int64_t deltas = 0, upserts = 0, removes = 0;
  std::uint64_t decision_checksum = 0;  ///< placements, in op order
  std::uint64_t config_checksum = 0;    ///< sampled server_config snapshots
  bool deltas_match_snapshots = true;   ///< incremental mode only
  placement::PlacementWork work;        ///< prefill + storm + recoveries
};

/// Run prefill + storm on one controller. The rng seed and op mix are
/// identical across modes, and decisions are too (verified via checksums),
/// so both controllers see the same op sequence.
StormResult run_storm(const topology::TopologyConfig& tcfg,
                      placement::AdmissionMode mode, std::int64_t prefill,
                      std::int64_t ops, std::uint64_t seed, Sampler sample) {
  SiloController::Options opts;
  opts.admission_mode = mode;
  SiloController ctl(tcfg, opts);
  Rng rng(seed);
  StormResult r;

  const auto mix = [](std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  r.decision_checksum = 1469598103934665603ull;
  r.config_checksum = 1469598103934665603ull;
  const auto mix_handle = [&](const TenantHandle& handle) {
    mix(r.decision_checksum, static_cast<std::uint64_t>(handle.id));
    for (int s : handle.vm_to_server)
      mix(r.decision_checksum, static_cast<std::uint64_t>(s));
  };

  std::vector<TenantHandle> live;
  std::map<placement::TenantId, std::size_t> index_of;  // id -> live index
  const auto track = [&](const TenantHandle& handle) {
    index_of[handle.id] = live.size();
    live.push_back(handle);
  };
  const auto refresh_affected = [&](const RecoveryReport& report) {
    // Recovery re-places tenants: refresh exactly the touched handles so
    // later ops name current placements (O(affected log n), not O(live)).
    for (const auto id : report.affected) {
      const auto it = index_of.find(id);
      if (it != index_of.end())
        live[it->second].vm_to_server = ctl.tenant_placement(id);
    }
  };
  const auto admit = [&] {
    if (const auto handle = ctl.admit(sample(rng))) {
      track(*handle);
      mix_handle(*handle);
    } else {
      mix(r.decision_checksum, kRejectMark);
    }
  };
  for (std::int64_t i = 0; i < prefill; ++i) admit();
  // Hypervisor-side model: fold every drained delta into per-server
  // tables; applied state must equal the snapshots at the end.
  std::map<int, PacerConfigTable> fleet;
  std::vector<PacerConfigDelta> drained = ctl.drain_config_deltas();

  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t op = 0; op < ops; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {
      ++r.admits;
      admit();
    } else if (roll < 7) {
      ++r.releases;
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ctl.release(live[i]);
      index_of.erase(live[i].id);
      live[i] = live.back();
      live.pop_back();
      if (i < live.size()) index_of[live[i].id] = i;
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int anchor = live[i].vm_to_server.front();
      if (anchor < 0) continue;  // tenant currently unplaced; skip the op
      ++r.fails;
      ++r.restores;
      if (roll < 9) {
        refresh_affected(ctl.handle_server_failure(anchor));
        refresh_affected(ctl.restore_server(anchor));
      } else {
        const auto port = ctl.topo().server_down(anchor);
        refresh_affected(ctl.handle_link_failure(port));
        refresh_affected(ctl.restore_link(port));
      }
    }
    auto more = ctl.drain_config_deltas();  // protocol cost: inside the clock
    drained.insert(drained.end(), more.begin(), more.end());
  }
  const auto end = std::chrono::steady_clock::now();
  r.storm_seconds = std::chrono::duration<double>(end - start).count();
  r.ops = ops;

  for (const auto& delta : drained) fleet[delta.server].apply(delta);
  // Sample servers evenly for the snapshot checksum: exhaustive snapshots
  // at 32K in full-rescan mode would dwarf the storm itself.
  const int num_servers = ctl.topo().num_servers();
  const int stride = std::max(1, num_servers / 64);
  for (int s = 0; s < num_servers; s += stride) {
    const auto snapshot = ctl.server_config(s);
    const std::uint64_t snap_sum = pacer_config_checksum(snapshot);
    mix(r.config_checksum, static_cast<std::uint64_t>(s));
    mix(r.config_checksum, snap_sum);
    if (mode == placement::AdmissionMode::kIncremental) {
      const auto it = fleet.find(s);
      const std::uint64_t applied =
          it == fleet.end() ? pacer_config_checksum({}) : it->second.checksum();
      if (applied != snap_sum) r.deltas_match_snapshots = false;
    }
  }
  r.deltas = ctl.metrics().value("controller.diff.deltas");
  r.upserts = ctl.metrics().value("controller.diff.upserts");
  r.removes = ctl.metrics().value("controller.diff.removes");
  r.work = ctl.placement().work();
  return r;
}

void mix_into(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

struct RestartResult {
  std::int64_t recoveries = 0;
  double recovery_seconds_total = 0;
  double recovery_seconds_max = 0;
  std::int64_t replayed_records = 0;  ///< journal records replayed, total
  std::int64_t journal_snapshots = 0;
  std::int64_t ae_rounds = 0;  ///< anti-entropy rounds across recoveries
  bool converged_ok = true;    ///< every recovery reached convergence
  std::uint64_t decision_checksum = 0;
  std::uint64_t config_checksum = 0;
  bool fleet_matches_snapshots = true;
};

/// The incremental storm again, but journal-attached, shipping every delta
/// through a (lossless, zero-delay) ControlChannel to a PacerAgentFleet,
/// and crashing + recovering the controller every `restart_every` ops. The
/// storm rng never sees the restarts, so decisions must checksum-match
/// run_storm's incremental run.
RestartResult run_restart_storm(const topology::TopologyConfig& tcfg,
                                std::int64_t prefill, std::int64_t ops,
                                std::uint64_t seed,
                                std::int64_t restart_every,
                                std::int64_t snapshot_every, Sampler sample) {
  SiloController::Options opts;
  opts.admission_mode = placement::AdmissionMode::kIncremental;
  std::optional<SiloController> ctl;
  ctl.emplace(tcfg, opts);
  DeltaJournal journal;
  ctl->attach_journal(&journal, snapshot_every);

  sim::EventQueue events;
  sim::PacerAgentFleet fleet;
  sim::ChannelConfig ccfg;
  ccfg.delivery_delay = TimeNs{0};
  ccfg.delivery_jitter = TimeNs{0};
  sim::ControlChannel channel(events, fleet, ccfg);
  const auto ship_drained = [&] {
    channel.ship(ctl->drain_config_deltas());
    events.run_all();
  };

  Rng rng(seed);
  RestartResult r;
  r.decision_checksum = 1469598103934665603ull;
  r.config_checksum = 1469598103934665603ull;
  const auto mix_handle = [&](const TenantHandle& handle) {
    mix_into(r.decision_checksum, static_cast<std::uint64_t>(handle.id));
    for (int s : handle.vm_to_server)
      mix_into(r.decision_checksum, static_cast<std::uint64_t>(s));
  };

  std::vector<TenantHandle> live;
  std::map<placement::TenantId, std::size_t> index_of;
  const auto track = [&](const TenantHandle& handle) {
    index_of[handle.id] = live.size();
    live.push_back(handle);
  };
  const auto refresh_affected = [&](const RecoveryReport& report) {
    for (const auto id : report.affected) {
      const auto it = index_of.find(id);
      if (it != index_of.end())
        live[it->second].vm_to_server = ctl->tenant_placement(id);
    }
  };
  const auto admit = [&] {
    if (const auto handle = ctl->admit(sample(rng))) {
      track(*handle);
      mix_handle(*handle);
    } else {
      mix_into(r.decision_checksum, kRejectMark);
    }
  };
  for (std::int64_t i = 0; i < prefill; ++i) admit();
  ship_drained();

  const auto crash_and_recover = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    // Full durability path: serialize the journal (as if synced to disk),
    // lose the controller, rebuild one from the deserialized bytes.
    journal = DeltaJournal::deserialize(journal.serialize());
    ctl.emplace(tcfg, opts);
    ctl->recover_from_journal(journal, snapshot_every);
    // Replay re-emits the whole delta backlog; the channel resyncs its
    // shadow straight from the recovered controller instead.
    (void)ctl->drain_config_deltas();
    channel.restart(*ctl);
    int rounds = 0;
    while (!channel.converged() && rounds < 64) {
      ++rounds;
      channel.anti_entropy_round();
      events.run_all();
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.ae_rounds += rounds;
    if (!channel.converged()) r.converged_ok = false;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    r.recovery_seconds_total += secs;
    r.recovery_seconds_max = std::max(r.recovery_seconds_max, secs);
    ++r.recoveries;
  };

  for (std::int64_t op = 0; op < ops; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {
      admit();
    } else if (roll < 7) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ctl->release(live[i]);
      index_of.erase(live[i].id);
      live[i] = live.back();
      live.pop_back();
      if (i < live.size()) index_of[live[i].id] = i;
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int anchor = live[i].vm_to_server.front();
      if (anchor >= 0) {
        if (roll < 9) {
          refresh_affected(ctl->handle_server_failure(anchor));
          refresh_affected(ctl->restore_server(anchor));
        } else {
          const auto port = ctl->topo().server_down(anchor);
          refresh_affected(ctl->handle_link_failure(port));
          refresh_affected(ctl->restore_link(port));
        }
      }
    }
    ship_drained();
    if (restart_every > 0 && (op + 1) % restart_every == 0)
      crash_and_recover();
  }

  const int num_servers = ctl->topo().num_servers();
  const int stride = std::max(1, num_servers / 64);
  for (int s = 0; s < num_servers; s += stride) {
    const std::uint64_t snap_sum =
        pacer_config_checksum(ctl->server_config(s));
    mix_into(r.config_checksum, static_cast<std::uint64_t>(s));
    mix_into(r.config_checksum, snap_sum);
    if (fleet.checksum(s) != snap_sum) r.fleet_matches_snapshots = false;
  }
  r.replayed_records =
      journal.metrics().value("controller.journal.replayed_records");
  r.journal_snapshots = journal.metrics().value("controller.journal.snapshots");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto ops = flags.geti("ops", 400);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.geti("seed", 7));
  const std::string scales = flags.gets("scales", "1k,8k,32k");
  /// Crash + journal-recover the controller every N storm ops (0 = off).
  const auto restart_every = flags.geti("restart-every", 0);
  const auto snapshot_every = flags.geti("snapshot-every", 64);
  /// Request mix: "uniform" (2-14 VMs) or the reject-heavy "fig15".
  const std::string mix = flags.gets("mix", "uniform");
  if (mix != "uniform" && mix != "fig15") {
    std::fprintf(stderr, "unknown --mix=%s (uniform|fig15)\n", mix.c_str());
    return 2;
  }
  const bool fig15 = mix == "fig15";
  const Sampler sample = fig15 ? fig15_request : sample_request;
  // Artifact names carry the mix so both modes can share a directory.
  const std::string bench_name = fig15 ? "churn_fig15" : "churn";

  bench::print_header(
      "Control-plane churn storm: incremental vs full-recompute admission",
      "Seeded admit/release/fail/restore mix against SiloController in\n"
      "kIncremental (sharded port loads, cached headroom, pacer-config\n"
      "deltas) and kFullRescan (rebuild-everything reference) modes.\n"
      "Identical op sequences; decisions and configs must checksum-match.");
  if (fig15)
    std::printf("mix: fig15 (mean 16 VMs, Table 3 bandwidths, ~half-full "
                "prefill; rejects and split pruning must occur)\n\n");

  TextTable table({"scale", "servers", "tenants", "inc ops/s", "full ops/s",
                   "speedup", "rejects", "inc probes/rej", "full probes/rej",
                   "golden"});
  TextTable rtable({"scale", "recoveries", "mean ms", "max ms", "replayed",
                    "ae rounds", "golden"});
  bench::JsonObject json;
  json.put("bench", bench_name)
      .put("ops", ops)
      .put("seed", static_cast<std::int64_t>(seed))
      .put("restart_every", restart_every)
      .put("mix", mix);
  bool all_golden = true;
  const ScaleSpec* last = nullptr;

  for (const auto& spec : kScales) {
    if (scales.find(spec.name) == std::string::npos) continue;
    last = &spec;
    topology::TopologyConfig tcfg;
    tcfg.pods = spec.pods;
    tcfg.racks_per_pod = spec.racks_per_pod;
    tcfg.servers_per_rack = spec.servers_per_rack;
    tcfg.vm_slots_per_server = 8;
    // Steady-state live set scaled to the fleet; ~an eighth-full DC keeps
    // the full-rescan prefill tractable while leaving admission headroom.
    // The fig15 mix (mean 16 VMs on 8-slot servers) aims at half full.
    const std::int64_t default_tenants =
        fig15 ? spec.servers() / 4
              : std::max<std::int64_t>(64, spec.servers() / 16);
    const std::int64_t prefill = flags.geti("tenants", default_tenants);

    const auto inc = run_storm(tcfg, placement::AdmissionMode::kIncremental,
                               prefill, ops, seed, sample);
    const auto full = run_storm(tcfg, placement::AdmissionMode::kFullRescan,
                                prefill, ops, seed, sample);

    // The fig15 mix exists to cover rejects and split pruning; a run that
    // exercised neither checked nothing it was asked to.
    const bool covered =
        !fig15 || (inc.work.place_rejects > 0 && inc.work.scopes_pruned > 0);
    if (!covered)
      std::printf("%s: fig15 mix made %lld rejects, %lld pruned scopes\n",
                  spec.name, static_cast<long long>(inc.work.place_rejects),
                  static_cast<long long>(inc.work.scopes_pruned));
    const bool golden = covered && inc.deltas_match_snapshots &&
                        inc.decision_checksum == full.decision_checksum &&
                        inc.config_checksum == full.config_checksum;
    all_golden = all_golden && golden;
    const double inc_rate = static_cast<double>(inc.ops) / inc.storm_seconds;
    const double full_rate =
        static_cast<double>(full.ops) / full.storm_seconds;
    const double speedup = full.storm_seconds / inc.storm_seconds;

    table.add_row({spec.name, std::to_string(spec.servers()),
                   std::to_string(prefill), TextTable::fmt(inc_rate, 0),
                   TextTable::fmt(full_rate, 0), TextTable::fmt(speedup, 1),
                   std::to_string(inc.work.place_rejects),
                   TextTable::fmt(bench::ports_probed_per_reject(inc.work), 0),
                   TextTable::fmt(bench::ports_probed_per_reject(full.work), 0),
                   golden ? "ok" : "MISMATCH"});

    bench::JsonObject entry;
    entry.put("servers", spec.servers())
        .put("tenants", prefill)
        .put("inc_ops_per_sec", inc_rate)
        .put("full_ops_per_sec", full_rate)
        .put("speedup", speedup)
        .put("inc_storm_seconds", inc.storm_seconds)
        .put("full_storm_seconds", full.storm_seconds)
        .put("admits", inc.admits)
        .put("releases", inc.releases)
        .put("fail_restore_pairs", inc.fails)
        .put("diff_deltas", inc.deltas)
        .put("diff_upserts", inc.upserts)
        .put("diff_removes", inc.removes)
        .put("inc_placement_work", bench::placement_work_json(inc.work))
        .put("full_placement_work", bench::placement_work_json(full.work))
        .put("golden_ok", std::string(golden ? "true" : "false"));

    if (restart_every > 0) {
      const auto rr = run_restart_storm(tcfg, prefill, ops, seed,
                                        restart_every, snapshot_every, sample);
      const bool golden_restart =
          rr.converged_ok && rr.fleet_matches_snapshots &&
          rr.decision_checksum == inc.decision_checksum &&
          rr.config_checksum == inc.config_checksum;
      all_golden = all_golden && golden_restart;
      const double mean_ms =
          rr.recoveries > 0
              ? rr.recovery_seconds_total * 1e3 /
                    static_cast<double>(rr.recoveries)
              : 0;
      rtable.add_row({spec.name, std::to_string(rr.recoveries),
                      TextTable::fmt(mean_ms, 2),
                      TextTable::fmt(rr.recovery_seconds_max * 1e3, 2),
                      std::to_string(rr.replayed_records),
                      std::to_string(rr.ae_rounds),
                      golden_restart ? "ok" : "MISMATCH"});
      entry.put("recoveries", rr.recoveries)
          .put("recovery_ms_mean", mean_ms)
          .put("recovery_ms_max", rr.recovery_seconds_max * 1e3)
          .put("replayed_records", rr.replayed_records)
          .put("journal_snapshots", rr.journal_snapshots)
          .put("anti_entropy_rounds", rr.ae_rounds)
          .put("golden_restart",
               std::string(golden_restart ? "true" : "false"));
    }
    json.put(spec.name, entry);
  }

  std::printf("%s\n", table.to_string().c_str());
  if (restart_every > 0) {
    std::printf("controller crash + journal recovery every %lld ops:\n%s\n",
                static_cast<long long>(restart_every),
                rtable.to_string().c_str());
  }
  std::printf("golden: placement decisions, sampled server_config\n"
              "checksums, and delta-applied pacer tables %s across modes.\n",
              all_golden ? "all agree" : "DISAGREE — investigate");

  if (flags.has("json")) {
    json.put("all_golden", std::string(all_golden ? "true" : "false"));
    bench::write_json_file(
        fig15 ? "BENCH_churn_fig15.json" : "BENCH_churn.json", json);
  }

  if (last != nullptr) {
    obs::RunManifest m;
    m.bench = bench_name;
    m.seed = static_cast<std::int64_t>(seed);
    m.topology = {{"pods", last->pods},
                  {"racks_per_pod", last->racks_per_pod},
                  {"servers_per_rack", last->servers_per_rack},
                  {"vm_slots_per_server", 8}};
    m.params = {{"ops", std::to_string(ops)},
                {"scales", scales},
                {"restart_every", std::to_string(restart_every)},
                {"mix", mix}};
    bench::maybe_write_manifest(flags, m);
  }
  return all_golden ? 0 : 1;
}
