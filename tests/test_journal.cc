// DeltaJournal durability tests: chained-checksum integrity, the
// serialize/deserialize codec, write-ahead ordering, compaction, and the
// headline property — a controller crashed at an arbitrary point and
// rebuilt from its journal is bit-identical to one that never crashed
// (placement decisions, shipped pacer configs, metric counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/journal.h"
#include "util/rng.h"

namespace silo {
namespace {

topology::TopologyConfig small_dc() {
  topology::TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 4;
  cfg.vm_slots_per_server = 4;
  return cfg;
}

TenantRequest sample_request(Rng& rng) {
  TenantRequest req;
  req.num_vms = 2 + static_cast<int>(rng.uniform_int(0, 4));
  if (rng.uniform() < 0.5) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {300 * kMbps, 15 * kKB, 1300 * kUsec, 1 * kGbps};
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  }
  return req;
}

TEST(Journal, WriteAheadAppendEveryOpAndVerify) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(3);

  const auto h1 = ctl.admit(sample_request(rng));
  const auto h2 = ctl.admit(sample_request(rng));
  ASSERT_TRUE(h1 && h2);
  ctl.release(*h1);
  ctl.handle_server_failure(h2->vm_to_server.front());
  ctl.restore_server(h2->vm_to_server.front());

  // One record per mutation, in op order, chain intact.
  EXPECT_EQ(journal.total_appends(), 5);
  EXPECT_EQ(journal.records().size(), 5u);
  EXPECT_TRUE(journal.verify());
  EXPECT_EQ(journal.records()[0].op, JournalOp::kAdmit);
  EXPECT_EQ(journal.records()[2].op, JournalOp::kRelease);
  EXPECT_EQ(journal.records()[3].op, JournalOp::kServerFailure);
  EXPECT_EQ(journal.records()[4].op, JournalOp::kServerRestore);
  EXPECT_EQ(journal.metrics().value("controller.journal.appends"), 5);

  // Rejected admissions are journaled too (write-ahead: the record lands
  // before the outcome is known), so replay reproduces rejection counters.
  TenantRequest impossible;
  impossible.num_vms = 10000;
  impossible.guarantee = {1 * kGbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  EXPECT_FALSE(ctl.admit(impossible).has_value());
  EXPECT_EQ(journal.total_appends(), 6);
  EXPECT_TRUE(journal.verify());
}

TEST(Journal, SerializeRoundtripPreservesChainAndDetectsTampering) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(11);
  for (int i = 0; i < 6; ++i) ctl.admit(sample_request(rng));

  const std::string blob = journal.serialize();
  DeltaJournal copy = DeltaJournal::deserialize(blob);
  EXPECT_EQ(copy.chain(), journal.chain());
  EXPECT_EQ(copy.records().size(), journal.records().size());
  EXPECT_EQ(copy.total_appends(), journal.total_appends());
  EXPECT_TRUE(copy.verify());

  // Any flipped byte in a record breaks the chained checksum.
  std::string tampered = blob;
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x40);
  EXPECT_THROW(DeltaJournal::deserialize(tampered), std::runtime_error);
  // Truncation is caught by the codec before the chain even runs.
  EXPECT_THROW(DeltaJournal::deserialize(blob.substr(0, blob.size() - 3)),
               std::runtime_error);
}

TEST(Journal, CompactionBoundsRecordsAndKeepsChainContinuity) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/4);
  Rng rng(5);
  std::vector<TenantHandle> live;
  for (int i = 0; i < 14; ++i) {
    if (i % 3 == 2 && !live.empty()) {
      ctl.release(live.back());
      live.pop_back();
    } else if (const auto h = ctl.admit(sample_request(rng))) {
      live.push_back(*h);
    }
  }
  EXPECT_TRUE(journal.has_snapshot());
  // Compaction trims the tail: at most snapshot_every - 1 loose records.
  EXPECT_LT(journal.records().size(), 4u);
  EXPECT_EQ(journal.total_appends(), 14);
  EXPECT_GE(journal.metrics().value("controller.journal.snapshots"), 3);
  EXPECT_TRUE(journal.verify());

  // The compacted journal still recovers the exact controller state.
  DeltaJournal reloaded = DeltaJournal::deserialize(journal.serialize());
  SiloController recovered(small_dc());
  recovered.recover_from_journal(reloaded);
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    EXPECT_EQ(pacer_config_checksum(recovered.server_config(s)),
              pacer_config_checksum(ctl.server_config(s)))
        << "server " << s;
  EXPECT_EQ(recovered.stats().free_slots, ctl.stats().free_slots);
}

TEST(Journal, RecoverRequiresFreshController) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(9);
  ASSERT_TRUE(ctl.admit(sample_request(rng)));

  SiloController dirty(small_dc());
  ASSERT_TRUE(dirty.admit(sample_request(rng)));
  EXPECT_THROW(dirty.recover_from_journal(journal), std::logic_error);
}

// ---------------------------------------------------------------------------
// Storm equivalence: twin controllers driven in lockstep through a seeded
// admit/release/fail/restore storm; one crashes at a seeded point and is
// rebuilt from its serialized journal. Every observable — placement
// decisions, per-server shipped configs (via drained deltas AND snapshots),
// tenant statuses, stats, metric counters — must match the twin that never
// crashed.

const char* kControllerCounters[] = {
    "controller.admissions",          "controller.rejections",
    "controller.releases",            "controller.recovery.replaced",
    "controller.recovery.degraded",   "controller.recovery.unplaced",
    "controller.recovery.promotions", "controller.diff.deltas",
    "controller.diff.upserts",        "controller.diff.removes",
};

void run_twin_storm(std::uint64_t seed, std::int64_t crash_at,
                    std::int64_t snapshot_every) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " crash_at " +
               std::to_string(crash_at) + " snapshot_every " +
               std::to_string(snapshot_every));
  const auto cfg = small_dc();
  std::optional<SiloController> a;  // crashes; journaled
  a.emplace(cfg);
  SiloController b(cfg);  // never crashes
  DeltaJournal journal;
  a->attach_journal(&journal, snapshot_every);

  // Hypervisor-side fold of each controller's drained delta stream.
  std::map<int, PacerConfigTable> fleet_a, fleet_b;
  const auto drain = [](SiloController& ctl,
                        std::map<int, PacerConfigTable>& fleet) {
    for (const auto& delta : ctl.drain_config_deltas())
      fleet[delta.server].apply(delta);
  };

  Rng rng(seed);
  std::vector<TenantHandle> live;
  const std::int64_t ops = 60;
  for (std::int64_t op = 0; op < ops; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {
      const auto req = sample_request(rng);
      const auto ha = a->admit(req);
      const auto hb = b.admit(req);
      ASSERT_EQ(ha.has_value(), hb.has_value());
      if (ha) {
        ASSERT_EQ(ha->id, hb->id);
        ASSERT_EQ(ha->vm_to_server, hb->vm_to_server);
        live.push_back(*ha);
      }
    } else if (roll < 7) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      a->release(live[i]);
      b.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int anchor = live[i].vm_to_server.front();
      if (anchor >= 0) {
        if (roll < 9) {
          a->handle_server_failure(anchor);
          b.handle_server_failure(anchor);
          a->restore_server(anchor);
          b.restore_server(anchor);
        } else {
          const auto port = a->topo().server_down(anchor);
          a->handle_link_failure(port);
          b.handle_link_failure(port);
          a->restore_link(port);
          b.restore_link(port);
        }
        // Re-placement may have moved every VM of the affected tenants;
        // refresh anchors from the (identical) twin state.
        for (auto& handle : live)
          handle.vm_to_server = b.tenant_placement(handle.id);
      }
    }
    drain(*a, fleet_a);
    drain(b, fleet_b);

    if (op == crash_at) {
      // Crash: the controller object dies; only the serialized journal
      // bytes survive. Recovery replays into a fresh controller and
      // re-emits the whole delta backlog, which the fleet folds in (a
      // deliberate full resync; anti-entropy would dedupe it online).
      journal = DeltaJournal::deserialize(journal.serialize());
      a.emplace(cfg);
      a->recover_from_journal(journal, snapshot_every);
      drain(*a, fleet_a);
      EXPECT_GE(journal.metrics().value("controller.journal.replays"), 1);
    }
  }

  // Stats and per-tenant status match.
  const auto sa = a->stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.free_slots, sb.free_slots);
  EXPECT_EQ(sa.admitted_tenants, sb.admitted_tenants);
  EXPECT_EQ(sa.degraded_tenants, sb.degraded_tenants);
  EXPECT_EQ(sa.unplaced_tenants, sb.unplaced_tenants);
  EXPECT_DOUBLE_EQ(sa.max_port_reservation, sb.max_port_reservation);
  for (const auto& handle : live) {
    EXPECT_EQ(a->tenant_status(handle.id), b.tenant_status(handle.id));
    EXPECT_EQ(a->tenant_placement(handle.id), b.tenant_placement(handle.id));
  }

  // Shipped configs match: snapshots across controllers, and each fleet's
  // delta-built tables reproduce its controller's snapshots.
  for (int s = 0; s < b.topo().num_servers(); ++s) {
    const auto snap = pacer_config_checksum(b.server_config(s));
    EXPECT_EQ(pacer_config_checksum(a->server_config(s)), snap)
        << "server " << s;
    const auto applied = [&](std::map<int, PacerConfigTable>& fleet) {
      const auto it = fleet.find(s);
      return it == fleet.end() ? pacer_config_checksum({})
                               : it->second.checksum();
    };
    EXPECT_EQ(applied(fleet_a), snap) << "server " << s;
    EXPECT_EQ(applied(fleet_b), snap) << "server " << s;
  }
  EXPECT_EQ(a->paced_servers(), b.paced_servers());

  // Metric counters replay exactly (write-ahead covers rejections too).
  for (const char* name : kControllerCounters)
    EXPECT_EQ(a->metrics().value(name), b.metrics().value(name)) << name;
}

TEST(Journal, CrashRecoveryIsBitIdenticalAcrossSeedsAndCrashPoints) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng pick(seed * 77);
    run_twin_storm(seed, pick.uniform_int(5, 50), /*snapshot_every=*/0);
    run_twin_storm(seed + 10, pick.uniform_int(5, 50),
                   /*snapshot_every=*/7);
  }
}

TEST(Journal, RecoveredControllerKeepsJournalingSeamlessly) {
  const auto cfg = small_dc();
  std::optional<SiloController> ctl;
  ctl.emplace(cfg);
  DeltaJournal journal;
  ctl->attach_journal(&journal, /*snapshot_every=*/5);
  Rng rng(21);
  for (int i = 0; i < 8; ++i) ctl->admit(sample_request(rng));

  journal = DeltaJournal::deserialize(journal.serialize());
  ctl.emplace(cfg);
  ctl->recover_from_journal(journal, /*snapshot_every=*/5);
  const auto appends_at_recovery = journal.total_appends();

  // The recovered controller journals new ops into the same journal; a
  // second crash+recover covering both generations of ops still works.
  for (int i = 0; i < 6; ++i) ctl->admit(sample_request(rng));
  EXPECT_EQ(journal.total_appends(), appends_at_recovery + 6);
  SiloController twin(cfg);
  twin.recover_from_journal(journal);
  for (int s = 0; s < twin.topo().num_servers(); ++s)
    EXPECT_EQ(pacer_config_checksum(twin.server_config(s)),
              pacer_config_checksum(ctl->server_config(s)));
}

// ---------------------------------------------------------------------------
// Snapshot hashing. Compaction folds FNV-1a of the snapshot's serialized
// bytes into the chain; the journal computes that hash while encoding,
// without building the bytes. These tests re-derive it from serialize()
// with their own FNV, so the streamed hash cannot drift from the codec.

std::uint64_t oracle_fnv(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold the 8 little-endian bytes of `v` into `h` (the chain's mix step).
std::uint64_t oracle_mix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t read_le64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto byte = static_cast<unsigned char>(bytes[at + i]);
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

// serialize() layout: magic u64, version u32, four i64 counters, the
// pre-snapshot chain u64, a has-snapshot u8, the snapshot, the record
// count u64, the records, and the chain head u64.
constexpr std::size_t kPreChainAt = 8 + 4 + 4 * 8;
constexpr std::size_t kSnapshotAt = kPreChainAt + 8 + 1;
/// Bytes after the snapshot when no record follows it.
constexpr std::size_t kEmptyTail = 8 + 8;

/// A fixed journaled history that leaves failed hardware, non-guaranteed
/// tenants and an active lease behind, so a snapshot taken after it
/// exercises every section of the codec. Returns the live tenant ids.
std::vector<placement::TenantId> fixed_history(SiloController& ctl) {
  Rng rng(17);
  std::vector<placement::TenantId> live;
  for (int i = 0; i < 24; ++i)
    if (const auto h = ctl.admit(sample_request(rng))) live.push_back(h->id);
  TenantHandle gone;
  gone.id = live[3];
  ctl.release(gone);
  live.erase(live.begin() + 3);
  ctl.handle_server_failure(0);
  ctl.handle_server_failure(5);
  ctl.restore_server(0);
  ctl.handle_link_failure(ctl.topo().server_down(9));
  // Lend between the first pair that validates (colocated, guaranteed).
  const auto lend = [&] {
    for (const auto owner : live) {
      for (const auto borrower : live) {
        const int vms = static_cast<int>(ctl.tenant_placement(borrower).size());
        for (int v = 0; v < vms && owner != borrower; ++v) {
          if (ctl.grant_lease(owner, borrower, v, 100 * kMbps, 4)) return;
        }
      }
    }
  };
  lend();
  ctl.advance_lease_epoch();
  return live;
}

TEST(JournalSnapshotHash, CompactionFoldsFnvOfSerializedSnapshotBytes) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  const auto live = fixed_history(ctl);
  ASSERT_FALSE(ctl.active_leases().empty());
  ASSERT_GT(ctl.stats().degraded_tenants + ctl.stats().unplaced_tenants, 0);

  // Two compactions: the second chains from the first's snapshot.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("compaction " + std::to_string(round));
    const std::uint64_t before = journal.chain();
    journal.compact(ctl.snapshot());
    const std::string bytes = journal.serialize();
    ASSERT_GT(bytes.size(), kSnapshotAt + kEmptyTail);
    EXPECT_EQ(read_le64(bytes, kPreChainAt), before);
    EXPECT_EQ(bytes[kSnapshotAt - 1], 1);  // has-snapshot flag
    EXPECT_EQ(read_le64(bytes, bytes.size() - kEmptyTail), 0u);  // no records
    const std::string snap =
        bytes.substr(kSnapshotAt, bytes.size() - kSnapshotAt - kEmptyTail);
    EXPECT_EQ(journal.chain(), oracle_mix64(before, oracle_fnv(snap)));
    EXPECT_EQ(read_le64(bytes, bytes.size() - 8), journal.chain());
    EXPECT_TRUE(journal.verify());

    TenantHandle h;
    h.id = live[static_cast<std::size_t>(round)];
    ctl.release(h);
    ctl.handle_server_failure(2 + round);
  }
}

TEST(JournalSnapshotHash, CompactionChainAndBytesMatchPinnedGolden) {
  // Values recorded with the byte-string snapshot hash that the streamed
  // hash replaced; any change to the chain function or to a serialized
  // byte moves them.
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  fixed_history(ctl);
  journal.compact(ctl.snapshot());
  Rng rng(29);
  for (int i = 0; i < 3; ++i) ctl.admit(sample_request(rng));
  EXPECT_EQ(journal.chain(), 0x860b610e2007ade1ull);
  EXPECT_EQ(oracle_fnv(journal.serialize()), 0x3ce26ab05fe1dd93ull);
}

std::string corruption_message(const std::string& bytes) {
  try {
    DeltaJournal::deserialize(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(JournalCodec, EveryCorruptionIsReportedByName) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/5);
  fixed_history(ctl);
  ASSERT_TRUE(journal.has_snapshot());
  ASSERT_FALSE(journal.records().empty());
  const std::string blob = journal.serialize();
  ASSERT_EQ(corruption_message(blob), "accepted");

  std::string bad = blob;
  bad[0] = static_cast<char>(bad[0] ^ 1);
  EXPECT_EQ(corruption_message(bad), "journal corrupt: bad magic");
  bad = blob;
  bad[8] = static_cast<char>(bad[8] + 1);
  EXPECT_EQ(corruption_message(bad), "journal corrupt: unknown version");
  EXPECT_EQ(corruption_message(blob + '\0'), "journal corrupt: trailing bytes");
  // The first snapshot count (engine tenants) claims more elements than
  // there are bytes left.
  bad = blob;
  bad[kSnapshotAt + 7] = static_cast<char>(0x7f);
  EXPECT_EQ(corruption_message(bad), "journal corrupt: implausible count");
  // A flipped bit in the last record's chain value.
  bad = blob;
  bad[blob.size() - 9] = static_cast<char>(bad[blob.size() - 9] ^ 0x10);
  EXPECT_EQ(corruption_message(bad),
            "journal corrupt: chain checksum mismatch");

  // Every strict prefix is rejected: fields are read whole, so a cut
  // anywhere, even inside a field, reads as truncation (or as a count
  // the remaining bytes cannot hold), never as a shorter valid journal.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const std::string what = corruption_message(blob.substr(0, cut));
    ASSERT_TRUE(what == "journal corrupt: truncated" ||
                what == "journal corrupt: implausible count")
        << "cut at " << cut << ": " << what;
  }
}

// ---------------------------------------------------------------------------
// The non-guaranteed index: stats() and restore recovery sets are read from
// per-status tenant sets kept on every status change. Through a seeded
// storm of overlapping failures, both must equal a from-scratch scan of
// tenant_status() over the live tenants.

TEST(ControllerStatusIndex, MatchesFromScratchScanThroughFailureStorm) {
  int saw_degraded = 0;
  int saw_unplaced = 0;
  int nonempty_restores = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SiloController ctl(small_dc());
    Rng rng(seed);
    std::vector<placement::TenantId> live;
    std::vector<int> failed_servers;
    std::vector<topology::PortId> failed_ports;
    struct Scan {
      std::vector<placement::TenantId> degraded, unplaced, non_guaranteed;
    };
    const auto scan = [&] {
      Scan out;
      for (const auto id : live) {
        const auto status = ctl.tenant_status(id);
        if (status == TenantStatus::kDegraded) out.degraded.push_back(id);
        if (status == TenantStatus::kUnplaced) out.unplaced.push_back(id);
        if (status != TenantStatus::kGuaranteed)
          out.non_guaranteed.push_back(id);
      }
      std::sort(out.non_guaranteed.begin(), out.non_guaranteed.end());
      return out;
    };
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto random_server = [&] {
      return static_cast<int>(rng.uniform_int(0, ctl.topo().num_servers() - 1));
    };

    for (int op = 0; op < 300; ++op) {
      const auto roll = rng.uniform_int(0, 9);
      if (roll < 4 || live.empty()) {
        if (const auto h = ctl.admit(sample_request(rng)))
          live.push_back(h->id);
      } else if (roll < 5) {
        const std::size_t i = pick(live.size());
        TenantHandle h;
        h.id = live[i];
        ctl.release(h);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (roll < 7) {
        const int server = random_server();
        if (std::find(failed_servers.begin(), failed_servers.end(), server) ==
            failed_servers.end()) {
          ctl.handle_server_failure(server);
          failed_servers.push_back(server);
        }
      } else if (roll < 8) {
        const auto port = ctl.topo().server_down(random_server());
        if (std::find(failed_ports.begin(), failed_ports.end(), port) ==
            failed_ports.end()) {
          ctl.handle_link_failure(port);
          failed_ports.push_back(port);
        }
      } else if (!failed_servers.empty() || !failed_ports.empty()) {
        const auto expected = scan().non_guaranteed;
        const std::size_t i = pick(failed_servers.size() + failed_ports.size());
        RecoveryReport report;
        if (i < failed_servers.size()) {
          report = ctl.restore_server(failed_servers[i]);
          failed_servers.erase(failed_servers.begin() +
                               static_cast<std::ptrdiff_t>(i));
        } else {
          const std::size_t j = i - failed_servers.size();
          report = ctl.restore_link(failed_ports[j]);
          failed_ports.erase(failed_ports.begin() +
                             static_cast<std::ptrdiff_t>(j));
        }
        EXPECT_EQ(report.affected, expected) << "op " << op;
        if (!expected.empty()) ++nonempty_restores;
      }
      const Scan now = scan();
      const auto stats = ctl.stats();
      ASSERT_EQ(stats.degraded_tenants, static_cast<int>(now.degraded.size()))
          << "op " << op;
      ASSERT_EQ(stats.unplaced_tenants, static_cast<int>(now.unplaced.size()))
          << "op " << op;
      if (!now.degraded.empty()) ++saw_degraded;
      if (!now.unplaced.empty()) ++saw_unplaced;
    }
  }
  // The storm must actually reach every state it claims to check.
  EXPECT_GT(saw_degraded, 0);
  EXPECT_GT(saw_unplaced, 0);
  EXPECT_GT(nonempty_restores, 0);
}

}  // namespace
}  // namespace silo
