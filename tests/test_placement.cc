#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "placement/placement.h"
#include "util/rng.h"

namespace silo::placement {
namespace {

topology::TopologyConfig small_topo() {
  topology::TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 4;
  cfg.vm_slots_per_server = 4;
  cfg.server_link_rate = 10 * kGbps;
  cfg.oversubscription = 2.0;
  cfg.port_buffer = 312 * kKB;
  return cfg;
}

TenantRequest class_a(int vms, RateBps bw = 500 * kMbps) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, 15 * kKB, 2 * kMsec, std::max(bw, 1 * kGbps)};
  r.tenant_class = TenantClass::kDelaySensitive;
  return r;
}

TenantRequest class_b(int vms, RateBps bw = 1 * kGbps) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, Bytes{1500}, TimeNs{0}, bw};
  r.tenant_class = TenantClass::kBandwidthOnly;
  return r;
}

TEST(Placement, SingleVmAlwaysFitsAnywhere) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const auto a = eng.place(class_a(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->vm_to_server.size(), 1u);
  EXPECT_EQ(eng.free_slots(), topo.total_vm_slots() - 1);
}

TEST(Placement, PrefersSmallestScope) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // 4 VMs fit on one server: all on the same server, no fabric use.
  const auto a = eng.place(class_a(4));
  ASSERT_TRUE(a.has_value());
  for (int s : a->vm_to_server) EXPECT_EQ(s, a->vm_to_server[0]);
  // Next 4 land on the next server.
  const auto b = eng.place(class_a(4));
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(b->vm_to_server[0], a->vm_to_server[0]);
}

TEST(Placement, SpansRackWhenServerFull) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const auto a = eng.place(class_a(6));
  ASSERT_TRUE(a.has_value());
  // All six stay within one rack.
  const int rack = topo.rack_of_server(a->vm_to_server[0]);
  for (int s : a->vm_to_server) EXPECT_EQ(topo.rack_of_server(s), rack);
}

TEST(Placement, DelayGuaranteeRestrictsScope) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // Rack-scope path capacity (two server-level ports at 312KB/10G each)
  // is ~499 us; a 600 us guarantee forces single-rack placement and a
  // tenant larger than a rack must be rejected.
  const TimeNs rack_cap = eng.scope_path_capacity(Scope::kRack);
  const TimeNs pod_cap = eng.scope_path_capacity(Scope::kPod);
  ASSERT_LT(rack_cap, pod_cap);

  TenantRequest tight = class_a(17);  // rack holds 16
  tight.guarantee.delay = rack_cap + TimeNs{1000};
  EXPECT_FALSE(eng.place(tight).has_value());

  TenantRequest fits = class_a(16);
  fits.guarantee.delay = rack_cap + TimeNs{1000};
  fits.guarantee.bandwidth = 100 * kMbps;
  const auto got = eng.place(fits);
  ASSERT_TRUE(got.has_value());
  const int rack = topo.rack_of_server(got->vm_to_server[0]);
  for (int s : got->vm_to_server) EXPECT_EQ(topo.rack_of_server(s), rack);
}

TEST(Placement, RejectsWhenNoSlots) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kLocality);
  ASSERT_TRUE(eng.place(class_b(60)).has_value());
  EXPECT_FALSE(eng.place(class_b(10)).has_value());
  EXPECT_TRUE(eng.place(class_b(4)).has_value());
}

TEST(Placement, RemoveRestoresCapacity) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const int before = eng.free_slots();
  const auto a = eng.place(class_a(8));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(eng.free_slots(), before - 8);
  eng.remove(a->id);
  EXPECT_EQ(eng.free_slots(), before);
  EXPECT_EQ(eng.admitted_tenants(), 0);
  // Port reservations fully released.
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_DOUBLE_EQ(eng.port_reservation(topology::PortId{p}), 0.0);
}

TEST(Placement, BandwidthAdmissionControl) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kOktopus);
  // Each tenant of 8 VMs spread over 2 servers with 5 Gbps hose would
  // oversubscribe access links quickly; admission must stop before that.
  int admitted = 0;
  for (int i = 0; i < 16; ++i)
    if (eng.place(class_b(8, 5 * kGbps))) ++admitted;
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 16);
  // No port is reserved beyond its capacity.
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_LE(eng.port_reservation(topology::PortId{p}), 1.0 + 1e-6);
}

TEST(Placement, LocalityIgnoresBandwidth) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kLocality);
  int admitted = 0;
  for (int i = 0; i < 8; ++i)
    if (eng.place(class_b(8, 5 * kGbps))) ++admitted;
  EXPECT_EQ(admitted, 8);  // 64 VMs = full datacenter, all accepted
}

TEST(Placement, SiloQueueBoundsWithinCapacity) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  for (int i = 0; i < 12; ++i) eng.place(class_a(6));
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    const TimeNs bound = eng.port_queue_bound(id);
    ASSERT_GE(bound, TimeNs{0}) << "unbounded queue at port " << p;
    EXPECT_LE(bound, topo.port(id).queue_capacity) << "port " << p;
  }
}

TEST(Placement, SiloAdmitsFewerThanOktopus) {
  // Burst + delay constraints can only reduce admissions vs bandwidth-only.
  auto run = [&](Policy pol) {
    topology::Topology topo(small_topo());
    PlacementEngine eng(topo, pol);
    int admitted = 0;
    for (int i = 0; i < 20; ++i)
      if (eng.place(class_a(6, 2 * kGbps))) ++admitted;
    return admitted;
  };
  EXPECT_LE(run(Policy::kSilo), run(Policy::kOktopus));
  EXPECT_LE(run(Policy::kOktopus), run(Policy::kLocality));
}

TEST(Placement, BestEffortTenantsReserveNothing) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  TenantRequest be;
  be.num_vms = 8;
  be.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  be.tenant_class = TenantClass::kBestEffort;
  ASSERT_TRUE(eng.place(be).has_value());
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_DOUBLE_EQ(eng.port_reservation(topology::PortId{p}), 0.0);
}

TEST(Placement, MalformedGuaranteeRejected) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  TenantRequest bad = class_a(2);
  bad.guarantee.burst_rate = bad.guarantee.bandwidth / 2;  // Bmax < B
  EXPECT_FALSE(eng.place(bad).has_value());
  EXPECT_FALSE(eng.place(TenantRequest{}).has_value());
}

TEST(Placement, Fig5NineVmScenario) {
  // Paper Fig. 5: 3 servers, 10 Gbps switch; tenant wants 9 VMs with
  // 1 Gbps, 100 KB burst, 1 ms delay, bursting at up to 10 Gbps.
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 1;
  cfg.servers_per_rack = 3;
  cfg.vm_slots_per_server = 3;
  cfg.server_link_rate = 10 * kGbps;
  cfg.oversubscription = 1.0;
  // The paper's arithmetic (600 KB burst at 20 Gbps -> 300 KB backlog)
  // ignores token refill during the burst drain; the rigorous dual-token-
  // bucket bound is 600KB/(1 - 3G/20G) ~= 706 KB of burst-phase bytes,
  // needing ~354 KB of buffering. 400 KB ports therefore admit.
  cfg.port_buffer = 400 * kKB;
  topology::Topology topo(cfg);
  PlacementEngine eng(topo, Policy::kSilo);

  TenantRequest req;
  req.num_vms = 9;
  req.guarantee = {1 * kGbps, 100 * kKB, 1 * kMsec, 10 * kGbps};
  req.tenant_class = TenantClass::kDelaySensitive;
  const auto got = eng.place(req);
  ASSERT_TRUE(got.has_value());
  // Silo spreads 3/3/3, and every switch port's queue bound stays within
  // its capacity, so worst-case bursts cannot overflow buffers.
  std::vector<int> per_server(3, 0);
  for (int s : got->vm_to_server) ++per_server[static_cast<std::size_t>(s)];
  for (int c : per_server) EXPECT_EQ(c, 3);
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    EXPECT_LE(eng.port_queue_bound(id), topo.port(id).queue_capacity);
  }

  // With the paper's 300 KB buffers the rigorous bound does not fit:
  // admission control must reject rather than risk buffer overflow.
  cfg.port_buffer = 300 * kKB;
  topology::Topology topo_small(cfg);
  PlacementEngine eng_small(topo_small, Policy::kSilo);
  EXPECT_FALSE(eng_small.place(req).has_value());
}


TEST(Placement, FaultDomainsForceSpreading) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // 4 VMs fit on one server, but 2 fault domains force at least two.
  auto req = class_a(4);
  req.min_fault_domains = 2;
  const auto got = eng.place(req);
  ASSERT_TRUE(got.has_value());
  std::set<int> servers(got->vm_to_server.begin(), got->vm_to_server.end());
  EXPECT_GE(servers.size(), 2u);
  // Three domains for 9 VMs: no server may hold more than ceil(9/3) = 3.
  auto req3 = class_a(9);
  req3.min_fault_domains = 3;
  const auto got3 = eng.place(req3);
  ASSERT_TRUE(got3.has_value());
  std::map<int, int> counts;
  for (int s : got3->vm_to_server) ++counts[s];
  EXPECT_GE(counts.size(), 3u);
  for (const auto& [s, c] : counts) EXPECT_LE(c, 3);
}

// A 1-VM tenant that asks for fault domains skips server scope and lands
// at rack scope holding all n = 1 of its VMs on one server: the one case
// where static split pruning must keep the m = n split alive.
TEST(Placement, OneVmWithFaultDomainsPlacesAtRackScope) {
  topology::Topology topo(small_topo());
  for (const auto mode : {AdmissionMode::kIncremental,
                          AdmissionMode::kFullRescan}) {
    PlacementEngine eng(topo, Policy::kSilo, 50 * kUsec, true, mode);
    auto req = class_a(1);
    req.min_fault_domains = 2;
    const auto got = eng.place(req);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->vm_to_server, std::vector<int>{0});
    EXPECT_EQ(eng.work().scopes_pruned, 0);
  }
}

TEST(Placement, HoseTighteningAdmitsMore) {
  // Ablation (DESIGN.md #1): the naive m*B aggregate admits no more than
  // the hose-tightened min(m, N-m)*B bound.
  auto run = [&](bool tighten) {
    topology::Topology topo(small_topo());
    PlacementEngine eng(topo, Policy::kSilo, 50 * kUsec, tighten);
    int admitted = 0;
    for (int i = 0; i < 20; ++i)
      if (eng.place(class_a(8, 2 * kGbps))) ++admitted;
    return admitted;
  };
  const int with = run(true);
  const int without = run(false);
  EXPECT_GE(with, without);
  EXPECT_GT(with, 0);
}
// Property sweep: for any tenant size, if Silo admits, all port queue
// bounds stay within capacity.
class PlacementInvariant : public ::testing::TestWithParam<int> {};

TEST_P(PlacementInvariant, QueueBoundsHold) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  int admitted = 0;
  while (eng.place(class_a(GetParam(), 800 * kMbps))) ++admitted;
  EXPECT_GT(admitted, 0);
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    const TimeNs bound = eng.port_queue_bound(id);
    ASSERT_GE(bound, TimeNs{0});
    EXPECT_LE(bound, topo.port(id).queue_capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(TenantSizes, PlacementInvariant,
                         ::testing::Values(2, 3, 5, 8, 12, 16));

// The tentpole correctness bar: a seeded admit/release/fail/restore storm
// must produce bit-identical decisions and derived state in incremental
// (sharded, cached) and full-rescan (reference rebuild) modes.
TEST(Placement, IncrementalModeMatchesFullRescanUnderChurn) {
  topology::Topology topo(small_topo());
  PlacementEngine inc(topo, Policy::kSilo, 50 * kUsec, true,
                      AdmissionMode::kIncremental);
  PlacementEngine full(topo, Policy::kSilo, 50 * kUsec, true,
                       AdmissionMode::kFullRescan);
  ASSERT_EQ(inc.admission_mode(), AdmissionMode::kIncremental);
  ASSERT_EQ(full.admission_mode(), AdmissionMode::kFullRescan);

  Rng rng(7);
  std::vector<TenantId> live_inc, live_full;
  const auto check_state = [&] {
    ASSERT_EQ(inc.free_slots(), full.free_slots());
    ASSERT_EQ(inc.admitted_tenants(), full.admitted_tenants());
    ASSERT_DOUBLE_EQ(inc.max_port_reservation(), full.max_port_reservation());
    ASSERT_DOUBLE_EQ(inc.max_queue_headroom_used(),
                     full.max_queue_headroom_used());
    for (int p = 0; p < topo.num_ports(); ++p) {
      const auto id = topology::PortId{p};
      ASSERT_DOUBLE_EQ(inc.port_reservation(id), full.port_reservation(id));
      ASSERT_EQ(inc.port_queue_bound(id), full.port_queue_bound(id));
    }
    for (int s = 0; s < topo.num_servers(); ++s)
      ASSERT_EQ(inc.tenants_on_server(s), full.tenants_on_server(s));
  };

  for (int step = 0; step < 200; ++step) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 5) {  // admit
      const int vms = 2 + static_cast<int>(rng.uniform_int(0, 6));
      const auto req = (rng.uniform_int(0, 1) != 0)
                           ? class_a(vms, 300 * kMbps)
                           : class_b(vms, 500 * kMbps);
      const auto a = inc.place(req);
      const auto b = full.place(req);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->vm_to_server, b->vm_to_server) << "step " << step;
        ASSERT_EQ(a->id, b->id);
        live_inc.push_back(a->id);
        live_full.push_back(b->id);
      }
    } else if (roll < 8 && !live_inc.empty()) {  // release
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_inc.size()) - 1));
      inc.remove(live_inc[i]);
      full.remove(live_full[i]);
      live_inc.erase(live_inc.begin() + static_cast<std::ptrdiff_t>(i));
      live_full.erase(live_full.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll == 8) {  // server fail + restore
      const int s = static_cast<int>(
          rng.uniform_int(0, topo.num_servers() - 1));
      if (!inc.server_failed(s)) {
        inc.fail_server(s);
        full.fail_server(s);
        check_state();
        inc.restore_server(s);
        full.restore_server(s);
      }
    } else {  // link fail + restore
      const auto p = topology::PortId{
          static_cast<int>(rng.uniform_int(0, topo.num_ports() - 1))};
      if (!inc.port_failed(p)) {
        inc.fail_port(p);
        full.fail_port(p);
        const auto req = class_a(4, 200 * kMbps);
        const auto a = inc.place(req);
        const auto b = full.place(req);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_EQ(a->vm_to_server, b->vm_to_server);
          inc.remove(a->id);
          full.remove(b->id);
        }
        inc.restore_port(p);
        full.restore_port(p);
      }
    }
    check_state();
  }
}

std::string describe(const PortContribution& c) {
  std::ostringstream out;
  out.precision(17);
  out << "{r " << c.rate_bps << " s " << c.burst_bytes << " br "
      << c.burst_rate_bps << " j " << c.jump_bytes << "}";
  return out.str();
}

// Static split pruning rests on one premise: load only tightens a port's
// admission test, so a refusal refusal_is_final() vouches for survives any
// added load. Every PortLoad is a sum of contributions whose burst rate is
// at least their sustained rate (cut_contribution's shape), so the draws
// keep that invariant and are otherwise free, with the edges of
// queue_bound drawn on purpose: s <= j, burst rate within 1e-15 B/ns of
// the rate, a sustained rate within 1e-9 of line rate, and the knee
// (brb > c > rb). Without the refusal_is_final() filter this finds
// counterexamples just above line rate, where queue_bound's knee formula
// shrinks as burst rate is added.
TEST(PortLoadProperty, AddedLoadNeverTurnsRefusalIntoAdmit) {
  const RateBps line = 10 * kGbps;
  Rng rng(13);
  const auto draw = [&]() -> PortContribution {
    PortContribution c;
    switch (rng.uniform_int(0, 3)) {
      case 0: c.rate_bps = 0; break;
      case 1: c.rate_bps = rng.uniform(0, 1.2) * line.bps(); break;
      case 2:  // within 1e-9 of line rate, on either side
        c.rate_bps = line.bps() * (1.0 + rng.uniform(-2e-9, 2e-9));
        break;
      default: c.rate_bps = rng.uniform(0, 0.3) * line.bps(); break;
    }
    switch (rng.uniform_int(0, 2)) {
      case 0: c.burst_rate_bps = c.rate_bps; break;
      case 1:  // brb - rb around the 1e-15 B/ns single-bucket cut-off
        c.burst_rate_bps = c.rate_bps + rng.uniform(0, 2) * 8e-6;
        break;
      default:  // knee territory once the sum passes line rate
        c.burst_rate_bps = c.rate_bps + rng.uniform(0, 3) * line.bps();
        break;
    }
    c.jump_bytes = rng.uniform_int(0, 1) != 0 ? static_cast<double>(kMtu)
                                               : rng.uniform(0, 20e3);
    switch (rng.uniform_int(0, 2)) {
      case 0: c.burst_bytes = c.jump_bytes * rng.uniform(0, 1); break;  // s <= j
      case 1: c.burst_bytes = c.jump_bytes; break;
      default: c.burst_bytes = c.jump_bytes + rng.uniform(0, 400e3); break;
    }
    return c;
  };
  const auto load_of = [&](int parts) {
    PortLoad load;
    for (int i = 0; i < parts; ++i) load.add(draw());
    return load;
  };

  std::int64_t refusals = 0, queue_refusals = 0;
  for (int i = 0; i < 200000; ++i) {
    const PortLoad base = load_of(static_cast<int>(rng.uniform_int(0, 2)));
    const PortContribution c = draw();
    PortLoad loaded = base;
    std::vector<PortContribution> extra(
        static_cast<std::size_t>(rng.uniform_int(1, 2)));
    for (auto& e : extra) loaded.add(e = draw());
    const TimeNs capacity{rng.uniform_int(1, 400) * 1000};
    for (const bool rate_only : {false, true}) {
      if (base.admits(c, line, capacity, rate_only) ||
          !base.refusal_is_final(c, line))
        continue;
      ++refusals;
      if (!rate_only && base.rate_bps() + c.rate_bps <=
                            line.bps() * (1.0 + PortLoad::kRateEps))
        ++queue_refusals;
      ASSERT_FALSE(loaded.admits(c, line, capacity, rate_only))
          << "draw " << i << " rate_only " << rate_only << " capacity "
          << capacity << " base rate " << base.rate_bps() << " burst "
          << base.burst_bytes() << " c " << describe(c) << " extra "
          << describe(extra[0])
          << (extra.size() > 1 ? " + " + describe(extra[1]) : "");
    }
  }
  // Both refusal kinds were exercised, not just the rate test.
  EXPECT_GT(queue_refusals, 10000);
  EXPECT_GT(refusals, queue_refusals);
}

// --- Static split pruning vs the exhaustive kFullRescan search ----------

std::uint64_t soak_seed_base() {
  const char* env = std::getenv("SOAK_SEED_BASE");
  if (env && *env) return std::strtoull(env, nullptr, 10);
  return 20260805ull;  // fixed default: the tier-1 run stays deterministic
}

/// 64 servers x 8 slots at the paper's 1:5 oversubscription and 312 KB
/// ToR buffers: a class-A tenant's downlink cut overflows an idle port
/// once about 21 VMs sit behind it, so big tenants exercise the prune.
topology::TopologyConfig soak_topo() {
  topology::TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 4;
  cfg.servers_per_rack = 8;
  cfg.vm_slots_per_server = 8;
  return cfg;
}

/// The Fig 15 tenant mix: geometric sizes (mean 16, 2..128 VMs), half
/// class-A (15 KB bursts, 1 ms delay), class-B at 0.1-5 Gbps; one request
/// in eight asks for 2-4 fault domains.
TenantRequest fig15_request(Rng& rng) {
  TenantRequest req;
  int n = 2;
  while (rng.uniform() > 1.0 / 15.0 && n < 128) ++n;
  req.num_vms = n;
  const auto bw = [&](double mean) {
    return RateBps{std::clamp(rng.exponential(mean), 0.1e9, 5e9)};
  };
  if (rng.uniform() < 0.5) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {bw(0.25e9), 15 * kKB, 1 * kMsec, 1 * kGbps};
    req.guarantee.burst_rate =
        std::max(req.guarantee.burst_rate, req.guarantee.bandwidth);
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {bw(2e9), Bytes{1500}, TimeNs{0}, RateBps{0}};
  }
  if (rng.uniform_int(0, 7) == 0)
    req.min_fault_domains = static_cast<int>(rng.uniform_int(2, 4));
  return req;
}

/// Slots, indexes, decisions and every tenant's admitted per-port
/// contributions must match exactly. The per-port sums may not:
/// kIncremental subtracts a released tenant's contribution and keeps
/// rounding dust that kFullRescan's re-summation does not, so with random
/// bandwidths reservations agree to 1e-9 rather than bit for bit (and
/// port_queue_bound, whose exact curve analysis is sensitive to that dust,
/// is not compared).
void expect_same_state(const PlacementEngine& inc, const PlacementEngine& full,
                       int step) {
  const auto& topo = inc.topo();
  ASSERT_EQ(inc.free_slots(), full.free_slots()) << "step " << step;
  ASSERT_EQ(inc.admitted_tenants(), full.admitted_tenants()) << "step " << step;
  ASSERT_NEAR(inc.max_port_reservation(), full.max_port_reservation(), 1e-9);
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    ASSERT_NEAR(inc.port_reservation(id), full.port_reservation(id), 1e-9)
        << "step " << step << " port " << p;
    ASSERT_EQ(inc.tenants_using_port(id), full.tenants_using_port(id));
  }
  for (int s = 0; s < topo.num_servers(); ++s)
    ASSERT_EQ(inc.tenants_on_server(s), full.tenants_on_server(s));
  const auto a = inc.snapshot(), b = full.snapshot();
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const auto &x = a.tenants[t], &y = b.tenants[t];
    ASSERT_EQ(x.id, y.id);
    ASSERT_EQ(x.vm_to_server, y.vm_to_server);
    ASSERT_EQ(x.contributions.size(), y.contributions.size());
    for (std::size_t k = 0; k < x.contributions.size(); ++k) {
      const auto &[px, cx] = x.contributions[k];
      const auto &[py, cy] = y.contributions[k];
      ASSERT_EQ(px, py) << "step " << step << " tenant " << x.id;
      ASSERT_EQ(cx.rate_bps, cy.rate_bps);
      ASSERT_EQ(cx.burst_bytes, cy.burst_bytes);
      ASSERT_EQ(cx.burst_rate_bps, cy.burst_rate_bps);
      ASSERT_EQ(cx.jump_bytes, cy.jump_bytes);
    }
  }
  ASSERT_EQ(a.failed_servers.size(), b.failed_servers.size());
  ASSERT_EQ(a.failed_ports, b.failed_ports);
}

/// One seeded storm against both engines: closed-loop admits below 85%
/// occupancy and releases above it, with one op in ten a server or port
/// failure that a fresh request is placed around before the restore.
/// Decisions and per-port state must stay identical throughout.
void prune_storm(PlacementEngine& inc, PlacementEngine& full,
                 std::uint64_t seed, int ops) {
  const auto& topo = inc.topo();
  Rng rng(seed);
  std::vector<TenantId> live;  // ids agree across engines
  const auto place_both = [&](const TenantRequest& req, int step) {
    const auto a = inc.place(req);
    const auto b = full.place(req);
    EXPECT_EQ(a.has_value(), b.has_value())
        << "seed " << seed << " step " << step << " n " << req.num_vms;
    if (!a || !b) return std::optional<TenantId>{};
    EXPECT_EQ(a->id, b->id) << "seed " << seed << " step " << step;
    EXPECT_EQ(a->vm_to_server, b->vm_to_server)
        << "seed " << seed << " step " << step;
    return std::optional<TenantId>{a->id};
  };
  for (int step = 0; step < ops; ++step) {
    const double used =
        1.0 - static_cast<double>(inc.free_slots()) / topo.total_vm_slots();
    if (rng.uniform_int(0, 9) == 0) {
      const bool server = rng.uniform_int(0, 1) == 0;
      const int s = static_cast<int>(rng.uniform_int(0, topo.num_servers() - 1));
      const auto p = topology::PortId{
          static_cast<int>(rng.uniform_int(0, topo.num_ports() - 1))};
      if (server ? inc.server_failed(s) : inc.port_failed(p)) continue;
      if (server) {
        inc.fail_server(s);
        full.fail_server(s);
      } else {
        inc.fail_port(p);
        full.fail_port(p);
      }
      if (const auto id = place_both(fig15_request(rng), step)) live.push_back(*id);
      if (server) {
        inc.restore_server(s);
        full.restore_server(s);
      } else {
        inc.restore_port(p);
        full.restore_port(p);
      }
    } else if (used < 0.85 || live.empty()) {
      if (const auto id = place_both(fig15_request(rng), step)) live.push_back(*id);
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      inc.remove(live[i]);
      full.remove(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    ASSERT_NO_FATAL_FAILURE(expect_same_state(inc, full, step))
        << "seed " << seed;
  }
}

// The prune fires on exactly the traffic that made rejects slow: big
// class-A tenants whose cut overflows even an idle ToR buffer. Silo (with
// and without hose tightening) and Oktopus must decide bit-identically to
// the unpruned kFullRescan search, and the prune must have fired.
TEST(PlacementSoak, StaticPruneMatchesExhaustive) {
  const topology::Topology topo(soak_topo());
  struct Config {
    Policy policy;
    bool hose_tightening;
  };
  for (const Config cfg : {Config{Policy::kSilo, true},
                           Config{Policy::kSilo, false},
                           Config{Policy::kOktopus, true}}) {
    const std::uint64_t base = soak_seed_base();
    for (std::uint64_t seed = base; seed < base + 2; ++seed) {
      PlacementEngine inc(topo, cfg.policy, 50 * kUsec, cfg.hose_tightening,
                          AdmissionMode::kIncremental);
      PlacementEngine full(topo, cfg.policy, 50 * kUsec, cfg.hose_tightening,
                           AdmissionMode::kFullRescan);
      ASSERT_NO_FATAL_FAILURE(prune_storm(inc, full, seed, 400));
      EXPECT_EQ(inc.work().place_rejects, full.work().place_rejects);
      EXPECT_GT(inc.work().place_rejects, 0) << "seed " << seed;
      EXPECT_EQ(full.work().scopes_pruned, 0);
      // Oktopus reserves at most line rate per cut, so an idle port never
      // refuses and the prune never fires; Silo's queue bound does.
      if (cfg.policy == Policy::kSilo) {
        EXPECT_GT(inc.work().scopes_pruned, 0)
            << "seed " << seed << " hose " << cfg.hose_tightening;
        EXPECT_LT(inc.work().ports_probed(), full.work().ports_probed());
      }
    }
  }
}

// Work golden: the fixed-seed storm's placement work, pinned exactly. The
// counters are deterministic, so a change that brings back the exhaustive
// reject walk (or any other extra probing) fails here on any machine.
TEST(PlacementWork, FixedStormCountsArePinned) {
  const topology::Topology topo(soak_topo());
  PlacementEngine inc(topo, Policy::kSilo);
  PlacementEngine full(topo, Policy::kSilo, 50 * kUsec, true,
                       AdmissionMode::kFullRescan);
  ASSERT_NO_FATAL_FAILURE(prune_storm(inc, full, 20260805ull, 400));
  const PlacementWork& w = inc.work();
  EXPECT_EQ(w.place_admits, 186);
  EXPECT_EQ(w.place_rejects, 67);
  EXPECT_EQ(w.candidates, 399);
  EXPECT_EQ(w.admit_ports_probed, 2346);
  EXPECT_EQ(w.reject_ports_probed, 3046);
  EXPECT_EQ(w.scopes_pruned, 73);
  EXPECT_EQ(w.idle_ports_probed, 4104);
  // The exhaustive reference makes the same calls, probes no idle ports,
  // and walks every scope of a doomed request.
  EXPECT_EQ(full.work().place_rejects, w.place_rejects);
  EXPECT_EQ(full.work().idle_ports_probed, 0);
  EXPECT_EQ(full.work().admit_ports_probed, 2503);
  EXPECT_EQ(full.work().reject_ports_probed, 15790);
}

}  // namespace
}  // namespace silo::placement
