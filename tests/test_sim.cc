#include <gtest/gtest.h>

#include <algorithm>

#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/port.h"
#include "sim/transport.h"

namespace silo::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue ev;
  std::vector<int> order;
  ev.at(TimeNs{30}, [&] { order.push_back(3); });
  ev.at(TimeNs{10}, [&] { order.push_back(1); });
  ev.at(TimeNs{20}, [&] { order.push_back(2); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ev.now(), TimeNs{30});
  EXPECT_EQ(ev.processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertion) {
  EventQueue ev;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) ev.at(TimeNs{7}, [&, i] { order.push_back(i); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ReentrantScheduling) {
  EventQueue ev;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) ev.after(TimeNs{5}, tick);
  };
  ev.after(TimeNs{0}, tick);
  ev.run_all();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(ev.now(), TimeNs{45});
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue ev;
  int fired = 0;
  ev.at(TimeNs{10}, [&] { ++fired; });
  ev.at(TimeNs{100}, [&] { ++fired; });
  ev.run_until(TimeNs{50});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ev.now(), TimeNs{50});
  EXPECT_EQ(ev.pending(), 1u);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue ev;
  ev.at(TimeNs{100}, [] {});
  ev.run_all();
  TimeNs seen {-1};
  ev.at(TimeNs{5}, [&] { seen = ev.now(); });  // in the past: clamps to now
  ev.run_all();
  EXPECT_EQ(seen, TimeNs{100});
}

// --- Timing-wheel specifics: ordering across slot, group and overflow
// boundaries of the hierarchical wheel (256 ns ticks, 256 slots, 2 levels).

TEST(EventQueue, OrdersAcrossAllWheelLevels) {
  EventQueue ev;
  // One event per magnitude: same tick, level-0 slot, level-1 slot, and
  // overflow heap (~65 us and ~16.8 ms are the level spans).
  const std::vector<TimeNs> times = {3 * kSec,  20 * kMsec, 70 * kUsec,
                                     1 * kUsec, TimeNs{100}, TimeNs{1}};
  std::vector<TimeNs> fired;
  for (TimeNs t : times) ev.at(t, [&, t] { fired.push_back(t); });
  ev.run_all();
  std::vector<TimeNs> want = times;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
  EXPECT_EQ(ev.now(), 3 * kSec);
}

TEST(EventQueue, TiesBreakByInsertionInEveryLevel) {
  EventQueue ev;
  std::vector<int> order;
  // Ties at a far-future time pass through overflow -> level 1 -> level 0
  // -> due run; insertion order must survive the whole cascade.
  for (int i = 0; i < 8; ++i) ev.at(123 * kMsec, [&, i] { order.push_back(i); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, ReentrantSchedulingAcrossGroupBoundaries) {
  EventQueue ev;
  // Each event schedules the next one ~one level-0 span away, repeatedly
  // forcing group advancement and cascades while dispatching.
  int count = 0;
  std::function<void()> hop = [&] {
    if (++count < 100) ev.after(63 * kUsec + TimeNs{7}, hop);
  };
  ev.after(TimeNs{0}, hop);
  ev.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(ev.now(), 99 * (63 * kUsec + TimeNs{7}));
}

TEST(EventQueue, InterleavedNearAndFarEvents) {
  EventQueue ev;
  std::vector<std::pair<TimeNs, int>> fired;
  // Far-future periodic (overflow heap) interleaved with dense near-term
  // events scheduled reentrantly.
  for (int i = 1; i <= 4; ++i)
    ev.at(i * 20 * kMsec, [&, i] { fired.push_back({ev.now(), 1000 + i}); });
  int n = 0;
  std::function<void()> tick = [&] {
    fired.push_back({ev.now(), n});
    if (++n < 5000) ev.after(17 * kUsec, tick);
  };
  ev.at(TimeNs{0}, tick);
  ev.run_all();
  ASSERT_EQ(fired.size(), 5004u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1].first, fired[i].first);
  EXPECT_EQ(ev.processed(), 5004u);
}

PortConfig port_10g() {
  PortConfig cfg;
  cfg.rate = 10 * kGbps;
  cfg.buffer = 312 * kKB;
  cfg.link_delay = TimeNs{500};
  return cfg;
}

Packet data_packet(std::uint64_t id, Bytes payload = Bytes{1460}) {
  Packet p;
  p.id = id;
  p.flow_id = 0;
  p.payload = payload;
  p.wire_bytes = payload + kHeaderBytes;
  return p;
}

TEST(SwitchPort, TransmitsAtLineRate) {
  EventQueue ev;
  std::vector<TimeNs> deliveries;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    deliveries.push_back(ev.now());
    ev.pool().free(h);
  });
  for (int i = 0; i < 5; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  ASSERT_EQ(deliveries.size(), 5u);
  // 1500+38 wire bytes at 10G = ~1230 ns per packet, back to back.
  for (std::size_t i = 1; i < deliveries.size(); ++i)
    EXPECT_NEAR(static_cast<double>(deliveries[i] - deliveries[i - 1]), 1231,
                5);
  EXPECT_EQ(port.stats().tx_packets, 5);
}

TEST(SwitchPort, DropsWhenBufferFull) {
  EventQueue ev;
  int delivered = 0;
  auto cfg = port_10g();
  cfg.buffer = Bytes{5 * 1500};  // room for ~5 packets
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    ++delivered;
    ev.pool().free(h);
  });
  for (int i = 0; i < 20; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  EXPECT_GT(port.stats().drops, 0);
  EXPECT_EQ(delivered + port.stats().drops, 20);
}

TEST(SwitchPort, EcnMarksAboveThreshold) {
  EventQueue ev;
  int marked = 0;
  auto cfg = port_10g();
  cfg.ecn_threshold = Bytes{3000};
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    marked += ev.pool().get(h).ecn_marked;
    ev.pool().free(h);
  });
  for (int i = 0; i < 10; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 10);  // first packets see an empty queue
}

TEST(SwitchPort, PhantomQueueMarksEarly) {
  EventQueue ev;
  int marked = 0;
  auto cfg = port_10g();
  cfg.phantom_queue = true;
  cfg.phantom_threshold = Bytes{3000};
  cfg.phantom_drain = 0.95;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    marked += ev.pool().get(h).ecn_marked;
    ev.pool().free(h);
  });
  // Line-rate arrivals: the phantom queue (draining at 95%) builds up and
  // marks even though the real queue would be shallow.
  for (int i = 0; i < 50; ++i)
    ev.at(TimeNs{i * 1231}, [&, i] { port.enqueue(ev.pool().clone(data_packet(i))); });
  ev.run_all();
  EXPECT_GT(marked, 5);
}

TEST(SwitchPort, PriorityServesGuaranteedFirst) {
  EventQueue ev;
  std::vector<Priority> order;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    order.push_back(ev.pool().get(h).priority);
    ev.pool().free(h);
  });
  // Fill while port is busy with the first packet.
  Packet low = data_packet(1);
  low.priority = Priority::kBestEffort;
  Packet high = data_packet(2);
  port.enqueue(ev.pool().clone(data_packet(0)));  // occupies the wire
  port.enqueue(ev.pool().clone(low));
  port.enqueue(ev.pool().clone(high));
  ev.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], Priority::kGuaranteed);  // high jumped the low queue
  EXPECT_EQ(order[2], Priority::kBestEffort);
}


TEST(SwitchPort, PfabricServesSmallestRemainingFirst) {
  EventQueue ev;
  auto cfg = port_10g();
  cfg.pfabric = true;
  std::vector<std::int64_t> order;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    order.push_back(ev.pool().get(h).remaining);
    ev.pool().free(h);
  });
  // First packet occupies the wire; the rest queue with mixed urgency.
  Packet first = data_packet(0);
  first.remaining = 1;
  port.enqueue(ev.pool().clone(first));
  for (std::int64_t r : {500000, 1000, 200000, 50}) {
    Packet p = data_packet(1);
    p.remaining = r;
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[1], 50);       // most urgent jumps the queue
  EXPECT_EQ(order[2], 1000);
  EXPECT_EQ(order[3], 200000);
  EXPECT_EQ(order[4], 500000);
}

TEST(SwitchPort, PfabricEvictsLargestOnOverflow) {
  EventQueue ev;
  auto cfg = port_10g();
  cfg.pfabric = true;
  cfg.buffer = Bytes{4 * 1500};  // room for ~4 packets
  std::vector<std::int64_t> delivered;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    delivered.push_back(ev.pool().get(h).remaining);
    ev.pool().free(h);
  });
  // Fill with bulky packets, then push urgent ones: bulk gets evicted.
  for (int i = 0; i < 5; ++i) {
    Packet p = data_packet(i);
    p.remaining = 1000000 + i;
    port.enqueue(ev.pool().clone(p));
  }
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet(10 + i);
    p.remaining = 10 + i;
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  EXPECT_GT(port.stats().drops, 0);
  // Every urgent packet survived the overflow.
  int urgent = 0;
  for (auto r : delivered) urgent += r < 100;
  EXPECT_EQ(urgent, 3);
}

/// Allocate a copy of `p` whose stages the timeline tracks from `now`.
PacketHandle tracked_clone(EventQueue& ev, const Packet& p) {
  const PacketHandle h = ev.pool().clone(p);
  ev.timeline().on_emit(PacketPool::slot_of(h), ev.now(), false);
  return h;
}

TEST(SwitchPort, ChainChargesExactPerHopStages) {
  // Two tracked packets through a two-port chain, both accepted at t=0.
  // Every hop is serialization (tx time) plus link delay; the second
  // packet additionally waits exactly the first one's tx time at the
  // first port, and never at the second (it arrives as the first leaves).
  EventQueue ev;
  const PortConfig cfg = port_10g();
  std::vector<obs::PacketStages> delivered;
  std::vector<TimeNs> at;
  SwitchPortSim second(ev, cfg, [&](PacketHandle h) {
    delivered.push_back(ev.timeline().stages(PacketPool::slot_of(h)));
    at.push_back(ev.now());
    ev.pool().free(h);
  });
  SwitchPortSim first(ev, cfg, [&](PacketHandle h) { second.enqueue(h); });
  first.enqueue(tracked_clone(ev, data_packet(0)));
  first.enqueue(tracked_clone(ev, data_packet(1)));
  ev.run_all();

  const TimeNs tx = transmission_time(Bytes{1500} + kEthOverhead, cfg.rate);
  ASSERT_EQ(tx, TimeNs{1231});
  ASSERT_EQ(delivered.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(delivered[i].pacing_ns, TimeNs{0}) << i;
    EXPECT_EQ(delivered[i].serial_ns, 2 * (tx + cfg.link_delay)) << i;
    EXPECT_EQ(delivered[i].queue_ns + delivered[i].serial_ns, at[i]) << i;
  }
  EXPECT_EQ(delivered[0].queue_ns, TimeNs{0});
  EXPECT_EQ(delivered[1].queue_ns, tx);
  EXPECT_EQ(ev.pool().live(), 0);
}

TEST(SwitchPort, LinkDownMidTransmissionChargesNoStage) {
  EventQueue ev;
  const PortConfig cfg = port_10g();
  int delivered = 0;
  std::vector<obs::PacketStages> stages;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    ++delivered;
    stages.push_back(ev.timeline().stages(PacketPool::slot_of(h)));
    ev.pool().free(h);
  });
  const PacketHandle h = tracked_clone(ev, data_packet(0));
  const std::uint32_t slot = PacketPool::slot_of(h);
  port.enqueue(h);
  // The link dies halfway through the 1231 ns transmission.
  ev.at(TimeNs{600}, [&] { port.set_link_up(false); });
  ev.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(port.stats().fault_drops, 1);
  EXPECT_EQ(port.stats().tx_packets, 0);
  EXPECT_EQ(ev.pool().live(), 0);
  EXPECT_EQ(ev.timeline().stages(slot).queue_ns, TimeNs{0});
  EXPECT_EQ(ev.timeline().stages(slot).serial_ns, TimeNs{0});

  // Back up, the port carries the next packet with a clean per-hop split.
  port.set_link_up(true);
  port.enqueue(tracked_clone(ev, data_packet(1)));
  const TimeNs sent = ev.now();
  ev.run_all();
  ASSERT_EQ(delivered, 1);
  EXPECT_EQ(stages[0].queue_ns, TimeNs{0});
  EXPECT_EQ(stages[0].serial_ns, ev.now() - sent);
  EXPECT_EQ(stages[0].serial_ns,
            transmission_time(Bytes{1500} + kEthOverhead, cfg.rate) +
                cfg.link_delay);
  EXPECT_EQ(ev.pool().live(), 0);
}

TEST(PacketRing, FifoAcrossWrapAroundAndGrowth) {
  PacketRing ring;
  EXPECT_TRUE(ring.empty());
  std::uint32_t next_in = 0;
  std::uint32_t next_out = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i, ++next_in)
      ring.push_back({next_in, next_in * 3});
  };
  const auto pop = [&](int n) {
    for (int i = 0; i < n; ++i, ++next_out) {
      ASSERT_FALSE(ring.empty());
      ASSERT_EQ(ring.front().handle, next_out);
      const QueuedPacket e = ring.pop_front();
      ASSERT_EQ(e.handle, next_out);
      ASSERT_EQ(e.wire, next_out * 3);
    }
  };
  push(5);
  pop(3);
  push(10);  // wraps past the first buffer's end, then grows while wrapped
  ASSERT_EQ(ring.size(), 12u);
  for (std::uint32_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring[i].handle, next_out + i);
  pop(7);
  for (int round = 0; round < 50; ++round) {  // steady wrap, no growth
    push(3);
    pop(3);
  }
  push(40);
  pop(static_cast<int>(ring.size()));
  EXPECT_TRUE(ring.empty());
  push(2);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SwitchPort, RingQueueServesGuaranteedFirstInFifoOrder) {
  EventQueue ev;
  std::vector<std::uint64_t> order;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    order.push_back(ev.pool().get(h).id);
    ev.pool().free(h);
  });
  // Packet 0 occupies the wire; 20 more interleave the two classes, enough
  // to grow both rings past their first buffer.
  port.enqueue(ev.pool().clone(data_packet(0)));
  for (std::uint64_t id = 1; id <= 20; ++id) {
    Packet p = data_packet(id);
    p.priority = id % 2 ? Priority::kBestEffort : Priority::kGuaranteed;
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  std::vector<std::uint64_t> want{0};
  for (std::uint64_t id = 2; id <= 20; id += 2) want.push_back(id);
  for (std::uint64_t id = 1; id <= 20; id += 2) want.push_back(id);
  EXPECT_EQ(order, want);
  EXPECT_EQ(port.queued_bytes(), Bytes{0});
  EXPECT_EQ(ev.pool().live(), 0);
}

TEST(SwitchPort, LinkDownFlushFreesEveryQueuedHandle) {
  EventQueue ev;
  int delivered = 0;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    ++delivered;
    ev.pool().free(h);
  });
  for (std::uint64_t id = 0; id < 30; ++id) {
    Packet p = data_packet(id, Bytes{100 + static_cast<std::int64_t>(id) * 40});
    p.priority = id % 3 ? Priority::kBestEffort : Priority::kGuaranteed;
    port.enqueue(ev.pool().clone(p));
  }
  ASSERT_GT(port.queued_bytes(), Bytes{0});
  port.set_link_up(false);  // 29 queued die now, the one on the wire at tx-done
  EXPECT_EQ(port.queued_bytes(), Bytes{0});
  EXPECT_EQ(ev.pool().live(), 1);
  ev.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(port.stats().fault_drops, 30);
  EXPECT_EQ(ev.pool().live(), 0);
  // The rings are reused after the flush.
  port.set_link_up(true);
  for (std::uint64_t id = 0; id < 3; ++id)
    port.enqueue(ev.pool().clone(data_packet(id)));
  ev.run_all();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(port.queued_bytes(), Bytes{0});
  EXPECT_EQ(ev.pool().live(), 0);
}

TEST(SwitchPort, PfabricTxBytesCountTransmittedWireBytes) {
  EventQueue ev;
  auto cfg = port_10g();
  cfg.pfabric = true;
  cfg.buffer = Bytes{6000};
  std::int64_t delivered_bytes = 0;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    delivered_bytes += ev.pool().get(h).wire_bytes.count();
    ev.pool().free(h);
  });
  // Mixed sizes and urgencies overflow the buffer: bulky packets are
  // evicted by urgent ones, so the bytes sent differ from the bytes offered.
  std::int64_t offered = 0;
  for (int i = 0; i < 24; ++i) {
    Packet p = data_packet(i, Bytes{200 + (i * 397) % 1260});
    p.remaining = (i * 7919) % 50000;
    offered += p.wire_bytes.count();
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  ASSERT_GT(port.stats().drops, 0);
  EXPECT_LT(delivered_bytes, offered);
  EXPECT_EQ(port.stats().tx_bytes, delivered_bytes);
  EXPECT_EQ(port.queued_bytes(), Bytes{0});
  EXPECT_EQ(ev.pool().live(), 0);
}

// One TcpFlow across a single bottleneck port and back.
struct Loop {
  EventQueue ev;
  SwitchPortSim fwd;
  SwitchPortSim rev;
  std::unique_ptr<TcpFlow> flow;

  explicit Loop(TcpConfig cfg = {}, PortConfig pcfg = port_10g())
      : fwd(ev, pcfg, [this](PacketHandle h) { consume(h); }),
        rev(ev, pcfg, [this](PacketHandle h) { consume(h); }) {
    flow = std::make_unique<TcpFlow>(
        ev, 0, 0, 1, 0, 1, cfg, [this](PacketHandle h) { fwd.enqueue(h); },
        [this](PacketHandle h) { rev.enqueue(h); });
  }

  void consume(PacketHandle h) {
    const Packet p = ev.pool().get(h);  // copy: on_packet allocates the ACK
    ev.pool().free(h);
    flow->on_packet(p);
  }
};

TEST(TcpFlow, DeliversAllBytesInOrder) {
  Loop loop;
  std::int64_t delivered = 0;
  loop.flow->set_on_delivery([&](std::int64_t d) { delivered = d; });
  loop.flow->app_write(1 * kMB);
  loop.ev.run_all();
  EXPECT_EQ(delivered, (1 * kMB).count());
  EXPECT_EQ(loop.flow->bytes_acked(), (1 * kMB).count());
  EXPECT_TRUE(loop.flow->rto_events().empty());
}

TEST(TcpFlow, ApproachesLineRate) {
  Loop loop;
  loop.flow->app_write(20 * kMB);
  loop.ev.run_all();
  const double secs =
      static_cast<double>(loop.ev.now()) / static_cast<double>(kSec);
  const double gbps = 20e6 * 8 / secs / 1e9;
  // The transfer includes one slow-start overshoot + NewReno recovery
  // episode, so average goodput sits below the 10G wire but well above
  // half of it.
  EXPECT_GT(gbps, 5.0);
  EXPECT_LT(gbps, 10.0);
}

TEST(TcpFlow, RecoversFromLossViaFastRetransmit) {
  auto pcfg = port_10g();
  pcfg.buffer = Bytes{8 * 1500};  // shallow: slow-start overshoot drops packets
  Loop loop({}, pcfg);
  std::int64_t delivered = 0;
  loop.flow->set_on_delivery([&](std::int64_t d) { delivered = d; });
  loop.flow->app_write(5 * kMB);
  loop.ev.run_all();
  EXPECT_EQ(delivered, (5 * kMB).count());
  EXPECT_GT(loop.fwd.stats().drops, 0);  // loss actually happened
}

TEST(TcpFlow, DctcpKeepsQueuesShorter) {
  auto run = [&](bool dctcp) {
    auto pcfg = port_10g();
    pcfg.buffer = 312 * kKB;
    if (dctcp) pcfg.ecn_threshold = 30 * kKB;
    TcpConfig tcp;
    tcp.dctcp = dctcp;
    Loop loop(tcp, pcfg);
    loop.flow->app_write(30 * kMB);
    loop.ev.run_all();
    return loop.fwd.stats().max_queue_bytes;
  };
  const auto q_tcp = run(false);
  const auto q_dctcp = run(true);
  EXPECT_LT(q_dctcp, q_tcp / 2);
}

TEST(TcpFlow, RtoFiresWhenAllAcksLost) {
  // Reverse path with zero buffer: every ACK dropped -> sender must RTO.
  EventQueue ev;
  TcpConfig cfg;
  cfg.min_rto = 10 * kMsec;
  auto pcfg = port_10g();
  int got_data = 0;
  SwitchPortSim fwd(ev, pcfg, [&](PacketHandle h) {
    ++got_data;
    ev.pool().free(h);
  });
  auto flow = std::make_unique<TcpFlow>(
      ev, 0, 0, 1, 0, 1, cfg, [&](PacketHandle h) { fwd.enqueue(h); },
      [&](PacketHandle h) { ev.pool().free(h); /* ACK black hole */ });
  flow->app_write(Bytes{10000});
  ev.run_until(100 * kMsec);
  EXPECT_GT(flow->rto_events().size(), 1u);  // retried with backoff
  EXPECT_GT(got_data, 0);
}

/// Port -> island map putting every fabric port on the one queue.
std::vector<int> one_island(const topology::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.num_ports()), 0);
}

TEST(Fabric, RoutesAcrossRacksAndDropsVoids) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 2;
  tcfg.racks_per_pod = 2;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, one_island(topo), {&ev});
  std::vector<Packet> received;
  fabric.set_island_deliver([&](int, EventQueue&, PacketHandle h) {
    received.push_back(ev.pool().get(h));
    ev.pool().free(h);
  });

  Packet p = data_packet(1);
  p.src_server = 0;
  p.dst_server = 7;  // cross-pod
  fabric.ingress_from_host(0, ev, ev.pool().clone(p));
  Packet v = p;
  v.is_void = true;
  fabric.ingress_from_host(0, ev, ev.pool().clone(v));
  ev.run_all();
  ASSERT_EQ(received.size(), 1u);  // the void died at the first hop
  EXPECT_EQ(received[0].dst_server, 7);
  // Cross-pod: 5 switch hops each adding serialization + link delay.
  EXPECT_GT(ev.now(), TimeNs{5 * 500});
}

TEST(Host, PacedHostSpacesPacketsOnWire) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 1;
  tcfg.racks_per_pod = 1;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, one_island(topo), {&ev});
  std::vector<TimeNs> arrivals;
  fabric.set_island_deliver([&](int, EventQueue&, PacketHandle h) {
    arrivals.push_back(ev.now());
    ev.pool().free(h);
  });

  Host::Config hcfg;
  hcfg.nic_mode = pacer::NicMode::kPacedVoid;
  Host host(ev, fabric, 0, hcfg);
  SiloGuarantee g{1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  pacer::VmPacer pacer(g);
  host.attach_pacer(0, &pacer);

  for (int i = 0; i < 10; ++i) {
    Packet p = data_packet(i);
    p.src_vm = 0;
    p.dst_vm = 1;
    p.src_server = 0;
    p.dst_server = 1;
    host.send(ev.pool().clone(p));
  }
  ev.run_all();
  ASSERT_EQ(arrivals.size(), 10u);
  // 1500 B at 1 Gbps: 12 us spacing (modulo the last-hop serialization,
  // which is identical for every packet).
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_NEAR(static_cast<double>(arrivals[i] - arrivals[i - 1]), 12000,
                300);
  EXPECT_GT(host.nic_stats().void_packets, 0);
}

TEST(Host, LoopbackBypassesFabric) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 1;
  tcfg.racks_per_pod = 1;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, one_island(topo), {&ev});
  fabric.set_island_deliver([](int, EventQueue&, PacketHandle) {
    FAIL() << "loopback hit the fabric";
  });
  Host host(ev, fabric, 0, Host::Config{});
  int local = 0;
  host.set_local_deliver([&](PacketHandle h) {
    ++local;
    ev.pool().free(h);
  });
  Packet p = data_packet(1);
  p.src_server = 0;
  p.dst_server = 0;
  host.send(ev.pool().clone(p));
  ev.run_all();
  EXPECT_EQ(local, 1);
}

}  // namespace
}  // namespace silo::sim
