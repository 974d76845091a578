#include "sim/control_channel.h"

#include <algorithm>

#include "core/controller.h"

namespace silo::sim {

TimeNs channel_retry_delay(const ChannelRetryPolicy& p, int attempt, Rng& rng) {
  TimeNs backoff = p.base_backoff;
  for (int i = 1; i < attempt && backoff < p.max_backoff; ++i)
    backoff = backoff * 2;
  backoff = std::min(backoff, p.max_backoff);
  // Full +/- jitter decorrelates retry storms after a shared fault.
  const double factor = 1.0 + p.jitter * (2.0 * rng.uniform() - 1.0);
  return std::max(TimeNs{1},
                  TimeNs{static_cast<std::int64_t>(
                      static_cast<double>(backoff) * factor)});
}

// ---------------------------------------------------------- PacerAgentFleet

void PacerAgentFleet::apply_in_order(int server, Agent& agent,
                                     const PacerConfigDelta& delta) {
  agent.table.apply(delta);
  ++agent.next_seq;
  if (hook_) hook_(server, delta);
}

void PacerAgentFleet::drain(int server, Agent& agent, DeliveryResult& result) {
  for (auto it = agent.pending.begin();
       it != agent.pending.end() && it->first == agent.next_seq;
       it = agent.pending.erase(it)) {
    apply_in_order(server, agent, it->second);
    ++result.applied;
  }
}

PacerAgentFleet::DeliveryResult PacerAgentFleet::deliver_delta(
    int server, std::uint64_t epoch, std::int64_t seq,
    const PacerConfigDelta& delta) {
  DeliveryResult result;
  Agent& agent = agents_[server];
  if (epoch < agent.epoch) {
    result.stale_epoch = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  if (epoch > agent.epoch) {
    // A new controller incarnation restarts the sequence space; buffered
    // deltas of the dead epoch can never fill their gaps.
    agent.epoch = epoch;
    agent.next_seq = 1;
    agent.pending.clear();
  }
  if (seq < agent.next_seq) {
    result.duplicates = 1;
  } else if (seq == agent.next_seq) {
    apply_in_order(server, agent, delta);
    ++result.applied;
    drain(server, agent, result);
  } else {
    if (agent.pending.emplace(seq, delta).second)
      result.gaps = 1;
    else
      result.duplicates = 1;
  }
  result.epoch = agent.epoch;
  result.acked_through = agent.next_seq - 1;
  return result;
}

PacerAgentFleet::DeliveryResult PacerAgentFleet::deliver_snapshot(
    int server, std::uint64_t epoch, std::int64_t through_seq,
    const std::vector<PacerConfigRecord>& records) {
  DeliveryResult result;
  Agent& agent = agents_[server];
  if (epoch < agent.epoch) {
    result.stale_epoch = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  if (epoch == agent.epoch && through_seq + 1 < agent.next_seq) {
    // A delayed retransmission of a snapshot the agent has already moved
    // past; resetting would roll back later in-order deltas.
    result.duplicates = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  // Reset-to-snapshot as one delta (removes of everything present, then
  // the snapshot's upserts), so the hook sees the same protocol shape.
  PacerConfigDelta reset;
  reset.server = server;
  for (const auto& rec : agent.table.records())
    reset.removes.emplace_back(rec.tenant, rec.vm_index);
  reset.upserts = records;
  agent.table.apply(reset);
  if (hook_) hook_(server, reset);
  if (epoch > agent.epoch) {
    agent.epoch = epoch;
    agent.pending.clear();
  } else {
    agent.pending.erase(agent.pending.begin(),
                        agent.pending.upper_bound(through_seq));
  }
  agent.next_seq = through_seq + 1;
  drain(server, agent, result);
  result.epoch = agent.epoch;
  result.acked_through = agent.next_seq - 1;
  return result;
}

std::uint64_t PacerAgentFleet::checksum(int server) const {
  const auto it = agents_.find(server);
  if (it == agents_.end()) return pacer_config_checksum({});
  return it->second.table.checksum();
}

const PacerConfigTable* PacerAgentFleet::table(int server) const {
  const auto it = agents_.find(server);
  return it == agents_.end() ? nullptr : &it->second.table;
}

std::vector<int> PacerAgentFleet::servers() const {
  std::vector<int> out;
  out.reserve(agents_.size());
  for (const auto& [server, agent] : agents_) out.push_back(server);
  return out;
}

int PacerAgentFleet::buffered(int server) const {
  const auto it = agents_.find(server);
  return it == agents_.end() ? 0 : static_cast<int>(it->second.pending.size());
}

// ----------------------------------------------------------- ControlChannel

ControlChannel::ControlChannel(EventQueue& events, PacerAgentFleet& fleet,
                               const ChannelConfig& cfg)
    : events_(events), fleet_(fleet), cfg_(cfg), rng_(cfg.seed) {
  m_shipped_ = metrics_.counter("controller.channel.shipped", "deltas",
                                "channel");
  m_delivered_ = metrics_.counter("controller.channel.delivered", "messages",
                                  "channel");
  m_applied_ = metrics_.counter("controller.channel.applied", "deltas",
                                "channel");
  m_dropped_ = metrics_.counter("controller.channel.dropped", "messages",
                                "channel");
  m_retries_ = metrics_.counter("controller.channel.retries", "messages",
                                "channel");
  m_abandoned_ = metrics_.counter("controller.channel.abandoned", "messages",
                                  "channel");
  m_duplicates_ = metrics_.counter("controller.channel.duplicates", "messages",
                                   "channel");
  m_gaps_ = metrics_.counter("controller.channel.gaps", "messages", "channel");
  m_stale_epoch_ = metrics_.counter("controller.channel.stale_epoch",
                                    "messages", "channel");
  m_stale_removes_ = metrics_.counter("controller.channel.stale_removes",
                                      "records", "channel");
  m_lease_expired_ = metrics_.counter("controller.channel.lease_expired",
                                      "records", "channel");
  m_desyncs_repaired_ = metrics_.counter("controller.channel.desyncs_repaired",
                                         "repairs", "channel");
  m_ae_rounds_ = metrics_.counter("controller.channel.anti_entropy_rounds",
                                  "rounds", "channel");
  m_convergence_ns_ = metrics_.gauge("controller.channel.convergence_ns", "ns",
                                     "channel");
  if (cfg_.anti_entropy_period > TimeNs{0}) arm_anti_entropy();
}

TimeNs ControlChannel::hop_delay() {
  TimeNs d = cfg_.delivery_delay;
  if (cfg_.delivery_jitter > TimeNs{0})
    d = d + TimeNs{rng_.uniform_int(0, cfg_.delivery_jitter.count())};
  return d;
}

bool ControlChannel::dropped() {
  if (cfg_.drop_rate <= 0) return false;
  if (rng_.uniform() >= cfg_.drop_rate) return false;
  m_dropped_.inc();
  return true;
}

void ControlChannel::note_disturbance() {
  if (!was_converged_) return;
  was_converged_ = false;
  disturbance_at_ = events_.now();
}

void ControlChannel::check_converged() {
  if (was_converged_ || !converged()) return;
  was_converged_ = true;
  last_convergence_ = events_.now() - disturbance_at_;
  m_convergence_ns_.set(last_convergence_.count());
}

void ControlChannel::ship(const std::vector<PacerConfigDelta>& deltas) {
  for (const auto& delta : deltas) {
    const int server = delta.server;
    note_disturbance();
    // The shadow is the controller-local authoritative copy — applied
    // reliably at ship time, so stale removes counted here are genuine
    // protocol smells, not reordering artifacts. Revokes that raced a
    // clean epoch expiry are benign and counted apart.
    const PacerApplyResult shadow_applied = shadow_[server].apply(delta);
    m_stale_removes_.inc(shadow_applied.stale_removes);
    m_lease_expired_.inc(shadow_applied.lease_expired);
    const std::int64_t seq = ++last_seq_[server];
    Outstanding& entry = outstanding_[server][seq];
    entry.delta = delta;
    entry.attempt = 1;
    entry.gen = next_gen_++;
    ++total_outstanding_;
    m_shipped_.inc();
    transmit(server, seq);
  }
}

void ControlChannel::transmit(int server, std::int64_t seq) {
  const auto sit = outstanding_.find(server);
  if (sit == outstanding_.end()) return;
  const auto it = sit->second.find(seq);
  if (it == sit->second.end()) return;
  const Outstanding& entry = it->second;
  if (!dropped()) {
    const TimeNs delay = hop_delay();
    if (entry.is_snapshot) {
      events_.after(delay, [this, server, epoch = epoch_,
                            through = entry.through_seq,
                            records = entry.snapshot] {
        on_snapshot_delivered(server, epoch, through, records);
      });
    } else {
      events_.after(delay, [this, server, epoch = epoch_, seq,
                            delta = entry.delta] {
        on_delta_delivered(server, epoch, seq, delta);
      });
    }
  }
  events_.after(cfg_.ack_timeout, [this, server, seq, gen = entry.gen] {
    on_ack_timeout(server, seq, gen);
  });
}

void ControlChannel::count_delivery(const PacerAgentFleet::DeliveryResult& r) {
  m_delivered_.inc();
  m_applied_.inc(r.applied);
  m_duplicates_.inc(r.duplicates);
  m_gaps_.inc(r.gaps);
  m_stale_epoch_.inc(r.stale_epoch);
}

void ControlChannel::send_ack(int server,
                              const PacerAgentFleet::DeliveryResult& r) {
  if (r.stale_epoch) return;  // the dead incarnation gets no answer
  if (dropped()) return;
  events_.after(hop_delay(), [this, server, epoch = r.epoch,
                              acked = r.acked_through] {
    on_ack(server, epoch, acked);
  });
}

void ControlChannel::on_delta_delivered(int server, std::uint64_t epoch,
                                        std::int64_t seq,
                                        const PacerConfigDelta& delta) {
  const auto r = fleet_.deliver_delta(server, epoch, seq, delta);
  count_delivery(r);
  send_ack(server, r);
}

void ControlChannel::on_snapshot_delivered(
    int server, std::uint64_t epoch, std::int64_t through_seq,
    const std::vector<PacerConfigRecord>& records) {
  const auto r = fleet_.deliver_snapshot(server, epoch, through_seq, records);
  count_delivery(r);
  send_ack(server, r);
}

void ControlChannel::on_ack(int server, std::uint64_t epoch,
                            std::int64_t acked_through) {
  if (epoch != epoch_) return;  // ack for a previous incarnation
  const auto sit = outstanding_.find(server);
  if (sit == outstanding_.end()) return;
  auto& per_server = sit->second;
  // Cumulative ack: everything at or below the agent's contiguous cursor
  // has landed (snapshot entries are keyed by their through_seq).
  auto it = per_server.begin();
  while (it != per_server.end() && it->first <= acked_through) {
    it = per_server.erase(it);
    --total_outstanding_;
  }
  if (per_server.empty()) outstanding_.erase(sit);
  check_converged();
}

void ControlChannel::on_ack_timeout(int server, std::int64_t seq,
                                    std::uint64_t gen) {
  const auto sit = outstanding_.find(server);
  if (sit == outstanding_.end()) return;
  const auto it = sit->second.find(seq);
  if (it == sit->second.end() || it->second.gen != gen) return;
  Outstanding& entry = it->second;
  if (entry.attempt >= cfg_.retry.max_attempts) {
    // Give up; the anti-entropy sweep is the backstop for this server.
    m_abandoned_.inc();
    sit->second.erase(it);
    --total_outstanding_;
    if (sit->second.empty()) outstanding_.erase(sit);
    return;
  }
  ++entry.attempt;
  m_retries_.inc();
  const TimeNs backoff = channel_retry_delay(cfg_.retry, entry.attempt, rng_);
  events_.after(backoff, [this, server, seq, gen] {
    const auto s2 = outstanding_.find(server);
    if (s2 == outstanding_.end()) return;
    const auto e2 = s2->second.find(seq);
    if (e2 == s2->second.end() || e2->second.gen != gen) return;
    transmit(server, seq);
  });
}

void ControlChannel::ship_repair(int server) {
  // The snapshot supersedes anything still queued for this server.
  const auto sit = outstanding_.find(server);
  if (sit != outstanding_.end()) {
    total_outstanding_ -= static_cast<std::int64_t>(sit->second.size());
    outstanding_.erase(sit);
  }
  note_disturbance();
  const std::int64_t through = last_seq_[server];
  Outstanding& entry = outstanding_[server][through];
  entry.is_snapshot = true;
  entry.snapshot = shadow_[server].records();
  entry.through_seq = through;
  entry.attempt = 1;
  entry.gen = next_gen_++;
  ++total_outstanding_;
  m_desyncs_repaired_.inc();
  transmit(server, through);
}

int ControlChannel::anti_entropy_round() {
  m_ae_rounds_.inc();
  int repairs = 0;
  // Ascending server id: the sweep order (and thus every rng draw the
  // repairs make) is deterministic.
  for (const int server : union_servers()) {
    const auto sit = outstanding_.find(server);
    if (sit != outstanding_.end() && !sit->second.empty())
      continue;  // still being retried; don't race the in-flight deltas
    if (shadow_checksum(server) == fleet_.checksum(server) &&
        fleet_.buffered(server) == 0)
      continue;
    ship_repair(server);
    ++repairs;
  }
  check_converged();
  return repairs;
}

void ControlChannel::arm_anti_entropy() {
  events_.after(cfg_.anti_entropy_period, [this, gen = ae_generation_] {
    if (gen != ae_generation_) return;  // a restart superseded this timer
    anti_entropy_round();
    arm_anti_entropy();
  });
}

void ControlChannel::restart(const SiloController& ctl) {
  ++epoch_;
  ++ae_generation_;
  outstanding_.clear();
  total_outstanding_ = 0;
  last_seq_.clear();
  shadow_.clear();
  // Shadow = the recovered controller's shipped state, over every server
  // either side knows about (an agent may hold records for a server the
  // new controller no longer paces — it needs an explicit empty shadow so
  // anti-entropy wipes it).
  std::vector<int> servers = ctl.paced_servers();
  const std::vector<int> agents = fleet_.servers();
  std::vector<int> all;
  std::set_union(servers.begin(), servers.end(), agents.begin(), agents.end(),
                 std::back_inserter(all));
  for (const int server : all) {
    PacerConfigDelta full;
    full.server = server;
    full.upserts = ctl.server_config(server);
    shadow_[server].apply(full);
  }
  was_converged_ = true;  // force a fresh disturbance window
  note_disturbance();
  check_converged();  // an empty fleet may already be converged
  if (cfg_.anti_entropy_period > TimeNs{0}) arm_anti_entropy();
}

bool ControlChannel::converged() const {
  if (total_outstanding_ != 0) return false;
  for (const int server : union_servers()) {
    if (shadow_checksum(server) != fleet_.checksum(server)) return false;
    if (fleet_.buffered(server) != 0) return false;
  }
  return true;
}

std::uint64_t ControlChannel::shadow_checksum(int server) const {
  const auto it = shadow_.find(server);
  if (it == shadow_.end()) return pacer_config_checksum({});
  return it->second.checksum();
}

std::vector<int> ControlChannel::shadow_servers() const {
  std::vector<int> out;
  out.reserve(shadow_.size());
  for (const auto& [server, table] : shadow_) out.push_back(server);
  return out;
}

std::vector<int> ControlChannel::union_servers() const {
  const std::vector<int> a = shadow_servers();
  const std::vector<int> b = fleet_.servers();
  std::vector<int> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace silo::sim
