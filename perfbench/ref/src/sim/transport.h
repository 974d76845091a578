// Byte-stream transport over the packet simulator: TCP Reno with fast
// retransmit/recovery and RTO backoff, plus the DCTCP ECN control law
// (Alizadeh et al., SIGCOMM 2010). HULL's host side is DCTCP; its switch
// side is the phantom queue in SwitchPortSim.
//
// One TcpFlow object models one unidirectional stream and both endpoints:
// the simulator is global, so receiver logic (cumulative ACKs, ECN echo,
// out-of-order reassembly, in-order delivery notifications) lives here too.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"

namespace silo::sim {

struct TcpConfig {
  Bytes mss = kMss;
  double init_cwnd_pkts = 10;
  double max_cwnd_pkts = 500;
  TimeNs min_rto = 10 * kMsec;   ///< ns2-style floor; testbed-style is 200ms
  TimeNs max_rto = 2 * kSec;
  bool dctcp = false;
  double dctcp_g = 1.0 / 16.0;
  /// Bounded-retry abort: after this many consecutive RTOs with no forward
  /// progress the connection aborts (undelivered stream discarded, owner
  /// notified). 0 disables — the seed behavior of retrying forever.
  int max_consecutive_rtos = 0;
  /// Abort when no byte has been newly acked for this long while data is
  /// outstanding (checked at RTO firings). 0 disables.
  TimeNs conn_deadline {};
};

/// Registry handles shared by every flow of a cluster (see
/// obs::MetricsRegistry — default handles are null sinks).
struct TransportMetricHooks {
  obs::Counter segments;      ///< data segments emitted (incl. retransmits)
  obs::Counter retransmits;   ///< fast-retransmit + go-back-N resends
  obs::Counter acks;          ///< ACK packets processed at the sender
  obs::Counter rtos;          ///< retransmission timeouts fired
  obs::Counter aborts;        ///< bounded-retry connection aborts
};

class TcpFlow {
 public:
  /// `send_data` injects packets at the source host; `send_ack` at the
  /// destination host (ACKs flow through the reverse fabric path). The
  /// callee receives ownership of the pool handle.
  using SendFn = std::function<void(PacketHandle)>;
  using DeliverFn = std::function<void(std::int64_t in_order_bytes)>;
  /// Backpressure probe (TSQ-style): may this flow hand another `bytes`
  /// packet to the host right now? Re-polled on every ACK and app write.
  using CanSendFn = std::function<bool(int dst_vm, Bytes bytes)>;
  /// Fired when the bounded-retry limit aborts the connection; the
  /// undelivered tail of the stream is discarded before the call.
  using AbortFn = std::function<void()>;

  TcpFlow(EventQueue& events, int flow_id, int src_vm, int dst_vm,
          int src_server, int dst_server, TcpConfig cfg, SendFn send_data,
          SendFn send_ack);

  /// Append `n` bytes to the stream (a message body).
  void app_write(Bytes n);

  /// Entry point for every packet addressed to this flow (data at the
  /// receiver side, ACKs at the sender side).
  void on_packet(const Packet& p);

  void set_on_delivery(DeliverFn fn) { on_delivery_ = std::move(fn); }
  void set_priority(Priority p) { priority_ = p; }
  void set_can_send(CanSendFn fn) { can_send_ = std::move(fn); }
  void set_on_abort(AbortFn fn) { on_abort_ = std::move(fn); }
  void set_metrics(const TransportMetricHooks& m) { metrics_ = m; }

  std::int64_t bytes_written() const { return stream_end_; }
  std::int64_t bytes_delivered() const { return rcv_next_; }
  std::int64_t bytes_acked() const { return snd_una_; }
  const std::vector<TimeNs>& rto_events() const { return rto_events_; }
  const std::vector<TimeNs>& abort_events() const { return abort_events_; }
  int abort_count() const { return static_cast<int>(abort_events_.size()); }
  int flow_id() const { return flow_id_; }
  int src_vm() const { return src_vm_; }
  int dst_vm() const { return dst_vm_; }
  double cwnd_bytes() const { return cwnd_; }

 private:
  friend class EventQueue;  ///< typed-event dispatch

  void try_send();
  void emit_segment(std::int64_t seq, Bytes len, bool retransmit);
  void handle_ack(const Packet& ack);
  void handle_data(const Packet& data);
  void arm_rto();
  void cancel_rto() { rto_armed_ = false; }
  void rto_timer_fired();
  void handle_tsq_retry();
  void on_rto();
  void abort_connection();
  void dctcp_on_ack(std::int64_t newly_acked, bool marked);
  void enter_loss_recovery();

  EventQueue& events_;
  TcpConfig cfg_;
  int flow_id_, src_vm_, dst_vm_, src_server_, dst_server_;
  SendFn send_data_, send_ack_;
  DeliverFn on_delivery_;
  CanSendFn can_send_;
  AbortFn on_abort_;
  Priority priority_ = Priority::kGuaranteed;
  TransportMetricHooks metrics_;

  // Sender.
  std::int64_t stream_end_ = 0;  ///< app bytes written so far
  std::int64_t snd_una_ = 0;
  std::int64_t snd_next_ = 0;
  double cwnd_ = 0;
  double ssthresh_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_seq_ = 0;
  TimeNs srtt_{}, rttvar_{}, rto_{};
  bool rto_armed_ = false;
  TimeNs rto_deadline_ {};
  bool rto_event_pending_ = false;
  bool tsq_retry_pending_ = false;
  std::vector<TimeNs> rto_events_;
  std::vector<TimeNs> abort_events_;
  int consecutive_rtos_ = 0;
  TimeNs last_progress_ {};  ///< last time snd_una_ advanced (or fresh data)
  std::uint64_t next_packet_id_ = 1;

  // DCTCP.
  double alpha_ = 0.0;
  std::int64_t dctcp_window_end_ = 0;
  std::int64_t dctcp_acked_ = 0, dctcp_marked_ = 0;
  bool cut_this_window_ = false;

  // Receiver.
  std::int64_t rcv_next_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;  ///< out-of-order [start,end)
};

}  // namespace silo::sim
