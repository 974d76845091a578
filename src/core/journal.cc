#include "core/journal.h"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace silo {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
// "SILOJRN1" little-endian; no dots so the docs metric grep ignores it.
constexpr std::uint64_t kMagic = 0x314e524a4f4c4953ull;
// v2: lease payload on every record + lease state in snapshots.
constexpr std::uint32_t kVersion = 2;

/// Fold the N low bytes of `v`, least significant first, into FNV-1a
/// state `h` — exactly what FNV over v's little-endian encoding does.
template <int N>
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < N; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  return fnv_fold<8>(h, v);
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Chain one record onto the running head. Payload fields that the op does
/// not use are fixed defaults, so the fold is total and unambiguous.
bool lease_op(JournalOp op) {
  return op == JournalOp::kLeaseGrant || op == JournalOp::kLeaseRevoke ||
         op == JournalOp::kLeaseEpoch;
}

std::uint64_t record_chain(std::uint64_t prev, const JournalRecord& rec) {
  std::uint64_t h = prev;
  h = mix64(h, static_cast<std::uint64_t>(rec.op));
  h = mix64(h, static_cast<std::uint64_t>(rec.request.num_vms));
  h = mix64(h, double_bits(rec.request.guarantee.bandwidth.bps()));
  h = mix64(h, static_cast<std::uint64_t>(rec.request.guarantee.burst.count()));
  h = mix64(h, static_cast<std::uint64_t>(rec.request.guarantee.delay.count()));
  h = mix64(h, double_bits(rec.request.guarantee.burst_rate.bps()));
  h = mix64(h, static_cast<std::uint64_t>(rec.request.tenant_class));
  h = mix64(h, static_cast<std::uint64_t>(rec.request.min_fault_domains));
  h = mix64(h, static_cast<std::uint64_t>(rec.tenant));
  h = mix64(h, static_cast<std::uint64_t>(rec.server));
  h = mix64(h, static_cast<std::uint64_t>(rec.port));
  // The lease payload folds in only for lease ops, so chains of the
  // original op set are byte-identical to journal v1.
  if (lease_op(rec.op)) {
    h = mix64(h, rec.lease.id);
    h = mix64(h, static_cast<std::uint64_t>(rec.lease.owner));
    h = mix64(h, static_cast<std::uint64_t>(rec.lease.borrower));
    h = mix64(h, static_cast<std::uint64_t>(rec.lease.vm_index));
    h = mix64(h, static_cast<std::uint64_t>(rec.lease.server));
    h = mix64(h, double_bits(rec.lease.rate.bps()));
    h = mix64(h, rec.lease.issued_epoch);
    h = mix64(h, rec.lease.expiry_epoch);
  }
  return h;
}

// ------------------------------------------------------------- byte codec
//
// One encoder, two sinks. Every field is fixed-width little-endian, handed
// to the sink whole: StringSink appends the bytes (serialize), FnvSink
// folds them into FNV-1a as they are produced (compact and verify hash a
// snapshot without ever building its byte string). The fold stays
// byte-wise on purpose: a 64-bit-word FNV would let two top-bit flips in
// adjacent words cancel, weakening tamper detection.

class StringSink {
 public:
  template <int N>
  void put(std::uint64_t v) {
    char buf[N];
    for (int i = 0; i < N; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    out_.append(buf, N);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class FnvSink {
 public:
  template <int N>
  void put(std::uint64_t v) { h_ = fnv_fold<N>(h_, v); }
  std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

template <typename Sink>
class ByteWriter {
 public:
  void u8(std::uint8_t v) { sink_.template put<1>(v); }
  void u32(std::uint32_t v) { sink_.template put<4>(v); }
  void u64(std::uint64_t v) { sink_.template put<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(double_bits(v)); }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    for (const int x : v) i32(x);
  }
  Sink& sink() { return sink_; }

 private:
  Sink sink_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}
  std::uint8_t u8() { return static_cast<std::uint8_t>(take<1>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take<4>()); }
  std::uint64_t u64() { return take<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }
  std::vector<int> ints() {
    const std::uint64_t n = count();
    std::vector<int> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(i32());
    return v;
  }
  /// Element count with a sanity bound: every element costs >= 1 byte, so
  /// a count beyond the remaining bytes is corruption, not allocation bait.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_ + 1)
      throw std::runtime_error("journal corrupt: implausible count");
    return n;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  /// One fixed-width little-endian field behind a single bounds check.
  template <int N>
  std::uint64_t take() {
    if (bytes_.size() - pos_ < static_cast<std::size_t>(N))
      throw std::runtime_error("journal corrupt: truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < N; ++i) {
      const auto byte = static_cast<unsigned char>(bytes_[pos_ + i]);
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    pos_ += N;
    return v;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

template <typename W>
void write_request(W& w, const TenantRequest& req) {
  w.i32(req.num_vms);
  w.f64(req.guarantee.bandwidth.bps());
  w.i64(req.guarantee.burst.count());
  w.i64(req.guarantee.delay.count());
  w.f64(req.guarantee.burst_rate.bps());
  w.u8(static_cast<std::uint8_t>(req.tenant_class));
  w.i32(req.min_fault_domains);
}

TenantRequest read_request(ByteReader& r) {
  TenantRequest req;
  req.num_vms = r.i32();
  req.guarantee.bandwidth = RateBps{r.f64()};
  req.guarantee.burst = Bytes{r.i64()};
  req.guarantee.delay = TimeNs{r.i64()};
  req.guarantee.burst_rate = RateBps{r.f64()};
  req.tenant_class = static_cast<TenantClass>(r.u8());
  req.min_fault_domains = r.i32();
  return req;
}

template <typename W>
void write_lease(W& w, const PacerLeaseRecord& l) {
  w.u64(l.id);
  w.i64(l.owner);
  w.i64(l.borrower);
  w.i32(l.vm_index);
  w.i32(l.server);
  w.f64(l.rate.bps());
  w.u64(l.issued_epoch);
  w.u64(l.expiry_epoch);
}

PacerLeaseRecord read_lease(ByteReader& r) {
  PacerLeaseRecord l;
  l.id = r.u64();
  l.owner = r.i64();
  l.borrower = r.i64();
  l.vm_index = r.i32();
  l.server = r.i32();
  l.rate = RateBps{r.f64()};
  l.issued_epoch = r.u64();
  l.expiry_epoch = r.u64();
  return l;
}

template <typename W>
void write_snapshot(W& w, const ControllerSnapshot& snap) {
  w.u64(snap.engine.tenants.size());
  for (const auto& t : snap.engine.tenants) {
    w.i64(t.id);
    write_request(w, t.request);
    w.ints(t.vm_to_server);
    w.u64(t.contributions.size());
    for (const auto& [port, c] : t.contributions) {
      w.i32(port);
      w.f64(c.rate_bps);
      w.f64(c.burst_bytes);
      w.f64(c.burst_rate_bps);
      w.f64(c.jump_bytes);
    }
  }
  w.u64(snap.engine.failed_servers.size());
  for (const auto& f : snap.engine.failed_servers) {
    w.i32(f.server);
    w.i32(f.free_slots);
    w.i32(f.quarantined);
  }
  w.ints(snap.engine.failed_ports);
  w.i64(snap.engine.next_id);
  w.u64(snap.tenants.size());
  for (const auto& t : snap.tenants) {
    w.i64(t.id);
    write_request(w, t.request);
    w.u8(t.status);
    w.i64(t.engine_id);
    w.ints(t.vm_to_server);
    w.ints(t.paced_vm_to_server);
  }
  w.u64(snap.counters.size());
  for (const std::int64_t c : snap.counters) w.i64(c);
  w.u64(snap.lease_epoch);
  w.u64(snap.next_lease_id);
  w.u64(snap.leases.size());
  for (const auto& l : snap.leases) write_lease(w, l);
}

ControllerSnapshot read_snapshot(ByteReader& r) {
  ControllerSnapshot snap;
  const std::uint64_t n_engine = r.count();
  for (std::uint64_t i = 0; i < n_engine; ++i) {
    placement::EngineSnapshot::Tenant t;
    t.id = r.i64();
    t.request = read_request(r);
    t.vm_to_server = r.ints();
    const std::uint64_t n_contrib = r.count();
    for (std::uint64_t j = 0; j < n_contrib; ++j) {
      const int port = r.i32();
      placement::PortContribution c;
      c.rate_bps = r.f64();
      c.burst_bytes = r.f64();
      c.burst_rate_bps = r.f64();
      c.jump_bytes = r.f64();
      t.contributions.emplace_back(port, c);
    }
    snap.engine.tenants.push_back(std::move(t));
  }
  const std::uint64_t n_failed = r.count();
  for (std::uint64_t i = 0; i < n_failed; ++i) {
    placement::EngineSnapshot::FailedServer f;
    f.server = r.i32();
    f.free_slots = r.i32();
    f.quarantined = r.i32();
    snap.engine.failed_servers.push_back(f);
  }
  snap.engine.failed_ports = r.ints();
  snap.engine.next_id = r.i64();
  const std::uint64_t n_tenants = r.count();
  for (std::uint64_t i = 0; i < n_tenants; ++i) {
    ControllerSnapshot::Tenant t;
    t.id = r.i64();
    t.request = read_request(r);
    t.status = r.u8();
    t.engine_id = r.i64();
    t.vm_to_server = r.ints();
    t.paced_vm_to_server = r.ints();
    snap.tenants.push_back(std::move(t));
  }
  const std::uint64_t n_counters = r.count();
  for (std::uint64_t i = 0; i < n_counters; ++i)
    snap.counters.push_back(r.i64());
  snap.lease_epoch = r.u64();
  snap.next_lease_id = r.u64();
  const std::uint64_t n_leases = r.count();
  for (std::uint64_t i = 0; i < n_leases; ++i)
    snap.leases.push_back(read_lease(r));
  return snap;
}

/// FNV-1a of the snapshot's serialized bytes, streamed field by field.
std::uint64_t snapshot_hash(const ControllerSnapshot& snap) {
  ByteWriter<FnvSink> w;
  write_snapshot(w, snap);
  return w.sink().hash();
}

}  // namespace

DeltaJournal::DeltaJournal()
    : pre_snapshot_chain_(kFnvOffset), chain_(kFnvOffset) {
  m_appends_ = metrics_.counter("controller.journal.appends", "records",
                                "journal");
  m_snapshots_ = metrics_.counter("controller.journal.snapshots", "snapshots",
                                  "journal");
  m_replays_ = metrics_.counter("controller.journal.replays", "recoveries",
                                "journal");
  m_replayed_records_ = metrics_.counter("controller.journal.replayed_records",
                                         "records", "journal");
}

std::uint64_t DeltaJournal::append(JournalRecord rec) {
  chain_ = record_chain(chain_, rec);
  rec.chain = chain_;
  records_.push_back(std::move(rec));
  m_appends_.inc();
  return chain_;
}

void DeltaJournal::compact(ControllerSnapshot snapshot) {
  // pre_snapshot_chain_ becomes the current head (which already covers
  // every record being dropped), then the snapshot bytes fold on top —
  // the chain stays continuous across any number of compactions.
  pre_snapshot_chain_ = chain_;
  chain_ = mix64(chain_, snapshot_hash(snapshot));
  snapshot_ = std::move(snapshot);
  records_.clear();
  m_snapshots_.inc();
}

bool DeltaJournal::verify() const {
  std::uint64_t h = pre_snapshot_chain_;
  if (snapshot_) h = mix64(h, snapshot_hash(*snapshot_));
  for (const auto& rec : records_) {
    h = record_chain(h, rec);
    if (h != rec.chain) return false;
  }
  return h == chain_;
}

std::string DeltaJournal::serialize() const {
  ByteWriter<StringSink> w;
  w.u64(kMagic);
  w.u32(kVersion);
  w.i64(m_appends_.value());
  w.i64(m_snapshots_.value());
  w.i64(m_replays_.value());
  w.i64(m_replayed_records_.value());
  w.u64(pre_snapshot_chain_);
  w.u8(snapshot_ ? 1 : 0);
  if (snapshot_) write_snapshot(w, *snapshot_);
  w.u64(records_.size());
  for (const auto& rec : records_) {
    w.u8(static_cast<std::uint8_t>(rec.op));
    write_request(w, rec.request);
    w.i64(rec.tenant);
    w.i32(rec.server);
    w.i32(rec.port);
    // Lease payload only for lease ops: every serialized byte stays
    // covered by the record chain (tamper detection needs no dead zones).
    if (lease_op(rec.op)) write_lease(w, rec.lease);
    w.u64(rec.chain);
  }
  w.u64(chain_);
  return w.sink().take();
}

DeltaJournal DeltaJournal::deserialize(const std::string& bytes) {
  ByteReader r(bytes);
  if (r.u64() != kMagic) throw std::runtime_error("journal corrupt: bad magic");
  if (r.u32() != kVersion)
    throw std::runtime_error("journal corrupt: unknown version");
  DeltaJournal j;
  j.m_appends_.inc(r.i64());
  j.m_snapshots_.inc(r.i64());
  j.m_replays_.inc(r.i64());
  j.m_replayed_records_.inc(r.i64());
  j.pre_snapshot_chain_ = r.u64();
  if (r.u8() != 0) j.snapshot_ = read_snapshot(r);
  const std::uint64_t n = r.count();
  for (std::uint64_t i = 0; i < n; ++i) {
    JournalRecord rec;
    rec.op = static_cast<JournalOp>(r.u8());
    rec.request = read_request(r);
    rec.tenant = r.i64();
    rec.server = r.i32();
    rec.port = r.i32();
    if (lease_op(rec.op)) rec.lease = read_lease(r);
    rec.chain = r.u64();
    j.records_.push_back(std::move(rec));
  }
  j.chain_ = r.u64();
  if (!r.done()) throw std::runtime_error("journal corrupt: trailing bytes");
  if (!j.verify())
    throw std::runtime_error("journal corrupt: chain checksum mismatch");
  return j;
}

void DeltaJournal::note_replay(std::int64_t replayed_records) {
  m_replays_.inc();
  m_replayed_records_.inc(replayed_records);
}

}  // namespace silo
