#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = p.duration() - covered;
  }
  return out;
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = seconds_between(t0_, Clock::now());
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id, const char* tag) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = seconds_between(t0_, Clock::now());
  if (tag != nullptr) s.tag = tag;
  // Spans close innermost-first; tolerate an out-of-order close by
  // dropping everything opened after it.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

double Tracer::total(const std::string& name, const char* tag) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.name == name && (tag == nullptr || s.tag == tag)) sum += s.duration();
  return sum;
}

std::int64_t Tracer::count(const std::string& name, const char* tag) const {
  std::int64_t n = 0;
  for (const Span& s : spans_)
    if (s.name == name && (tag == nullptr || s.tag == tag)) ++n;
  return n;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const char* tag) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && (tag == nullptr || s.tag == tag))
      out.push_back(s.duration());
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"tag\": \"%s\", "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}\n",
                 i, s.name.c_str(), s.tag.c_str(), s.parent, s.start, s.end,
                 self[i]);
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------- TimingExecutor

namespace {
std::atomic<std::uint64_t> next_instance{1};

struct ThreadSlot {
  std::uint64_t owner = 0;
  TicketStats* stats = nullptr;
};
thread_local ThreadSlot tls_slot;
}  // namespace

TimingExecutor::TimingExecutor(silo::sim::IslandExecutor& inner,
                               Tracer& tracer)
    : inner_(inner), tracer_(tracer), instance_(next_instance++) {}

TicketStats& TimingExecutor::slot_for_current_thread() {
  if (tls_slot.owner != instance_) {
    const std::lock_guard<std::mutex> lock(slots_mu_);
    slots_.emplace_back();
    tls_slot.owner = instance_;
    tls_slot.stats = &slots_.back();
  }
  return *tls_slot.stats;
}

void TimingExecutor::parallel_for(int n, const std::function<void(int)>& fn) {
  const auto t0 = Clock::now();
  {
    Scope span(tracer_, "par.parallel_for");
    inner_.parallel_for(n, [&](int i) {
      TicketStats& slot = slot_for_current_thread();
      const auto b0 = Clock::now();
      fn(i);
      const double dt = seconds_between(b0, Clock::now());
      ++slot.count;
      slot.sum_s += dt;
      slot.max_s = std::max(slot.max_s, dt);
    });
  }
  section_s_ += seconds_between(t0, Clock::now());
  ++calls_;
  tickets_ += n;
}

std::vector<TicketStats> TimingExecutor::per_thread() const {
  // Read after parallel_for returned: its barrier orders the workers'
  // writes before this call.
  return {slots_.begin(), slots_.end()};
}

// ---------------------------------------------------------------- stats

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = static_cast<double>(n) * p / 100.0;
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kTailSamples;
}

double checked_percentile(std::vector<double> values, double p) {
  if (!percentile_supported(values.size(), p)) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "p%g of %zu samples leaves %zu beyond it (need %zu)", p,
                  values.size(), samples_beyond(values.size(), p),
                  kTailSamples);
    throw std::invalid_argument(msg);
  }
  const std::size_t rank = values.size() - samples_beyond(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void Digest::add_string(const std::string& s) {
  for (const char c : s) add(static_cast<unsigned char>(c));
  add(s.size());
}

}  // namespace perfbench
