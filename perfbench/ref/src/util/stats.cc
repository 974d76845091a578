#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace silo {

void Stats::add(double v) {
  samples_.push_back(v);
  sum_ += v;
  sorted_ = samples_.size() <= 1;
}

void Stats::merge(const Stats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_ = samples_.size() <= 1;
}

double Stats::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Stats::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Stats::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Stats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Stats::percentile(double p) const {
  // NaN, not a throw: report paths routinely query percentiles of stats
  // that ended up empty (e.g. a faulted run where a driver completed no
  // messages) and must render "-" rather than crash mid-report.
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Stats::fraction_above(double threshold) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it =
      std::upper_bound(samples_.begin(), samples_.end(), threshold);
  return static_cast<double>(samples_.end() - it) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Stats::cdf(std::size_t points) const {
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  out.reserve(points);
  const std::size_t n = samples_.size();
  for (std::size_t i = 1; i <= points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points);
    // The value at cumulative fraction f is the ceil(f*n)-th order
    // statistic; integer arithmetic (f = i/points) keeps the ceiling exact
    // where floating-point rounding of f*n could straddle an integer.
    const std::size_t rank = (i * n + points - 1) / points;  // ceil(i*n/points)
    out.emplace_back(frac, samples_[std::min(n - 1, rank - 1)]);
  }
  return out;
}

void Stats::ensure_sorted() const {
  if (!sorted_) {
    auto& mut = const_cast<std::vector<double>&>(samples_);
    std::sort(mut.begin(), mut.end());
    sorted_ = true;
  }
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument(
        "TextTable::add_row: " + std::to_string(cells.size()) +
        " cells for a " + std::to_string(header_.size()) + "-column header");
  rows_.push_back(std::move(cells));
}

std::string TextTable::fmt(double v, int precision) {
  if (std::isnan(v)) return "-";  // empty-stats percentiles render as gaps
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      os << cell << std::string(widths[c] - cell.size() + 2, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace silo
