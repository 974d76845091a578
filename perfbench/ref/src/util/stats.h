// Sample accumulation and percentile/CDF reporting used by every bench.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace silo {

/// Accumulates scalar samples and answers summary queries. Percentile
/// queries sort lazily; adding samples after a query is allowed.
class Stats {
 public:
  void add(double v);
  void merge(const Stats& other);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

  /// p in [0, 100]; linear interpolation between order statistics.
  /// Returns quiet NaN when no samples were recorded (empty stats are a
  /// normal outcome of faulted runs, not a programming error).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Fraction of samples strictly greater than `threshold`.
  double fraction_above(double threshold) const;

  /// Raw sample vector. Order contract: insertion order is preserved only
  /// until the first order-statistic query (percentile/median/min/max/
  /// fraction_above/cdf), which sorts the vector in place; after any such
  /// query this view is sorted ascending. Callers needing arrival order
  /// must copy before querying.
  const std::vector<double>& samples() const { return samples_; }

  /// Evenly spaced CDF points (value at each of `points` cumulative
  /// fractions), useful for printing paper-style CDF series.
  std::vector<std::pair<double, double>> cdf(std::size_t points = 100) const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable bool sorted_ = true;
};

/// Fixed-width text table used by benches to print paper-style rows.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Throws std::invalid_argument unless `cells` matches the header's
  /// column count — malformed bench tables must fail loudly, not truncate.
  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace silo
