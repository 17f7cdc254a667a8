#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"

namespace dsps {

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sum_sq = 0.0;
  for (const double v : values) sum_sq += (v - m) * (v - m);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double relative_stddev(const std::vector<double>& values) {
  const double m = mean(values);
  if (m == 0.0) return 0.0;
  return stddev(values) / m;
}

double max_of(const std::vector<double>& values) {
  require(!values.empty(), "max_of on empty vector");
  return *std::max_element(values.begin(), values.end());
}

double percentile(std::vector<double> values, double p) {
  require(!values.empty(), "percentile on empty vector");
  require(p >= 0.0 && p <= 100.0, "percentile p out of range");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<std::size_t> outlier_indices(const std::vector<double>& values,
                                         double k) {
  std::vector<std::size_t> out;
  if (values.size() < 3) return out;
  const double median = percentile(values, 50.0);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::abs(v - median));
  const double scaled_mad = 1.4826 * percentile(deviations, 50.0);
  if (scaled_mad == 0.0) return out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (deviations[i] > k * scaled_mad) out.push_back(i);
  }
  return out;
}

}  // namespace dsps
