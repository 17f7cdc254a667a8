// Statistics used by the harness: mean, standard deviation, relative
// standard deviation (coefficient of variation, Fig. 10), percentiles, and
// robust outlier detection (Table III analysis).
#pragma once

#include <cstddef>
#include <vector>

namespace dsps {

double mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
double stddev(const std::vector<double>& values);

/// Relative standard deviation = stddev / mean; 0 when the mean is 0.
double relative_stddev(const std::vector<double>& values);

double max_of(const std::vector<double>& values);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Indices of values more than k scaled MADs from the median (the scaled
/// median absolute deviation, 1.4826·MAD, estimates sigma for normal data).
/// Unlike a mean ± k·stddev test, a few large outliers cannot inflate the
/// spread enough to hide themselves: the paper's three Table III P1
/// outliers all flag at k = 2. Empty for fewer than 3 values or MAD 0.
std::vector<std::size_t> outlier_indices(const std::vector<double>& values,
                                         double k);

}  // namespace dsps
