#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace hacksim {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::Ci95HalfWidth() const {
  if (count_ < 2) {
    return 0.0;
  }
  // Two-sided 95% Student-t critical values, indexed by degrees of freedom
  // (n-1); df >= 31 uses the normal-approximation tail value.
  static constexpr double kT975[] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  int64_t df = count_ - 1;
  double t = df < static_cast<int64_t>(std::size(kT975)) ? kT975[df] : 1.960;
  return t * stddev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace hacksim
