// Small statistics helpers: running mean/variance (Welford), min/max and
// the 95% confidence half-width the campaign engine reports.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstdint>
#include <limits>

namespace hacksim {

// Streaming scalar summary (Welford's algorithm for numerically stable
// variance).
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Half-width of the two-sided 95% confidence interval on the mean:
  // t_{0.975, n-1} * stddev / sqrt(n). Student-t critical values for the
  // small sample counts campaigns actually use (exact for n <= 31, the
  // normal 1.96 beyond); 0 for fewer than two samples. The campaign engine
  // reports mean +/- this per matrix cell.
  double Ci95HalfWidth() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace hacksim

#endif  // SRC_UTIL_STATS_H_
