#include "src/stats/experiment_stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace hacksim {

void GoodputTracker::OnBytesDelivered(SimTime now, uint64_t bytes) {
  DCHECK(now >= last_) << "samples must arrive in time order";
  total_bytes_ += bytes;
  last_ = now;
  samples_.push_back(Sample{now, total_bytes_});
}

double GoodputTracker::GoodputMbps(SimTime from, SimTime to) const {
  CHECK_LT(from, to);
  auto cumulative_at = [this](SimTime t) -> uint64_t {
    // Last sample with sample.t <= t.
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](SimTime value, const Sample& s) { return value < s.t; });
    if (it == samples_.begin()) {
      return 0;
    }
    return std::prev(it)->cumulative;
  };
  uint64_t bytes = cumulative_at(to) - cumulative_at(from);
  double seconds = (to - from).ToSecondsF();
  return static_cast<double>(bytes) * 8.0 / seconds / 1e6;
}

double GoodputTracker::TotalGoodputMbps(SimTime end) const {
  if (end.IsZero()) {
    return 0.0;
  }
  return static_cast<double>(total_bytes_) * 8.0 / end.ToSecondsF() / 1e6;
}

void LatencyRecorder::Record(uint8_t ac, SimTime delay) {
  per_ac_[ac].delays_ns.push_back(delay.ns());
}

void LatencyRecorder::RecordJitter(uint8_t ac, SimTime delta) {
  per_ac_[ac].jitter_sum_ns += delta.ns();
  ++per_ac_[ac].jitter_count;
}

LatencySummary LatencyRecorder::Summarize(uint8_t ac) const {
  const AcSamples& samples = per_ac_[ac];
  LatencySummary out;
  out.count = samples.delays_ns.size();
  if (out.count == 0) {
    return out;
  }
  std::vector<int64_t> sorted = samples.delays_ns;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank percentiles: element at ceil(q * n) - 1.
  auto quantile = [&](double q) {
    size_t rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::min(std::max<size_t>(rank, 1), sorted.size()) - 1;
    return static_cast<double>(sorted[rank]) / 1e6;
  };
  out.p50_ms = quantile(0.50);
  out.p99_ms = quantile(0.99);
  int64_t sum = 0;
  for (int64_t d : sorted) {
    sum += d;
  }
  out.mean_ms =
      static_cast<double>(sum) / static_cast<double>(sorted.size()) / 1e6;
  if (samples.jitter_count > 0) {
    out.jitter_ms = static_cast<double>(samples.jitter_sum_ns) /
                    static_cast<double>(samples.jitter_count) / 1e6;
  }
  return out;
}

}  // namespace hacksim
