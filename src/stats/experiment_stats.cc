#include "src/stats/experiment_stats.h"

#include <algorithm>
#include <cmath>

#include "src/packet/packet.h"
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

void LatencyRecorder::RecordDelivery(const Packet& packet, SimTime now,
                                     DelayChain& chain) {
  SimTime delay = now - packet.created_at();
  AcSamples& samples =
      per_ac_[packet.has_ip() ? AcForTos(packet.ip().tos) : kAcBe];
  samples.delays_ns.push_back(delay.ns());
  if (chain.has_delay) {
    SimTime delta = delay >= chain.last_delay ? delay - chain.last_delay
                                              : chain.last_delay - delay;
    samples.jitter_sum_ns += delta.ns();
    ++samples.jitter_count;
  }
  chain.last_delay = delay;
  chain.has_delay = true;
}

LatencySummary LatencyRecorder::Summarize(uint8_t ac) const {
  const AcSamples& samples = per_ac_[ac];
  LatencySummary out;
  out.count = samples.delays_ns.size();
  if (out.count == 0) {
    return out;
  }
  // Nearest-rank percentiles: element at ceil(q * n) - 1, placed by two
  // selections on a copy. The second starts past the p50 rank, so it
  // leaves the p50 element where the first put it.
  size_t n = samples.delays_ns.size();
  auto rank = [n](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return std::min(std::max<size_t>(r, 1), n) - 1;
  };
  size_t p50 = rank(0.50);
  size_t p99 = rank(0.99);
  std::vector<int64_t> delays = samples.delays_ns;
  std::nth_element(delays.begin(), delays.begin() + p50, delays.end());
  if (p99 > p50) {
    std::nth_element(delays.begin() + p50 + 1, delays.begin() + p99,
                     delays.end());
  }
  out.p50_ms = static_cast<double>(delays[p50]) / 1e6;
  out.p99_ms = static_cast<double>(delays[p99]) / 1e6;
  int64_t sum = 0;
  for (int64_t d : delays) {
    sum += d;
  }
  out.mean_ms = static_cast<double>(sum) / static_cast<double>(n) / 1e6;
  if (samples.jitter_count > 0) {
    out.jitter_ms = static_cast<double>(samples.jitter_sum_ns) /
                    static_cast<double>(samples.jitter_count) / 1e6;
  }
  return out;
}

}  // namespace hacksim
