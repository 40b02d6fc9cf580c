// Aggregated per-run statistics: goodput time series and the counters that
// back every table in the paper's evaluation. Collected by the scenario
// harness from app sinks and MAC stats.
#ifndef SRC_STATS_EXPERIMENT_STATS_H_
#define SRC_STATS_EXPERIMENT_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/stats/mac_stats.h"
#include "src/util/stats.h"

namespace hacksim {

// Records bytes delivered over time for one flow and evaluates goodput over
// arbitrary windows (the paper uses steady-state windows for Figure 10).
class GoodputTracker {
 public:
  void OnBytesDelivered(SimTime now, uint64_t bytes);

  uint64_t total_bytes() const { return total_bytes_; }

  // Goodput in Mbps over [from, to].
  double GoodputMbps(SimTime from, SimTime to) const;
  // Goodput over the whole run [0, end].
  double TotalGoodputMbps(SimTime end) const;

 private:
  struct Sample {
    SimTime t;
    uint64_t cumulative;
  };
  std::vector<Sample> samples_;
  uint64_t total_bytes_ = 0;
  SimTime last_;  // for the time-order DCHECK
};

// Per-AC enqueue→delivery latency digest for one run. Percentiles are over
// every recorded sample; jitter is the mean absolute difference between
// consecutive same-sink delays (RFC 3550-style, without the EWMA). All-zero
// when nothing was recorded for the AC, so ScenarioResult comparisons of
// legacy runs (whose sinks see only BE, or no UDP at all) stay exact.
struct LatencySummary {
  uint64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double jitter_ms = 0.0;

  friend bool operator==(const LatencySummary&, const LatencySummary&) =
      default;
};

// Collects per-packet delays bucketed by access category. One recorder per
// scenario run; every UDP sink feeds it (delays via Record, consecutive
// same-sink deltas via RecordJitter). Deterministic: sample order is event
// order, and Summarize sorts a copy.
class LatencyRecorder {
 public:
  void Record(uint8_t ac, SimTime delay);
  void RecordJitter(uint8_t ac, SimTime delta);
  LatencySummary Summarize(uint8_t ac) const;

 private:
  struct AcSamples {
    std::vector<int64_t> delays_ns;
    int64_t jitter_sum_ns = 0;
    uint64_t jitter_count = 0;
  };
  std::array<AcSamples, kNumAcs> per_ac_;
};

// ROHC/HACK counters for Table 2 and the §3.4 robustness claims.
struct HackStats {
  uint64_t vanilla_acks_sent = 0;        // TCP ACK packets sent natively
  uint64_t vanilla_ack_bytes = 0;
  uint64_t compressed_acks_sent = 0;     // compressed ACKs placed on LL ACKs
  uint64_t compressed_ack_bytes = 0;     // including re-sent retained copies
  uint64_t unique_compressed_acks = 0;   // distinct TCP ACKs compressed
  uint64_t unique_compressed_bytes = 0;
  uint64_t acks_recovered_at_ap = 0;     // decompressed + forwarded
  uint64_t duplicates_discarded_at_ap = 0;
  uint64_t crc_failures_at_ap = 0;       // must stay 0 (§4.3)
  uint64_t retained_resends = 0;         // payloads re-sent for reliability
  uint64_t flushed_to_vanilla = 0;       // staged ACKs demoted to vanilla
  uint64_t withdrawn_vanilla_won = 0;    // opportunistic: vanilla copy won
  uint64_t stale_context_drops = 0;
  uint64_t ready_race_fallbacks = 0;     // Fig 3-4 NIC-not-ready events

  // --- ACK-aggregation policy (HackAckPolicy; all-zero when the policy is
  // off, which keeps the window=0 equality pins exact) ----------------------
  uint64_t ack_batches = 0;         // release events (one batch per release)
  uint64_t batched_acks = 0;        // ACKs that passed through the held set
  uint64_t batch_flush_window = 0;  // releases: coalesced window timer fired
  uint64_t batch_flush_count = 0;   // releases: count threshold reached
  uint64_t batch_flush_edge = 0;    // releases: peer's MORE DATA bit fell

  // Exact comparison backs the batched-delivery equivalence tests.
  friend bool operator==(const HackStats&, const HackStats&) = default;

  double AcksPerFlush() const {
    if (ack_batches == 0) {
      return 0.0;
    }
    return static_cast<double>(batched_acks) /
           static_cast<double>(ack_batches);
  }

  double CompressionRatio() const {
    if (unique_compressed_acks == 0 || unique_compressed_bytes == 0) {
      return 1.0;
    }
    // Bytes a vanilla ACK would have used / compressed bytes.
    return static_cast<double>(vanilla_ack_bytes_equivalent()) /
           static_cast<double>(unique_compressed_bytes);
  }
  uint64_t vanilla_ack_bytes_equivalent() const {
    // 52 B: IPv4 (20) + TCP (20) + timestamps option (12).
    return unique_compressed_acks * 52;
  }
};

}  // namespace hacksim

#endif  // SRC_STATS_EXPERIMENT_STATS_H_
