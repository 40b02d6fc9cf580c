// Counters a WifiMac exposes. These feed the reproduction of the paper's
// Table 1 (retry fractions), Table 3 (TCP-ACK time overhead breakdown) and
// footnote 7 (fraction of HACK payloads fitting within AIFS).
//
// Time attribution follows the paper's accounting (validated against the
// published per-ACK figures):
//   * tcp_ack_payload_airtime_ns  — IP-datagram bytes of vanilla TCP ACKs at
//     the data rate ("TCP ACK" column: 52 B @ 54 Mbps = 7.7 us/ACK).
//   * rohc_payload_airtime_ns     — compressed bytes at the control rate
//     ("ROHC" column: ~4 B @ 24 Mbps = 1.4 us/ACK).
//   * tcp_ack_channel_overhead_ns — acquisition wait + preamble + MAC header
//     time for frames carrying vanilla TCP ACKs ("Channel" column).
//   * tcp_ack_ll_ack_overhead_ns  — SIFS + LL ACK duration + any extra
//     response delay for LL ACKs elicited by vanilla TCP ACK frames
//     ("LL ACK overhead" column).
#ifndef SRC_STATS_MAC_STATS_H_
#define SRC_STATS_MAC_STATS_H_

#include <array>
#include <cstdint>

namespace hacksim {

// Upper bound on rate-table size (the 802.11n extended table has 11 modes);
// data_ppdus_by_mode_index is indexed by the position of the PPDU's mode in
// the MAC's rate table.
inline constexpr size_t kMaxRateTableSize = 12;

// --- 802.11e access-category vocabulary --------------------------------------
// Shared by the MAC (per-AC engines/queues), the apps layer (per-AC latency
// recording at UDP sinks) and the bench JSON columns. Lower index = higher
// priority; the internal-contention rule in WifiMac resolves same-instant
// grants toward the lowest index.
inline constexpr uint8_t kAcVo = 0;  // voice
inline constexpr uint8_t kAcVi = 1;  // video
inline constexpr uint8_t kAcBe = 2;  // best effort (the legacy DCF row)
inline constexpr uint8_t kAcBk = 3;  // background
inline constexpr size_t kNumAcs = 4;
inline constexpr const char* kAcNames[kNumAcs] = {"VO", "VI", "BE", "BK"};

// 802.1d user-priority mapping from the IP precedence bits (tos >> 5):
// UP 6-7 -> VO, UP 4-5 -> VI, UP 1-2 -> BK, everything else (including the
// default tos 0) -> BE. TCP ACKs carry tos 0, so HACK's vanilla-ACK pull
// from the BE queue stays consistent under EDCA.
inline constexpr uint8_t AcForTos(uint8_t tos) {
  switch (tos >> 5) {
    case 6:
    case 7:
      return kAcVo;
    case 4:
    case 5:
      return kAcVi;
    case 1:
    case 2:
      return kAcBk;
    default:
      return kAcBe;
  }
}

struct MacStats {
  // --- data MPDU outcomes (originator side) --------------------------------
  uint64_t mpdus_delivered_first_try = 0;
  uint64_t mpdus_delivered_retried = 0;
  uint64_t mpdus_dropped_retry_limit = 0;
  uint64_t mpdu_tx_attempts = 0;
  uint64_t ppdus_sent = 0;
  uint64_t response_timeouts = 0;
  uint64_t bars_sent = 0;
  uint64_t ba_agreement_give_ups = 0;
  uint64_t batches_sent_with_sync = 0;
  uint64_t batches_sent_more_data = 0;   // MORE DATA bit set
  uint64_t batches_sent_final = 0;       // MORE DATA bit clear
  uint64_t tx_dropped_phy_busy = 0;
  uint64_t queue_drops = 0;  // per-destination queue overflow (drop-tail)

  // --- RTS/CTS virtual carrier sense ----------------------------------------
  uint64_t rts_sent = 0;           // RTS transmissions (originator)
  uint64_t cts_sent = 0;           // CTS responses (recipient)
  uint64_t cts_timeouts = 0;       // RTS that elicited no CTS in time
  uint64_t rts_bypasses = 0;       // exchanges sent unprotected after the
                                   // RTS retry limit (forward progress)
  uint64_t rts_ignored_busy = 0;   // RTS addressed to us but suppressed by
                                   // virtual carrier sense / own exchange
  uint64_t nav_resets = 0;         // RTS-set NAV reclaimed after the probe
                                   // window passed with no PHY activity
                                   // (802.11's NAV-reset rule)

  // --- rate adaptation -------------------------------------------------------
  // Data-PPDU count per rate-table index (the adaptation histogram; with a
  // fixed mode everything lands in that mode's index).
  std::array<uint64_t, kMaxRateTableSize> data_ppdus_by_mode_index{};
  uint64_t rate_up_moves = 0;
  uint64_t rate_down_moves = 0;

  // --- vanilla TCP ACK accounting (Table 3) ---------------------------------
  uint64_t tcp_ack_frames_sent = 0;      // MPDUs that are pure TCP ACKs
  uint64_t tcp_ack_bytes_sent = 0;       // their IP-datagram bytes
  int64_t tcp_ack_payload_airtime_ns = 0;
  int64_t tcp_ack_channel_overhead_ns = 0;
  int64_t tcp_ack_ll_ack_overhead_ns = 0;

  // --- HACK payload accounting ----------------------------------------------
  uint64_t hack_payloads_sent = 0;
  uint64_t hack_payload_bytes_sent = 0;
  // Compressed-ACK records across all payloads (the envelope count byte,
  // summed). payloads_sent vs records is the batching ratio the ACK-
  // aggregation policy moves: more records per payload, fewer payloads.
  uint64_t hack_payload_records = 0;
  int64_t rohc_payload_airtime_ns = 0;
  uint64_t hack_payloads_fit_in_aifs = 0;

  // --- robustness / fault handling ------------------------------------------
  uint64_t dead_peer_flushes = 0;     // bounded give-up declared a peer dead
  uint64_t dead_peer_flushed_packets = 0;  // queued packets dropped by those
  uint64_t disassociation_flushes = 0;     // packets dropped by Disassociate
  uint64_t radio_off_drops = 0;       // enqueues refused while the radio is off
  uint64_t rx_window_resyncs = 0;     // reorder window hard-reset after a
                                      // peer's MAC restarted mid-stream

  // --- EDCA (only incremented while edca_enabled; all-zero in legacy mode,
  // which is what keeps the MacStats equality pins of PR 2/5/6 intact) ------
  uint64_t virtual_collisions = 0;  // internal-contention losses (CW doubled,
                                    // backoff redrawn, request kept pending)
  std::array<uint64_t, kNumAcs> ac_ppdus_sent{};  // data PPDUs per AC

  // --- recipient side --------------------------------------------------------
  uint64_t data_mpdus_received = 0;
  uint64_t duplicate_mpdus_discarded = 0;
  uint64_t rx_corrupted_events = 0;
  uint64_t acks_sent = 0;
  uint64_t block_acks_sent = 0;

  // Exact comparison backs the batched-delivery equivalence tests.
  friend bool operator==(const MacStats&, const MacStats&) = default;

  double FirstTryFraction() const {
    uint64_t delivered = mpdus_delivered_first_try + mpdus_delivered_retried;
    if (delivered == 0) {
      return 1.0;
    }
    return static_cast<double>(mpdus_delivered_first_try) /
           static_cast<double>(delivered);
  }
};

}  // namespace hacksim

#endif  // SRC_STATS_MAC_STATS_H_
