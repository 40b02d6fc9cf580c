// TCP bulk-data sender: connection setup, sliding window limited by
// min(cwnd, receiver window), slow start / congestion avoidance, fast
// retransmit with RFC 6675 SACK-based loss recovery, RFC 6298 RTO with
// exponential backoff, RFC 7323 timestamps for RTT measurement. The SYN
// always offers SACK and timestamps, and the only peer is TcpReceiver,
// which always grants both.
#ifndef SRC_TCP_TCP_SENDER_H_
#define SRC_TCP_TCP_SENDER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/net/address.h"
#include "src/packet/packet.h"
#include "src/sim/scheduler.h"
#include "src/tcp/tcp_common.h"

namespace hacksim {

struct TcpSenderStats {
  uint64_t segments_sent = 0;
  uint64_t bytes_sent = 0;        // payload, first transmissions
  uint64_t retransmissions = 0;
  uint64_t fast_retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t dupacks_received = 0;
  uint64_t acks_received = 0;

  friend bool operator==(const TcpSenderStats&,
                         const TcpSenderStats&) = default;
};

// The SACK scoreboard: the union of every block the receiver reported since
// the last RTO, as disjoint ranges in sequence order. A cumulative ACK
// drops the ranges it covers.
//
// Recovery asks one question of it: does a reported block contain the
// range [seq, seq + len)? The union gives the same answer as the blocks
// themselves. The receiver reports whole out-of-order runs and merges runs
// that touch, and a run only grows until the cumulative ACK absorbs it. So
// any two blocks the sender has stored are either nested or separated by a
// gap, and each union range is one reported block.
class SackScoreboard {
 public:
  // Merges a reported block. Blocks at or below `snd_una` carry nothing;
  // the receiver never reports an empty one.
  void Add(const SackBlock& block, uint32_t snd_una);
  // Drops the ranges a cumulative ACK up to `snd_una` covers.
  void Prune(uint32_t snd_una);
  void Clear() { ranges_.clear(); }

  // The range containing `seq`, or nullptr.
  const SackBlock* Find(uint32_t seq) const;
  bool Covers(uint32_t seq, uint32_t len) const {
    const SackBlock* range = Find(seq);
    return range != nullptr && Seq32Le(seq + len, range->end);
  }
  // The highest SACKed edge, or `snd_una` when nothing above it is SACKed.
  uint32_t Highest(uint32_t snd_una) const {
    return ranges_.empty() ? snd_una : Seq32Max(snd_una, ranges_.back().end);
  }
  const std::vector<SackBlock>& ranges() const { return ranges_; }

 private:
  std::vector<SackBlock> ranges_;
};

class TcpSender {
 public:
  // `flow` is the data direction (src = this sender). `send` hands a packet
  // to the network. `bytes_to_send` == 0 means unbounded.
  TcpSender(Scheduler* scheduler, TcpConfig config, FiveTuple flow,
            std::function<void(Packet)> send, uint64_t bytes_to_send);

  // Initiates the connection (sends SYN).
  void Start();

  // Delivers an incoming packet addressed to this endpoint (ACKs, SYN-ACK).
  void OnPacket(const Packet& packet);

  // Fires once when all application bytes are sent and acknowledged (only
  // for bounded transfers).
  std::function<void()> on_complete;

  bool established() const { return state_ == State::kEstablished; }
  bool complete() const { return complete_; }
  uint32_t cwnd_bytes() const { return cwnd_; }
  SimTime srtt() const { return srtt_; }
  const TcpSenderStats& stats() const { return stats_; }
  const SackScoreboard& scoreboard() const { return sacked_; }

 private:
  enum class State { kClosed, kSynSent, kEstablished };

  void SendSyn();
  void TrySendData();
  void SendSegment(uint32_t seq, uint32_t len, bool is_retransmission);
  void HandleAck(const TcpHeader& tcp);
  void EnterFastRecovery();
  // RFC 6675 pipe-based loss recovery: while pipe < cwnd, retransmit the
  // lowest unrepaired hole below the highest SACKed sequence, then send new
  // data. Keeps retransmissions ack-clocked so a drop-tail bottleneck queue
  // is never flooded during recovery.
  //
  // Both judge the flight in grid ranges [seq, seq + min(MSS, snd_nxt -
  // seq)) at seq = snd_una + k*MSS. Segment edges need not lie on that
  // grid (window-limited sends are short), so a range can straddle a SACKed
  // edge; only a range inside one SACKed block counts as SACKed. Each costs
  // O(SACK blocks + live retransmissions), not O(flight / MSS).
  void RecoverySend();
  uint32_t ComputePipe() const;
  void HandleRtoExpiry();
  void RestartRtoTimer();
  void StopRtoTimer();
  void UpdateRtt(SimTime measured);
  uint32_t FlightSize() const { return snd_nxt_ - snd_una_; }
  uint32_t EffectiveWindow() const;
  uint64_t RemainingAppBytes() const;

  Scheduler* scheduler_;
  TcpConfig config_;
  FiveTuple flow_;
  std::function<void(Packet)> send_;
  uint64_t bytes_to_send_;

  State state_ = State::kClosed;
  bool complete_ = false;

  uint32_t iss_ = 0;
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint32_t rcv_nxt_ = 0;  // peer's sequence (for the ACK field)
  uint64_t bytes_acked_ = 0;

  uint32_t cwnd_ = 0;
  uint32_t ssthresh_ = 0xFFFFFFFF;
  uint32_t peer_window_ = 0;
  uint8_t peer_wscale_ = 0;

  // Fast recovery.
  uint32_t dupack_count_ = 0;
  bool in_fast_recovery_ = false;
  uint32_t recover_ = 0;

  // The union of the reported SACK blocks, exact because any two stored
  // blocks are nested or apart (see SackScoreboard).
  SackScoreboard sacked_;
  // Holes retransmitted during the current recovery episode: left edge ->
  // time of (re)transmission. A retransmission unacknowledged for ~2 RTTs
  // is presumed lost and becomes eligible again (RACK-style), which keeps
  // recovery alive when the bottleneck queue tail-drops a retransmission.
  // Only keys on the current grid count: a partial ACK that moves snd_una
  // off the grid leaves the older keys unmatched until they are pruned.
  std::map<uint32_t, SimTime> recovery_retx_;

  // RTT estimation.
  bool rtt_seeded_ = false;
  SimTime srtt_;
  SimTime rttvar_;
  SimTime rto_;
  int rto_backoff_ = 0;

  EventId rto_event_ = kInvalidEventId;
  uint32_t ts_recent_ = 0;  // peer timestamp to echo

  TcpSenderStats stats_;
};

}  // namespace hacksim

#endif  // SRC_TCP_TCP_SENDER_H_
