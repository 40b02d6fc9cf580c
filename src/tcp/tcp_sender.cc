#include "src/tcp/tcp_sender.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

TcpSender::TcpSender(Scheduler* scheduler, TcpConfig config, FiveTuple flow,
                     std::function<void(Packet)> send, uint64_t bytes_to_send)
    : scheduler_(scheduler),
      config_(config),
      flow_(flow),
      send_(std::move(send)),
      bytes_to_send_(bytes_to_send),
      rto_(kTcpRtoInitial) {
  cwnd_ = kTcpInitialCwndSegments * config_.mss;
}

void TcpSender::Start() {
  CHECK(state_ == State::kClosed);
  state_ = State::kSynSent;
  SendSyn();
}

void TcpSender::SendSyn() {
  TcpHeader tcp;
  tcp.src_port = flow_.src_port;
  tcp.dst_port = flow_.dst_port;
  tcp.seq = iss_;
  tcp.flag_syn = true;
  tcp.window = 65535;
  tcp.mss = static_cast<uint16_t>(config_.mss);
  tcp.window_scale = kTcpWindowScale;
  tcp.sack_permitted = kTcpUseSack;
  if (kTcpUseTimestamps) {
    tcp.timestamps = TcpTimestamps{TsClock(scheduler_->Now()), 0};
  }
  Packet p = Packet::MakeTcp(flow_.src_ip, flow_.dst_ip, tcp, 0);
  p.mutable_ip().tos = config_.tos;
  p.set_created_at(scheduler_->Now());
  send_(std::move(p));
  RestartRtoTimer();
}

uint64_t TcpSender::RemainingAppBytes() const {
  if (bytes_to_send_ == 0) {
    return UINT64_MAX;
  }
  uint64_t offered = snd_nxt_ - iss_ - 1;  // -1 for the SYN
  if (offered >= bytes_to_send_) {
    return 0;
  }
  return bytes_to_send_ - offered;
}

uint32_t TcpSender::EffectiveWindow() const {
  uint32_t wnd = std::min<uint64_t>(
      cwnd_, static_cast<uint64_t>(peer_window_) << peer_wscale_);
  uint32_t flight = FlightSize();
  return wnd > flight ? wnd - flight : 0;
}

void TcpSender::TrySendData() {
  if (state_ != State::kEstablished || complete_) {
    return;
  }
  while (true) {
    uint32_t window = EffectiveWindow();
    uint64_t remaining = RemainingAppBytes();
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>({config_.mss, window, remaining}));
    if (len == 0) {
      break;
    }
    SendSegment(snd_nxt_, len, /*is_retransmission=*/false);
    snd_nxt_ += len;
    stats_.bytes_sent += len;
  }
}

void TcpSender::SendSegment(uint32_t seq, uint32_t len,
                            bool is_retransmission) {
  TcpHeader tcp;
  tcp.src_port = flow_.src_port;
  tcp.dst_port = flow_.dst_port;
  tcp.seq = seq;
  tcp.ack = rcv_nxt_;
  tcp.flag_ack = true;
  tcp.window = 65535;
  if (kTcpUseTimestamps && peer_timestamps_ok_) {
    tcp.timestamps = TcpTimestamps{TsClock(scheduler_->Now()), ts_recent_};
  }
  Packet p = Packet::MakeTcp(flow_.src_ip, flow_.dst_ip, tcp, len);
  p.mutable_ip().tos = config_.tos;
  p.set_created_at(scheduler_->Now());
  ++stats_.segments_sent;
  if (is_retransmission) {
    ++stats_.retransmissions;
  }
  send_(std::move(p));
  if (rto_event_ == kInvalidEventId) {
    RestartRtoTimer();
  }
}

bool TcpSender::IsSacked(uint32_t seq, uint32_t len) const {
  for (const SackBlock& block : sacked_) {
    if (Seq32Le(block.start, seq) && Seq32Le(seq + len, block.end)) {
      return true;
    }
  }
  return false;
}

uint32_t TcpSender::NextUnsackedAbove(uint32_t from) const {
  uint32_t seq = from;
  while (Seq32Lt(seq, snd_nxt_) && IsSacked(seq, config_.mss)) {
    seq += config_.mss;
  }
  return seq;
}

void TcpSender::OnPacket(const Packet& packet) {
  if (!packet.has_tcp()) {
    return;
  }
  const TcpHeader& tcp = packet.tcp();

  if (state_ == State::kSynSent) {
    if (tcp.flag_syn && tcp.flag_ack && tcp.ack == iss_ + 1) {
      state_ = State::kEstablished;
      snd_una_ = iss_ + 1;
      snd_nxt_ = iss_ + 1;
      rcv_nxt_ = tcp.seq + 1;
      peer_window_ = tcp.window;
      peer_wscale_ = tcp.window_scale.value_or(0);
      peer_sack_ok_ = tcp.sack_permitted && kTcpUseSack;
      peer_timestamps_ok_ =
          tcp.timestamps.has_value() && kTcpUseTimestamps;
      if (tcp.timestamps.has_value()) {
        ts_recent_ = tcp.timestamps->tsval;
      }
      StopRtoTimer();
      rto_backoff_ = 0;
      // Complete the handshake; the ACK rides on the first data segment(s),
      // or on a bare ACK if there is nothing to send yet.
      TrySendData();
      if (stats_.segments_sent == 0) {
        SendSegment(snd_nxt_, 0, false);
      }
      RestartRtoTimer();
      return;
    }
    return;
  }
  if (state_ != State::kEstablished || !tcp.flag_ack) {
    return;
  }
  HandleAck(tcp);
}

void TcpSender::HandleAck(const TcpHeader& tcp) {
  ++stats_.acks_received;
  if (tcp.timestamps.has_value()) {
    ts_recent_ = tcp.timestamps->tsval;
    // RTT sample from the echoed timestamp (RFC 7323 RTTM).
    uint32_t echoed = tcp.timestamps->tsecr;
    if (echoed != 0) {
      uint32_t now_ms = TsClock(scheduler_->Now());
      uint32_t delta_ms = now_ms - echoed;
      if (delta_ms < 60'000) {
        UpdateRtt(SimTime::Millis(delta_ms));
      }
    }
  }
  if (!tcp.sack_blocks.empty() && peer_sack_ok_) {
    for (const SackBlock& block : tcp.sack_blocks) {
      // Merge-free scoreboard: keep blocks, prune below snd_una_ later.
      sacked_.push_back(block);
    }
  }
  peer_window_ = tcp.window;

  uint32_t ack = tcp.ack;
  if (Seq32Gt(ack, snd_nxt_)) {
    return;  // acks data never sent; ignore
  }

  if (Seq32Le(ack, snd_una_)) {
    // Duplicate ACK candidate (RFC 5681: no data, ack == snd_una, data
    // outstanding).
    if (ack == snd_una_ && FlightSize() > 0) {
      ++stats_.dupacks_received;
      ++dupack_count_;
      if (in_fast_recovery_) {
        if (peer_sack_ok_) {
          // SACK recovery: the scoreboard just grew; fill the pipe.
          RecoverySend();
        } else {
          // Classic NewReno inflation.
          cwnd_ += config_.mss;
          TrySendData();
        }
      } else if (dupack_count_ == 3) {
        EnterFastRecovery();
      }
    }
    return;
  }

  // New data acknowledged.
  uint32_t newly_acked = ack - snd_una_;
  bytes_acked_ += newly_acked;
  snd_una_ = ack;
  dupack_count_ = 0;
  rto_backoff_ = 0;
  sacked_.erase(std::remove_if(sacked_.begin(), sacked_.end(),
                               [&](const SackBlock& b) {
                                 return Seq32Le(b.end, snd_una_);
                               }),
                sacked_.end());

  if (in_fast_recovery_) {
    // Prune the repaired-hole set below the new left edge.
    for (auto it = recovery_retx_.begin(); it != recovery_retx_.end();) {
      if (Seq32Lt(it->first, snd_una_)) {
        it = recovery_retx_.erase(it);
      } else {
        ++it;
      }
    }
    if (Seq32Ge(ack, recover_)) {
      // Full ACK: leave recovery.
      in_fast_recovery_ = false;
      recovery_retx_.clear();
      cwnd_ = ssthresh_;
    } else if (peer_sack_ok_) {
      // Partial ACK under SACK recovery: the pipe shrank; refill it.
      RestartRtoTimer();
      RecoverySend();
      return;
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate.
      uint32_t next_hole = snd_una_;
      uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(config_.mss, snd_nxt_ - next_hole));
      if (len > 0) {
        SendSegment(next_hole, len, /*is_retransmission=*/true);
      }
      cwnd_ = cwnd_ > newly_acked ? cwnd_ - newly_acked : config_.mss;
      cwnd_ += config_.mss;
      RestartRtoTimer();
      TrySendData();
      return;
    }
  } else {
    // Congestion window growth (RFC 5681, byte counting).
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(newly_acked, config_.mss);
    } else {
      uint32_t increment = std::max<uint32_t>(
          1, static_cast<uint32_t>(
                 static_cast<uint64_t>(config_.mss) * config_.mss / cwnd_));
      cwnd_ += increment;
    }
  }

  if (FlightSize() == 0) {
    StopRtoTimer();
  } else {
    RestartRtoTimer();
  }

  // Transfer completion: all application bytes acked.
  if (bytes_to_send_ > 0 && !complete_ &&
      bytes_acked_ >= bytes_to_send_) {
    complete_ = true;
    StopRtoTimer();
    if (on_complete) {
      on_complete();
    }
    return;
  }
  TrySendData();
}

void TcpSender::EnterFastRecovery() {
  ++stats_.fast_retransmits;
  in_fast_recovery_ = true;
  recover_ = snd_nxt_;
  recovery_retx_.clear();
  uint32_t flight = FlightSize();
  ssthresh_ = std::max(flight / 2, 2 * config_.mss);
  if (peer_sack_ok_) {
    cwnd_ = ssthresh_;
    recovery_retx_[snd_una_] = scheduler_->Now();
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(config_.mss, snd_nxt_ - snd_una_));
    SendSegment(snd_una_, len, /*is_retransmission=*/true);
    RestartRtoTimer();
    RecoverySend();
    return;
  }
  cwnd_ = ssthresh_ + 3 * config_.mss;
  uint32_t len = static_cast<uint32_t>(
      std::min<uint64_t>(config_.mss, snd_nxt_ - snd_una_));
  SendSegment(snd_una_, len, /*is_retransmission=*/true);
  RestartRtoTimer();
}

uint32_t TcpSender::HighestSacked() const {
  uint32_t highest = snd_una_;
  for (const SackBlock& block : sacked_) {
    highest = Seq32Max(highest, block.end);
  }
  return highest;
}

namespace {
// A retransmission older than this is presumed lost (tail-dropped) and may
// be sent again.
SimTime ReretransmitThreshold(SimTime srtt) {
  SimTime two_rtt = SimTime::Nanos(2 * srtt.ns());
  return std::max(two_rtt, SimTime::Millis(20));
}
}  // namespace

uint32_t TcpSender::ComputePipe() const {
  // RFC 6675 §4: octets outstanding = neither SACKed nor deemed lost, plus
  // retransmitted octets. A hole below the highest SACKed edge that has not
  // been (recently) retransmitted this episode is deemed lost.
  uint32_t highest = HighestSacked();
  SimTime now = scheduler_->Now();
  SimTime stale_after = ReretransmitThreshold(srtt_);
  uint32_t pipe = 0;
  for (uint32_t seq = snd_una_; Seq32Lt(seq, snd_nxt_); seq += config_.mss) {
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(config_.mss, snd_nxt_ - seq));
    auto retx = recovery_retx_.find(seq);
    bool retransmitted_live =
        retx != recovery_retx_.end() && now - retx->second < stale_after;
    if (IsSacked(seq, len)) {
      if (retransmitted_live) {
        pipe += len;  // the retransmission itself is still in flight
      }
      continue;
    }
    bool lost = Seq32Lt(seq, highest) && !retransmitted_live;
    if (!lost) {
      pipe += len;
    }
    if (retransmitted_live) {
      pipe += len;
    }
  }
  return pipe;
}

void TcpSender::RecoverySend() {
  uint32_t highest = HighestSacked();
  SimTime now = scheduler_->Now();
  SimTime stale_after = ReretransmitThreshold(srtt_);
  while (true) {
    uint32_t pipe = ComputePipe();
    if (pipe + config_.mss > cwnd_) {
      return;
    }
    // Priority 1: lowest hole below the highest SACKed edge that is not
    // covered by a live retransmission.
    bool sent = false;
    for (uint32_t seq = snd_una_; Seq32Lt(seq, highest);
         seq += config_.mss) {
      uint32_t len = static_cast<uint32_t>(
          std::min<uint64_t>(config_.mss, snd_nxt_ - seq));
      if (len == 0 || IsSacked(seq, len)) {
        continue;
      }
      auto retx = recovery_retx_.find(seq);
      if (retx != recovery_retx_.end() && now - retx->second < stale_after) {
        continue;  // retransmission still presumed in flight
      }
      recovery_retx_[seq] = now;
      SendSegment(seq, len, /*is_retransmission=*/true);
      sent = true;
      break;
    }
    if (sent) {
      continue;
    }
    // Priority 2: new data (RFC 6675 NextSeg rule 2). Essential under HACK:
    // fresh data batches are the vehicle that carries the receiver's held
    // ACKs back (§3.2) — starving the forward path stalls the ACK clock.
    uint64_t remaining = RemainingAppBytes();
    uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(config_.mss, remaining));
    if (len == 0) {
      return;
    }
    SendSegment(snd_nxt_, len, /*is_retransmission=*/false);
    snd_nxt_ += len;
    stats_.bytes_sent += len;
  }
}

void TcpSender::HandleRtoExpiry() {
  rto_event_ = kInvalidEventId;
  if (state_ == State::kSynSent) {
    rto_backoff_ = std::min(rto_backoff_ + 1, 10);  // exponential SYN retry
    SendSyn();
    return;
  }
  if (complete_ || FlightSize() == 0) {
    return;
  }
  ++stats_.timeouts;
  // RFC 5681 / 6298: collapse to one segment, back off the timer.
  ssthresh_ = std::max(FlightSize() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  in_fast_recovery_ = false;
  dupack_count_ = 0;
  sacked_.clear();  // RFC 2018: SACK info may be discarded on timeout
  rto_backoff_ = std::min(rto_backoff_ + 1, 10);
  uint32_t len = static_cast<uint32_t>(
      std::min<uint64_t>(config_.mss, snd_nxt_ - snd_una_));
  SendSegment(snd_una_, len, /*is_retransmission=*/true);
  RestartRtoTimer();
}

void TcpSender::RestartRtoTimer() {
  StopRtoTimer();
  SimTime rto = rto_;
  for (int i = 0; i < rto_backoff_; ++i) {
    rto = rto * 2;
    if (rto > kTcpRtoMax) {
      rto = kTcpRtoMax;
      break;
    }
  }
  rto_event_ = scheduler_->ScheduleIn(
      rto, [this]() { HandleRtoExpiry(); }, EventClass::kTransportTimer);
}

void TcpSender::StopRtoTimer() {
  if (rto_event_ != kInvalidEventId) {
    scheduler_->Cancel(rto_event_);
    rto_event_ = kInvalidEventId;
  }
}

void TcpSender::UpdateRtt(SimTime measured) {
  if (!rtt_seeded_) {
    rtt_seeded_ = true;
    srtt_ = measured;
    rttvar_ = SimTime::Nanos(measured.ns() / 2);
  } else {
    int64_t err = srtt_.ns() - measured.ns();
    if (err < 0) {
      err = -err;
    }
    rttvar_ = SimTime::Nanos((3 * rttvar_.ns() + err) / 4);
    srtt_ = SimTime::Nanos((7 * srtt_.ns() + measured.ns()) / 8);
  }
  SimTime rto = srtt_ + std::max(kTcpTsGranularity,
                                 SimTime::Nanos(4 * rttvar_.ns()));
  rto_ = std::clamp(rto, kTcpRtoMin, kTcpRtoMax);
}

}  // namespace hacksim
