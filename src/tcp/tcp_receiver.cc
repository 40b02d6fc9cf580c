#include "src/tcp/tcp_receiver.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

TcpReceiver::TcpReceiver(Scheduler* scheduler, TcpConfig config,
                         FiveTuple flow, std::function<void(Packet)> send)
    : scheduler_(scheduler),
      config_(config),
      flow_(flow),
      send_(std::move(send)) {}

void TcpReceiver::OnPacket(const Packet& packet) {
  if (!packet.has_tcp()) {
    return;
  }
  const TcpHeader& tcp = packet.tcp();

  if (tcp.flag_syn && !tcp.flag_ack) {
    // New connection (or retransmitted SYN).
    irs_ = tcp.seq;
    rcv_nxt_ = irs_ + 1;
    if (tcp.timestamps.has_value()) {
      ts_recent_ = tcp.timestamps->tsval;
    }
    state_ = State::kSynRcvd;
    SendSynAck();
    return;
  }
  if (state_ == State::kListen) {
    return;
  }
  if (state_ == State::kSynRcvd) {
    if (tcp.flag_ack && tcp.ack == iss_ + 1) {
      state_ = State::kEstablished;
      snd_nxt_ = iss_ + 1;
    } else {
      return;
    }
  }
  if (packet.payload_bytes() > 0) {
    AcceptData(packet);
  }
}

void TcpReceiver::SendSynAck() {
  TcpHeader tcp;
  FiveTuple back = flow_.Reversed();
  tcp.src_port = back.src_port;
  tcp.dst_port = back.dst_port;
  tcp.seq = iss_;
  tcp.ack = rcv_nxt_;
  tcp.flag_syn = true;
  tcp.flag_ack = true;
  tcp.window = 65535;
  tcp.mss = static_cast<uint16_t>(config_.mss);
  tcp.window_scale = kTcpWindowScale;
  tcp.sack_permitted = true;
  tcp.timestamps = TcpTimestamps{TsClock(scheduler_->Now()), ts_recent_};
  Packet p = Packet::MakeTcp(back.src_ip, back.dst_ip, tcp, 0);
  p.mutable_ip().tos = config_.tos;
  p.set_created_at(scheduler_->Now());
  send_(std::move(p));
}

void TcpReceiver::AcceptData(const Packet& packet) {
  const TcpHeader& tcp = packet.tcp();
  ++stats_.segments_received;
  uint32_t seq = tcp.seq;
  uint32_t end = seq + packet.payload_bytes();

  // RFC 7323: update the echo value from segments at the left window edge.
  if (tcp.timestamps.has_value() && Seq32Le(seq, rcv_nxt_)) {
    ts_recent_ = tcp.timestamps->tsval;
  }

  if (Seq32Le(end, rcv_nxt_)) {
    // Entirely old (spurious retransmission): re-ACK immediately.
    MaybeSendAck(/*force_immediate=*/true);
    return;
  }

  bool had_ooo = !ooo_.empty();
  bool advanced = false;
  if (Seq32Le(seq, rcv_nxt_)) {
    // In-order (possibly partially old): advance, then absorb any
    // out-of-order blocks this joins with.
    uint32_t old_rcv_nxt = rcv_nxt_;
    rcv_nxt_ = end;
    advanced = true;
    auto it = ooo_.begin();
    while (it != ooo_.end() && Seq32Le(it->first, rcv_nxt_)) {
      rcv_nxt_ = Seq32Max(rcv_nxt_, it->second);
      it = ooo_.erase(it);
    }
    uint64_t delivered = rcv_nxt_ - old_rcv_nxt;
    stats_.bytes_delivered += delivered;
    if (on_data) {
      on_data(delivered);
    }
  } else {
    // Out of order: store and merge the block.
    ++stats_.out_of_order_segments;
    last_sacked_edge_ = seq;
    auto [it, inserted] = ooo_.emplace(seq, end);
    if (!inserted && Seq32Gt(end, it->second)) {
      it->second = end;
    }
    it = ooo_.begin();
    while (it != ooo_.end()) {
      auto next = std::next(it);
      if (next != ooo_.end() && Seq32Le(next->first, it->second)) {
        it->second = Seq32Max(it->second, next->second);
        ooo_.erase(next);
      } else {
        ++it;
      }
    }
  }

  // ACK policy (RFC 5681 §4.2): immediate ACK for out-of-order segments
  // (dupacks drive fast retransmit) and for segments filling all or part of
  // a gap; otherwise the delayed-ACK rule applies.
  ++segments_since_ack_;
  bool force = !advanced || (advanced && had_ooo);
  MaybeSendAck(force);
}

void TcpReceiver::MaybeSendAck(bool force_immediate) {
  if (force_immediate || segments_since_ack_ >= kTcpDelayedAckSegments) {
    SendAck();
    return;
  }
  if (delack_event_ == kInvalidEventId) {
    delack_event_ = scheduler_->ScheduleIn(
        kTcpDelayedAckTimeout, [this]() { OnDelackTimer(); },
        EventClass::kTransportTimer);
  }
}

void TcpReceiver::OnDelackTimer() {
  delack_event_ = kInvalidEventId;
  ++stats_.delack_timer_fires;
  if (segments_since_ack_ > 0) {
    SendAck();
  }
}

uint16_t TcpReceiver::AdvertisedWindowField() const {
  uint32_t window_bytes = kTcpReceiveWindowBytes;
  if (window_override) {
    window_bytes = window_override(stats_.acks_sent);
  }
  uint32_t field = window_bytes >> kTcpWindowScale;
  return static_cast<uint16_t>(std::min<uint32_t>(field, 65535));
}

SackList TcpReceiver::BuildSackBlocks() const {
  SackList blocks;
  if (ooo_.empty()) {
    return blocks;
  }
  // Most recently changed block first (RFC 2018), then the rest, max 3
  // (timestamps occupy option space).
  for (const auto& [start, end] : ooo_) {
    if (Seq32Le(start, last_sacked_edge_) && Seq32Lt(last_sacked_edge_, end)) {
      blocks.push_back(SackBlock{start, end});
      break;
    }
  }
  for (const auto& [start, end] : ooo_) {
    if (blocks.size() >= 3) {
      break;
    }
    if (!blocks.empty() && blocks[0].start == start) {
      continue;
    }
    blocks.push_back(SackBlock{start, end});
  }
  return blocks;
}

void TcpReceiver::SendAck() {
  if (delack_event_ != kInvalidEventId) {
    scheduler_->Cancel(delack_event_);
    delack_event_ = kInvalidEventId;
  }
  segments_since_ack_ = 0;

  TcpHeader tcp;
  FiveTuple back = flow_.Reversed();
  tcp.src_port = back.src_port;
  tcp.dst_port = back.dst_port;
  tcp.seq = snd_nxt_;
  tcp.ack = rcv_nxt_;
  tcp.flag_ack = true;
  tcp.window = AdvertisedWindowField();
  tcp.timestamps = TcpTimestamps{TsClock(scheduler_->Now()), ts_recent_};
  tcp.sack_blocks = BuildSackBlocks();
  Packet p = Packet::MakeTcp(back.src_ip, back.dst_ip, tcp, 0);
  p.mutable_ip().tos = config_.tos;
  p.set_created_at(scheduler_->Now());
  ++stats_.acks_sent;
  if (!ooo_.empty()) {
    ++stats_.dupacks_sent;
  }
  send_(std::move(p));
}

}  // namespace hacksim
