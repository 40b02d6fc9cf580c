#include "src/apps/udp_app.h"

#include <algorithm>

#include "src/util/logging.h"

namespace hacksim {

UdpCbrSource::UdpCbrSource(Scheduler* scheduler, Config config,
                           FiveTuple flow, std::function<void(Packet)> send)
    : scheduler_(scheduler),
      config_(config),
      flow_(flow),
      send_(std::move(send)) {
  double bits_per_packet = config_.payload_bytes * 8.0;
  interval_ = SimTime::FromSecondsF(bits_per_packet / config_.rate_bps);
  CHECK_GT(interval_.ns(), 0);
  uint32_t burst_packets = 1;
  if (config_.burst_window > interval_) {
    // The burst adapts to the interval: as many CBR ticks as fit in the
    // window, bounded by the per-refill cap.
    uint64_t fit = static_cast<uint64_t>(config_.burst_window.ns()) /
                   static_cast<uint64_t>(interval_.ns());
    burst_packets = static_cast<uint32_t>(
        std::min<uint64_t>(fit, kMaxBurstPackets));
  }
  period_ = interval_ * static_cast<int>(burst_packets);
}

void UdpCbrSource::Start() { ArmAt(config_.start); }

void UdpCbrSource::Stop() {
  // The pending refill carries the old epoch and dies on arrival.
  config_.stop = scheduler_->Now();
  ++epoch_;
  // Release the ticks accrued since the last refill. Strict <, because a
  // tick at exactly the stop instant dies (fault events are scheduled
  // ahead of same-nanosecond refills).
  while (next_emit_ < config_.stop) {
    EmitOne();
    next_emit_ = next_emit_ + interval_;
  }
}

void UdpCbrSource::Resume(SimTime at, SimTime stop) {
  ++epoch_;
  config_.stop = stop;
  ArmAt(std::max(at, scheduler_->Now()));
}

void UdpCbrSource::ArmAt(SimTime from) {
  next_emit_ = from;
  scheduler_->ScheduleAt(from, [this, epoch = epoch_]() { Refill(epoch); },
                         EventClass::kTransportTimer);
}

// Releases every CBR tick accrued up to now, then re-arms one period out
// (clamped to the configured stop, so a finite stop flushes its tail
// exactly). Once the next tick reaches the stop, nothing stays armed.
void UdpCbrSource::Refill(uint64_t epoch) {
  if (epoch != epoch_) {
    return;  // stranded by a Stop()/Resume() since this refill was armed
  }
  SimTime now = scheduler_->Now();
  while (next_emit_ <= now && next_emit_ < config_.stop) {
    EmitOne();
    next_emit_ = next_emit_ + interval_;
  }
  if (next_emit_ >= config_.stop) {
    return;  // configured stop reached: nothing further accrues
  }
  SimTime next_refill = std::min(now + period_, config_.stop);
  scheduler_->ScheduleAt(next_refill,
                         [this, epoch]() { Refill(epoch); },
                         EventClass::kTransportTimer);
}

void UdpCbrSource::EmitOne() {
  Packet p = Packet::MakeUdp(flow_.src_ip, flow_.dst_ip, flow_.src_port,
                             flow_.dst_port, config_.payload_bytes);
  p.set_created_at(scheduler_->Now());
  send_(std::move(p));
  ++packets_sent_;
}

void UdpSink::OnPacket(const Packet& packet) {
  if (!packet.has_udp()) {
    return;
  }
  bytes_received_ += packet.payload_bytes();
  tracker_.OnBytesDelivered(scheduler_->Now(), packet.payload_bytes());
  if (latency_ != nullptr) {
    latency_->RecordDelivery(packet, scheduler_->Now(), delay_chain_);
  }
}

}  // namespace hacksim
