#include "src/mac80211/wifi_mac.h"

#include <algorithm>
#include <bit>

#include "src/util/logging.h"

namespace hacksim {
namespace {

// Retries allowed per MPDU, and per BAR on a stalled Block ACK agreement,
// before the MAC gives up on it.
constexpr int kMpduRetryLimit = 7;
constexpr int kBarRetryLimit = 7;
// Consecutive CTS timeouts for one destination after which a single
// exchange is sent unprotected (forward progress past a CTS-deaf peer).
constexpr int kRtsRetryLimit = 7;

// EIFS adds the time to hear the lowest-rate ACK after a failed reception.
SimTime EifsExtra(const PhyTimings& timings) {
  WifiMode lowest{PhyFormat::kLegacyOfdm, 6000, 24, 1};
  return timings.sifs + FrameDuration(lowest, kAckBytes);
}

bool IsResponseFrame(const Ppdu& ppdu) {
  WifiFrameType t = ppdu.first().type;
  return t == WifiFrameType::kAck || t == WifiFrameType::kBlockAck ||
         t == WifiFrameType::kCts;
}

// IP-datagram airtime of the MPDUs at the PPDU's rate (no preamble, no MAC
// framing) — the paper's Table 3 "TCP ACK" accounting.
SimTime PayloadAirtime(const Ppdu& ppdu) {
  uint64_t bytes = 0;
  for (const WifiFrame& mpdu : ppdu.mpdus) {
    if (mpdu.packet.has_value()) {
      bytes += mpdu.packet->SizeBytes();
    }
  }
  return SimTime::Nanos(static_cast<int64_t>(
      bytes * 8 * 1'000'000 / ppdu.mode.rate_kbps));
}

}  // namespace

uint8_t ClassifyAc(const Packet& packet) {
  return packet.has_ip() ? AcForTos(packet.ip().tos) : kAcBe;
}

// --- TxState outstanding ring -------------------------------------------------

WifiMac::OutstandingMpdu* WifiMac::TxState::FindOutstanding(uint16_t seq) {
  if (outstanding.empty()) {
    return nullptr;
  }
  std::optional<OutstandingMpdu>& slot = outstanding[seq % kMaxAmpduMpdus];
  if (!slot.has_value() || slot->frame.seq != seq) {
    return nullptr;
  }
  return &*slot;
}

WifiMac::OutstandingMpdu& WifiMac::TxState::AddOutstanding(
    uint16_t seq, OutstandingMpdu mpdu) {
  if (outstanding.empty()) {
    outstanding.resize(kMaxAmpduMpdus);
  }
  std::optional<OutstandingMpdu>& slot = outstanding[seq % kMaxAmpduMpdus];
  CHECK(!slot.has_value()) << "outstanding seq " << seq << " already present";
  slot.emplace(std::move(mpdu));
  ++outstanding_count;
  return *slot;
}

void WifiMac::TxState::EraseOutstanding(uint16_t seq) {
  std::optional<OutstandingMpdu>& slot = outstanding[seq % kMaxAmpduMpdus];
  CHECK(slot.has_value());
  slot.reset();
  --outstanding_count;
}

void WifiMac::TxState::ClearOutstanding() {
  for (std::optional<OutstandingMpdu>& slot : outstanding) {
    slot.reset();
  }
  outstanding_count = 0;
}

// ------------------------------------------------------------------------------

WifiMac::WifiMac(Scheduler* scheduler, WifiPhy* phy, MacAddress address,
                 WifiMacConfig config, Random rng)
    : scheduler_(scheduler),
      phy_(phy),
      address_(address),
      config_(config),
      timings_(TimingsFor(config.standard)),
      dcf_(scheduler, rng.Fork(),
           DcfEngine::Config{TimingsFor(config.standard).slot,
                             TimingsFor(config.standard).difs,
                             TimingsFor(config.standard).cw_min,
                             TimingsFor(config.standard).cw_max,
                             EifsExtra(TimingsFor(config.standard))}),
      current_data_mode_(config.data_mode) {
  phy_->set_listener(this);
  dcf_.on_grant = [this]() { OnAccessGranted(kAcBe); };
  if (config_.edca_enabled) {
    // Per-AC engines for VO/VI/BK, each with its own fork of the MAC's RNG
    // (taken here, in declaration order, AFTER dcf_'s member-init fork —
    // legacy mode takes none of these forks, so dcf_'s stream is untouched).
    // BE needs no engine: dcf_ already runs AIFS[BE]/CW[BE] (= DIFS and the
    // PHY's CW bounds), see EngineFor().
    contending_acs_ = {kAcVo, kAcVi, kAcBe, kAcBk};
    for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
      if (ac == kAcBe) {
        continue;
      }
      const EdcaAcParams& params = kEdcaTable[ac];
      edca_engines_[ac] = std::make_unique<DcfEngine>(
          scheduler, rng.Fork(),
          DcfEngine::Config{timings_.slot,
                            timings_.sifs + timings_.slot * params.aifsn,
                            params.cw_min, params.cw_max,
                            EifsExtra(timings_)});
      edca_engines_[ac]->on_grant = [this, ac]() { OnAccessGranted(ac); };
    }
  }
  if (config_.standard == WifiStandard::k80211a) {
    config_.enable_ampdu = false;
  }
  rate_table_ = config_.standard == WifiStandard::k80211a ? Modes80211a()
                                                          : Modes80211n();
  bool found = false;
  for (size_t i = 0; i < rate_table_.size(); ++i) {
    if (rate_table_[i] == config_.data_mode) {
      data_mode_index_ = i;
      found = true;
      break;
    }
  }
  current_mode_index_ = data_mode_index_;
  if (config_.enable_rate_adaptation) {
    CHECK(found) << "rate adaptation needs data_mode in the standard table";
    rate_ctrl_.emplace(rate_table_, data_mode_index_, config_.rate_adapt);
  }
}

// --- upper-layer interface ----------------------------------------------------

void WifiMac::Associate(MacAddress peer) {
  StationId sid = stations_.Intern(peer);
  TxState& st = TxFor(sid);
  // A recycled or re-associated id may carry a previous incarnation's
  // queue, rings and scoreboard (e.g. a silent crash the AP never saw);
  // scrub them so the fresh association starts cold. The service-ring slot
  // is kept (deactivated), matching the flushed state.
  if (st.next_seq != 0 || st.win_start != 0 || st.HasWork() ||
      st.consecutive_give_ups != 0) {
    if (phase_ != TxPhase::kIdle && sid == current_dest_sid_) {
      current_dest_gone_ = true;
    }
    uint32_t slot = st.service_slot;
    st = TxState{};
    st.service_slot = slot;
    if (slot != TxState::kNoServiceSlot) {
      for (ActiveSlotRing& ring : ac_rings_) {
        ring.Set(slot, false);
      }
    }
  }
  RxFor(sid) = RxState{};
}

size_t WifiMac::FlushStation(TxState& st) {
  size_t flushed = st.queue.size();
  st.queue.clear();
  if (st.edca_queues != nullptr) {
    for (std::deque<Packet>& q : *st.edca_queues) {
      flushed += q.size();
      q.clear();
    }
  }
  flushed += st.outstanding_count;
  st.ClearOutstanding();
  if (st.single_inflight.has_value()) {
    ++flushed;
    st.single_inflight.reset();
  }
  st.bar_pending = false;
  return flushed;
}

void WifiMac::Disassociate(MacAddress peer) {
  StationId sid = stations_.Find(peer);
  if (sid == kInvalidStationId) {
    return;
  }
  if (phase_ != TxPhase::kIdle && sid == current_dest_sid_) {
    // Mid-exchange removal: let the in-flight response/timeout resolve as
    // a no-op instead of mutating a TxState a new peer may inherit.
    current_dest_gone_ = true;
  }
  if (sid < tx_.size()) {
    TxState& st = tx_[sid];
    stats_.disassociation_flushes += FlushStation(st);
    uint32_t slot = st.service_slot;
    st = TxState{};
    if (slot != TxState::kNoServiceSlot) {
      for (ActiveSlotRing& ring : ac_rings_) {
        ring.Set(slot, false);
        ring.ReleaseSlot(slot);
      }
    }
  }
  if (sid < rx_.size()) {
    rx_[sid] = RxState{};
  }
  stations_.Disassociate(peer);
}

void WifiMac::ResetRadioState() {
  scheduler_->Cancel(response_timeout_event_);
  response_timeout_event_ = kInvalidEventId;
  scheduler_->Cancel(cts_timeout_event_);
  cts_timeout_event_ = kInvalidEventId;
  scheduler_->Cancel(nav_reset_probe_event_);
  nav_reset_probe_event_ = kInvalidEventId;
  nav_provisional_ = false;
  // Strand every SIFS-delayed closure (responses, the CTS→data hop) still
  // in the wheel: they check the epoch and die quietly.
  ++reset_epoch_;
  responses_pending_ = 0;
  phase_ = TxPhase::kIdle;
  current_dest_gone_ = false;
  current_dest_sid_ = kInvalidStationId;
  pending_data_ppdu_.reset();
  current_batch_seqs_.clear();
  tx_.clear();
  rx_.clear();
  stations_ = StationTable{};
  for (ActiveSlotRing& ring : ac_rings_) {
    ring = ActiveSlotRing{};
  }
  current_ac_ = kAcBe;
  service_slot_station_.clear();
  // Callers power the radio down before resetting (and maybe back up
  // after), so no arrival can be in progress here: the medium is idle from
  // the MAC's point of view, and the DCF restarts from a cold boot.
  phy_busy_ = false;
  nav_until_ = scheduler_->Now();
  medium_busy_reported_ = false;
  reported_idle_from_ = scheduler_->Now();
  ForEachEngine([](DcfEngine& engine) { engine.Reset(); });
}

void WifiMac::EnsureServiceSlot(StationId sid, TxState& st) {
  if (st.service_slot != TxState::kNoServiceSlot) {
    return;
  }
  // Lockstep: every ring sees the same AddSlot/ReleaseSlot history (all
  // recycle LIFO), so slot indices agree across all of them.
  size_t slot = ac_rings_[0].AddSlot();
  for (uint8_t ac = 1; ac < kNumAcs; ++ac) {
    size_t ac_slot = ac_rings_[ac].AddSlot();
    CHECK(ac_slot == slot);
  }
  st.service_slot = static_cast<uint32_t>(slot);
  if (slot == service_slot_station_.size()) {
    service_slot_station_.push_back(sid);
  } else {
    service_slot_station_[slot] = sid;  // recycled slot: new occupant
  }
}

void WifiMac::UpdateServiceRing(TxState& st) {
  if (st.service_slot == TxState::kNoServiceSlot) {
    return;  // never enqueued to: cannot have work
  }
  for (uint8_t ac : contending_acs_) {
    ac_rings_[ac].Set(st.service_slot, AcHasWork(st, ac));
  }
}

bool WifiMac::AcHasWork(const TxState& st, uint8_t ac) const {
  // Recovery work (BAR, un-acked outstanding MPDUs, a single in flight)
  // belongs to the AC that originally transmitted it.
  bool recovery = st.bar_pending || st.outstanding_count > 0 ||
                  st.single_inflight.has_value();
  if (recovery && st.recovery_ac == ac) {
    return true;
  }
  if (ac == kAcBe) {
    return !st.queue.empty();
  }
  return st.edca_queues != nullptr && !(*st.edca_queues)[ac].empty();
}

std::deque<Packet>& WifiMac::SendQueue(TxState& st, uint8_t ac) {
  if (ac == kAcBe) {
    return st.queue;
  }
  if (st.edca_queues == nullptr) {
    st.edca_queues =
        std::make_unique<std::array<std::deque<Packet>, kNumAcs>>();
  }
  return (*st.edca_queues)[ac];
}

SimTime WifiMac::TxopLimitFor(uint8_t ac) const {
  if (kEdcaTable[ac].txop_limit.IsZero()) {
    return config_.txop_limit;
  }
  return kEdcaTable[ac].txop_limit;
}

void WifiMac::Enqueue(Packet&& packet, MacAddress dest) {
  if (!phy_->radio_on()) {
    // Dead interface: upper layers see the same silence a real driver
    // gives — the packet is dropped at the door.
    ++stats_.radio_off_drops;
    return;
  }
  StationId sid = stations_.Intern(dest);
  TxState& st = TxFor(sid);
  EnsureServiceSlot(sid, st);
  uint8_t ac = config_.edca_enabled ? ClassifyAc(packet) : kAcBe;
  std::deque<Packet>& q = SendQueue(st, ac);
  if (q.size() >= config_.per_dest_queue_limit) {
    // Drop-tail: TCP's congestion control depends on this signal. Under
    // EDCA the limit applies per (destination, AC) queue.
    ++stats_.queue_drops;
    return;
  }
  q.push_back(std::move(packet));
  UpdateServiceRing(st);
  MaybeRequestAccess();
}

size_t WifiMac::QueueDepth(MacAddress dest) const {
  StationId sid = stations_.Find(dest);
  if (sid == kInvalidStationId || sid >= tx_.size()) {
    return 0;
  }
  const TxState& st = tx_[sid];
  size_t depth = st.queue.size();
  if (st.edca_queues != nullptr) {
    for (const std::deque<Packet>& q : *st.edca_queues) {
      depth += q.size();
    }
  }
  return depth;
}

size_t WifiMac::RemoveQueued(MacAddress dest,
                             const std::function<bool(const Packet&)>& pred) {
  StationId sid = stations_.Find(dest);
  if (sid == kInvalidStationId || sid >= tx_.size()) {
    return 0;
  }
  TxState& st = tx_[sid];
  size_t removed = 0;
  auto remove_from = [&](std::deque<Packet>& q) {
    size_t before = q.size();
    q.erase(std::remove_if(q.begin(), q.end(), pred), q.end());
    removed += before - q.size();
  };
  remove_from(st.queue);
  if (st.edca_queues != nullptr) {
    // HACK pulls vanilla TCP ACKs, which classify BE (tos 0) and live in
    // st.queue — but stay correct for any predicate.
    for (std::deque<Packet>& q : *st.edca_queues) {
      remove_from(q);
    }
  }
  UpdateServiceRing(st);
  return removed;
}

// --- originator pipeline --------------------------------------------------------

void WifiMac::MaybeRequestAccess() {
  if (phase_ != TxPhase::kIdle) {
    return;
  }
  // Every AC with work contends independently; the internal contention in
  // OnAccessGranted resolves same-instant winners.
  for (uint8_t ac : contending_acs_) {
    if (ac_rings_[ac].Empty()) {
      continue;
    }
    DcfEngine& engine = EngineFor(ac);
    if (!engine.access_pending()) {
      ac_request_time_[ac] = scheduler_->Now();
      engine.RequestAccess();
    }
  }
}

WifiMac::TxState* WifiMac::PickNextDest(uint8_t ac, StationId* sid_out) {
  ActiveSlotRing& ring = ac_rings_[ac];
  size_t slot;
  if (!ring.PickNext(&slot)) {
    return nullptr;
  }
  StationId sid = service_slot_station_[slot];
  *sid_out = sid;
  return &tx_[sid];
}

void WifiMac::OnAccessGranted(uint8_t ac) {
  if (phase_ != TxPhase::kIdle) {
    // EDCA only: another AC's exchange is mid-flight (its grant can fire
    // while we await a response on an idle medium — AIFS + backoff can
    // elapse inside the response-timeout window). The request was consumed
    // when this grant fired; MaybeRequestAccess at exchange end re-requests
    // for every AC that still has work. Deliberately NO RequestAccess here:
    // backoff_slots_ is -1 after a fired grant, so an immediate re-request
    // could re-grant this same nanosecond, forever.
    CHECK(config_.edca_enabled);
    return;
  }
  SimTime now = scheduler_->Now();
  // Internal contention (802.11e 9.9.1.3): of the engines granted at the
  // same instant, only the highest-priority AC transmits; every loser
  // suffers a virtual collision. Same-nanosecond grants may fire in any
  // FIFO order, so both directions are handled: if a HIGHER-priority
  // engine's grant is armed for this instant (it fires later this ns),
  // *we* are the loser and stand down; any LOWER-priority engine armed
  // for this instant loses to us. contending_acs_ runs highest priority
  // first, so every higher AC is checked before any lower one is demoted.
  for (uint8_t other : contending_acs_) {
    DcfEngine& engine = EngineFor(other);
    if (other == ac || !engine.has_armed_grant() ||
        engine.armed_grant_time() != now) {
      continue;
    }
    ++stats_.virtual_collisions;
    if (other < ac) {
      DcfEngine& self = EngineFor(ac);
      self.NotifyTxFailure();
      self.RequestAccess();
      return;
    }
    engine.NotifyInternalCollision();
  }
  current_ac_ = ac;
  StationId sid = kInvalidStationId;
  TxState* st = PickNextDest(ac, &sid);
  if (st == nullptr) {
    return;  // work disappeared (e.g. opportunistic HACK removed ACKs)
  }
  StartExchange(sid, *st);
}

SimTime WifiMac::ResponseTimeoutDelay(bool block_ack_expected) const {
  WifiMode resp_mode = ControlResponseMode(current_data_mode_);
  size_t resp_bytes = (block_ack_expected ? kBlockAckBytes : kAckBytes) +
                      config_.max_hack_payload_bytes;
  return timings_.sifs + FrameDuration(resp_mode, resp_bytes) +
         timings_.ack_timeout + config_.extra_ack_timeout;
}

SimTime WifiMac::CtsTimeoutDelay() const {
  WifiMode cts_mode = ControlResponseMode(current_data_mode_);
  return timings_.sifs + FrameDuration(cts_mode, kCtsBytes) +
         timings_.ack_timeout + config_.extra_ack_timeout;
}

void WifiMac::StartExchange(StationId sid, TxState& st) {
  current_dest_ = stations_.AddressOf(sid);
  current_dest_sid_ = sid;
  current_batch_seqs_.clear();
  current_all_tcp_acks_ = false;

  if (st.bar_pending) {
    current_is_bar_ = true;
    current_aggregated_ = false;
    current_data_mode_ = config_.data_mode;
    WifiFrame bar;
    bar.type = WifiFrameType::kBlockAckReq;
    bar.ta = address_;
    bar.ra = current_dest_;
    bar.bar_start_seq = st.win_start;
    WifiMode bar_mode = ControlResponseMode(config_.data_mode);
    bar.duration_field =
        timings_.sifs + FrameDuration(bar_mode, kBlockAckBytes);
    Ppdu ppdu;
    ppdu.mpdus.push_back(std::move(bar));
    ppdu.aggregated = false;
    ppdu.mode = bar_mode;
    ++stats_.bars_sent;
    UpdateServiceRing(st);
    phase_ = TxPhase::kTransmitting;
    ++stats_.ppdus_sent;
    bool sent = phy_->Send(std::move(ppdu));
    CHECK(sent) << "BAR transmission while PHY busy should be impossible";
    return;
  }

  current_is_bar_ = false;
  Ppdu ppdu = BuildDataPpdu(current_dest_, st);
  if (ppdu.mpdus.empty()) {
    if (rate_ctrl_.has_value()) {
      rate_ctrl_->AbandonPick(sid);  // no PPDU: the pick saw no air
    }
    UpdateServiceRing(st);
    return;  // nothing sendable (window exhausted)
  }
  UpdateServiceRing(st);
  current_data_mode_ = ppdu.mode;

  if (config_.rts_threshold > 0 &&
      ppdu.PsduBytes() > config_.rts_threshold) {
    if (!st.rts_bypass_once) {
      SendRtsFor(std::move(ppdu));
      return;
    }
    // Retry limit hit last time round: one unprotected shot, then the
    // handshake is back on.
    st.rts_bypass_once = false;
    ++stats_.rts_bypasses;
  }
  phase_ = TxPhase::kTransmitting;
  TransmitDataPpdu(std::move(ppdu));
}

void WifiMac::SendRtsFor(Ppdu data_ppdu) {
  WifiMode rts_mode = ControlResponseMode(data_ppdu.mode);
  WifiMode cts_mode = ControlResponseMode(rts_mode);
  WifiMode resp_mode = ControlResponseMode(data_ppdu.mode);
  size_t resp_bytes = data_ppdu.aggregated ? kBlockAckBytes : kAckBytes;

  WifiFrame rts;
  rts.type = WifiFrameType::kRts;
  rts.ta = address_;
  rts.ra = current_dest_;
  // The RTS Duration covers everything still to come after the RTS itself:
  // SIFS + CTS + SIFS + DATA + SIFS + response. Overhearers' NAV therefore
  // protects the whole sequence; the CTS re-advertises the remainder.
  rts.duration_field = timings_.sifs + FrameDuration(cts_mode, kCtsBytes) +
                       timings_.sifs + data_ppdu.Duration() + timings_.sifs +
                       FrameDuration(resp_mode, resp_bytes);

  Ppdu rts_ppdu;
  rts_ppdu.aggregated = false;
  rts_ppdu.mode = rts_mode;
  rts_ppdu.mpdus.push_back(std::move(rts));

  pending_data_ppdu_ = std::move(data_ppdu);
  phase_ = TxPhase::kTransmitting;
  ++stats_.rts_sent;
  bool sent = phy_->Send(std::move(rts_ppdu));
  CHECK(sent) << "RTS transmission while PHY busy should be impossible";
}

void WifiMac::TransmitDataPpdu(Ppdu ppdu) {
  CHECK(phase_ == TxPhase::kTransmitting);
  ++stats_.ppdus_sent;
  ++stats_.data_ppdus_by_mode_index[current_mode_index_];
  stats_.mpdu_tx_attempts += ppdu.mpdus.size();

  // Table 3 accounting for frames that carry (only) vanilla TCP ACKs.
  bool all_acks = true;
  for (const WifiFrame& mpdu : ppdu.mpdus) {
    if (!mpdu.packet.has_value() || !mpdu.packet->IsPureTcpAck()) {
      all_acks = false;
      break;
    }
  }
  current_all_tcp_acks_ = all_acks && !ppdu.mpdus.empty();
  if (current_all_tcp_acks_) {
    SimTime wait = scheduler_->Now() - ac_request_time_[current_ac_];
    SimTime payload_air = PayloadAirtime(ppdu);
    stats_.tcp_ack_frames_sent += ppdu.mpdus.size();
    for (const WifiFrame& mpdu : ppdu.mpdus) {
      stats_.tcp_ack_bytes_sent += mpdu.packet->SizeBytes();
    }
    stats_.tcp_ack_payload_airtime_ns += payload_air.ns();
    stats_.tcp_ack_channel_overhead_ns +=
        (wait + ppdu.Duration() - payload_air).ns();
  }

  if (config_.edca_enabled) {
    ++stats_.ac_ppdus_sent[current_ac_];
  }
  bool sent = phy_->Send(std::move(ppdu));
  CHECK(sent) << "data transmission while PHY busy should be impossible";
}

Ppdu WifiMac::BuildDataPpdu(MacAddress dest, TxState& st) {
  std::deque<Packet>& queue = SendQueue(st, current_ac_);
  const SimTime txop_limit = TxopLimitFor(current_ac_);
  Ppdu ppdu;
  if (rate_ctrl_.has_value()) {
    current_mode_index_ = rate_ctrl_->PickModeIndex(current_dest_sid_);
    ppdu.mode = rate_table_[current_mode_index_];
  } else {
    current_mode_index_ = data_mode_index_;
    ppdu.mode = config_.data_mode;
  }
  WifiMode resp_mode = ControlResponseMode(ppdu.mode);

  if (!config_.enable_ampdu) {
    // Stop-and-wait single MPDU.
    if (!st.single_inflight.has_value()) {
      if (queue.empty()) {
        return ppdu;
      }
      WifiFrame frame;
      frame.type = WifiFrameType::kData;
      frame.ta = address_;
      frame.ra = dest;
      frame.seq = st.next_seq;
      st.next_seq = SeqAdd(st.next_seq, 1);
      frame.packet = std::move(queue.front());
      queue.pop_front();
      st.single_inflight = OutstandingMpdu{std::move(frame), 0};
      st.recovery_ac = current_ac_;
    } else {
      st.single_inflight->frame.retry = true;
    }
    WifiFrame frame = st.single_inflight->frame;
    frame.more_data = !queue.empty();
    frame.sync = st.sync_pending;
    frame.duration_field =
        timings_.sifs + FrameDuration(resp_mode, kAckBytes);
    st.single_inflight->frame.more_data = frame.more_data;
    ppdu.aggregated = false;
    ppdu.mpdus.push_back(std::move(frame));
    current_aggregated_ = false;
    current_batch_seqs_.push_back(ppdu.mpdus.front().seq);
    return ppdu;
  }

  // A-MPDU: retransmissions first (sequence order), then fresh MPDUs, within
  // the Block ACK window, the 64 KB / 64-MPDU A-MPDU bounds and the TXOP.
  ppdu.aggregated = true;
  current_aggregated_ = true;
  size_t psdu_bytes = 0;
  // Admission check on the byte count alone, so fresh MPDUs can be sized
  // before their Packet is moved out of the queue.
  auto fits_bytes = [&](size_t mpdu_bytes) {
    size_t padded = (mpdu_bytes + 3) & ~size_t{3};
    size_t new_bytes = psdu_bytes + kAmpduDelimiterBytes + padded;
    if (new_bytes > kMaxAmpduBytes ||
        ppdu.mpdus.size() + 1 > kMaxAmpduMpdus) {
      return false;
    }
    return FrameDuration(ppdu.mode, new_bytes) <= txop_limit;
  };
  auto add = [&](WifiFrame frame) {
    size_t padded = (frame.SizeBytes() + 3) & ~size_t{3};
    psdu_bytes += kAmpduDelimiterBytes + padded;
    current_batch_seqs_.push_back(frame.seq);
    ppdu.mpdus.push_back(std::move(frame));
  };

  // Retransmissions in window order from win_start (the ring is naturally
  // sorted by SeqDistance(win_start, seq)).
  for (uint16_t i = 0;
       i < kMaxAmpduMpdus && st.outstanding_count > 0; ++i) {
    OutstandingMpdu* out = st.FindOutstanding(SeqAdd(st.win_start, i));
    if (out == nullptr) {
      continue;
    }
    if (!fits_bytes(out->frame.SizeBytes())) {
      break;
    }
    WifiFrame frame = out->frame;  // retention copy: kept for further retx
    frame.retry = true;
    add(std::move(frame));
  }

  // Fresh MPDUs: the Packet moves queue -> frame -> outstanding (the
  // retained copy for retransmission); the PPDU gets a copy of the frame.
  while (!queue.empty() &&
         SeqInWindow(st.win_start, st.next_seq,
                     static_cast<uint16_t>(kMaxAmpduMpdus))) {
    size_t mpdu_bytes = kQosDataHeaderBytes + kLlcSnapBytes +
                        queue.front().SizeBytes() + kFcsBytes;
    if (!fits_bytes(mpdu_bytes)) {
      break;
    }
    WifiFrame frame;
    frame.type = WifiFrameType::kData;
    frame.ta = address_;
    frame.ra = dest;
    frame.seq = st.next_seq;
    frame.packet = std::move(queue.front());
    queue.pop_front();
    st.next_seq = SeqAdd(st.next_seq, 1);
    OutstandingMpdu& stored =
        st.AddOutstanding(frame.seq, OutstandingMpdu{std::move(frame), 0});
    add(WifiFrame(stored.frame));
  }

  if (ppdu.mpdus.empty()) {
    return ppdu;
  }
  st.recovery_ac = current_ac_;

  // MORE DATA: more traffic for this destination is already queued (or held
  // back by the window) beyond this batch (§3.2).
  bool more = !queue.empty() ||
              st.outstanding_count > ppdu.mpdus.size();
  bool sync = st.sync_pending;
  if (sync) {
    ++stats_.batches_sent_with_sync;
  }
  if (more) {
    ++stats_.batches_sent_more_data;
  } else {
    ++stats_.batches_sent_final;
  }
  SimTime duration_field =
      timings_.sifs + FrameDuration(resp_mode, kBlockAckBytes);
  for (WifiFrame& mpdu : ppdu.mpdus) {
    mpdu.more_data = more;
    mpdu.sync = sync;
    if (sync) {
      mpdu.sync_start_seq = st.win_start;
    }
    mpdu.duration_field = duration_field;
  }
  return ppdu;
}

void WifiMac::OnTxEnd(const Ppdu& ppdu) {
  if (IsResponseFrame(ppdu)) {
    return;  // SIFS responses do not await anything
  }
  CHECK(phase_ == TxPhase::kTransmitting);
  tx_end_time_ = scheduler_->Now();
  if (ppdu.first().type == WifiFrameType::kRts) {
    phase_ = TxPhase::kAwaitingCts;
    cts_timeout_event_ = scheduler_->ScheduleIn(
        CtsTimeoutDelay(),
        [this]() {
          cts_timeout_event_ = kInvalidEventId;
          HandleCtsTimeout();
        },
        EventClass::kMacTimer);
    return;
  }
  phase_ = TxPhase::kAwaitingResponse;
  bool expect_ba = current_aggregated_ || current_is_bar_;
  response_timeout_event_ = scheduler_->ScheduleIn(
      ResponseTimeoutDelay(expect_ba),
      [this]() {
        response_timeout_event_ = kInvalidEventId;
        HandleResponseTimeout();
      },
      EventClass::kMacTimer);
}

void WifiMac::HandleCts(const WifiFrame& frame) {
  if (phase_ != TxPhase::kAwaitingCts || frame.ta != current_dest_ ||
      current_dest_gone_) {
    return;  // stale/unexpected CTS (or the peer was removed mid-exchange:
             // the CTS timeout path finishes the cleanup)
  }
  scheduler_->Cancel(cts_timeout_event_);
  cts_timeout_event_ = kInvalidEventId;
  tx_[current_dest_sid_].rts_retries = 0;
  // The medium is ours: the parked data PPDU follows the CTS by SIFS.
  phase_ = TxPhase::kTransmitting;
  scheduler_->ScheduleIn(
      timings_.sifs,
      [this, epoch = reset_epoch_]() {
        if (epoch != reset_epoch_) {
          return;  // radio reset in the SIFS gap
        }
        CHECK(pending_data_ppdu_.has_value());
        Ppdu ppdu = std::move(*pending_data_ppdu_);
        pending_data_ppdu_.reset();
        TransmitDataPpdu(std::move(ppdu));
      },
      EventClass::kMacTimer);
}

void WifiMac::HandleCtsTimeout() {
  CHECK(phase_ == TxPhase::kAwaitingCts);
  ++stats_.cts_timeouts;
  pending_data_ppdu_.reset();
  if (current_dest_gone_) {
    // Peer removed mid-exchange: its TxState was already reset (and may
    // belong to a new peer) — abandon without touching it.
    current_dest_gone_ = false;
    EngineFor(current_ac_).NotifyTxFailure();
    phase_ = TxPhase::kIdle;
    MaybeRequestAccess();
    return;
  }
  // The exchange never left the RTS: the MPDUs stay outstanding (or
  // single_inflight) and are rebuilt at the next grant — re-entering
  // backoff is the ordinary CW-doubling path, which the lazy idle-edge
  // re-arm already handles (NotifyTxFailure re-dates a deferred grant).
  //
  // Deliberately NO rate feedback here: the CTS outcome gates what ARF
  // hears. A missing CTS means the basic-rate RTS collided — a contention
  // signal, not a channel-quality signal — and the exchange never reached
  // the data rate at all. Feeding it to ARF recreates the classic
  // collision-triggered rate collapse RTS/CTS exists to prevent.
  EngineFor(current_ac_).NotifyTxFailure();
  if (rate_ctrl_.has_value()) {
    // No data-rate outcome either way; a consumed probe slot is re-armed.
    rate_ctrl_->AbandonPick(current_dest_sid_);
  }
  TxState& st = tx_[current_dest_sid_];
  if (++st.rts_retries > kRtsRetryLimit) {
    st.rts_retries = 0;
    st.rts_bypass_once = true;
  }
  UpdateServiceRing(st);
  phase_ = TxPhase::kIdle;
  MaybeRequestAccess();
}

void WifiMac::NotifyRateOutcome(StationId sid, bool success) {
  if (!rate_ctrl_.has_value()) {
    return;
  }
  ArfRateController::Move move = rate_ctrl_->OnTxOutcome(sid, success);
  if (move.up) {
    ++stats_.rate_up_moves;
  }
  if (move.down) {
    ++stats_.rate_down_moves;
  }
}

void WifiMac::ReleaseDelivered(TxState& st, const OutstandingMpdu& mpdu) {
  st.consecutive_give_ups = 0;  // the peer is demonstrably alive
  if (mpdu.retries == 0) {
    ++stats_.mpdus_delivered_first_try;
  } else {
    ++stats_.mpdus_delivered_retried;
  }
  if (on_mpdu_delivered && mpdu.frame.packet.has_value()) {
    on_mpdu_delivered(*mpdu.frame.packet, mpdu.frame.ra);
  }
}

void WifiMac::HandleResponse(const WifiFrame& frame) {
  if (phase_ != TxPhase::kAwaitingResponse || frame.ta != current_dest_) {
    return;  // stale/unexpected response
  }
  scheduler_->Cancel(response_timeout_event_);
  response_timeout_event_ = kInvalidEventId;
  if (current_dest_gone_) {
    // Response from a peer we removed mid-exchange (a clean leave can race
    // an in-flight response): the exchange ends, its state is gone.
    current_dest_gone_ = false;
    EngineFor(current_ac_).NotifyTxSuccess();
    FinishExchange();
    return;
  }

  TxState& st = tx_[current_dest_sid_];
  st.sync_pending = false;
  if (frame.type == WifiFrameType::kBlockAck) {
    st.bar_retries = 0;
    st.bar_pending = false;
    CHECK(frame.ba.has_value());
    ReleaseBlockAcked(st, *frame.ba);
  } else if (st.single_inflight.has_value()) {
    ReleaseDelivered(st, *st.single_inflight);
    st.single_inflight.reset();
  }
  UpdateServiceRing(st);

  if (current_all_tcp_acks_) {
    stats_.tcp_ack_ll_ack_overhead_ns +=
        (scheduler_->Now() - tx_end_time_).ns();
  }
  if (!current_is_bar_) {
    NotifyRateOutcome(current_dest_sid_, /*success=*/true);
  }
  EngineFor(current_ac_).NotifyTxSuccess();
  FinishExchange();
}

void WifiMac::ReleaseBlockAcked(TxState& st, const BlockAckInfo& ba) {
  auto acked = [&](uint16_t seq) {
    uint16_t dist = SeqDistance(ba.start_seq, seq);
    if (dist < 64) {
      return (ba.bitmap >> dist & 1) != 0;
    }
    // Behind the bitmap start: the recipient has moved past it.
    return SeqDistance(seq, ba.start_seq) < kSeqModulo / 2;
  };

  // Release acked MPDUs in window order. (on_mpdu_delivered consumers are
  // order-insensitive across seqs; holding `st` across the callback is safe
  // because nothing on that path enqueues — see tx_ growth note in the
  // header.)
  for (uint16_t i = 0;
       i < kMaxAmpduMpdus && st.outstanding_count > 0; ++i) {
    uint16_t seq = SeqAdd(st.win_start, i);
    OutstandingMpdu* out = st.FindOutstanding(seq);
    if (out == nullptr || !acked(seq)) {
      continue;
    }
    ReleaseDelivered(st, *out);
    st.EraseOutstanding(seq);
  }
  // Un-acked MPDUs that were transmitted in this batch count a retry.
  for (uint16_t seq : current_batch_seqs_) {
    OutstandingMpdu* out = st.FindOutstanding(seq);
    if (out == nullptr) {
      continue;
    }
    if (++out->retries > kMpduRetryLimit) {
      ++stats_.mpdus_dropped_retry_limit;
      st.EraseOutstanding(seq);
    }
  }
  // Advance the originator window to the oldest un-acked MPDU.
  if (st.outstanding_count == 0) {
    st.win_start = st.next_seq;
  } else {
    for (uint16_t i = 0; i < kMaxAmpduMpdus; ++i) {
      uint16_t seq = SeqAdd(st.win_start, i);
      if (st.FindOutstanding(seq) != nullptr) {
        st.win_start = seq;
        break;
      }
    }
  }
}

void WifiMac::HandleResponseTimeout() {
  CHECK(phase_ == TxPhase::kAwaitingResponse);
  ++stats_.response_timeouts;
  EngineFor(current_ac_).NotifyTxFailure();
  if (current_dest_gone_) {
    current_dest_gone_ = false;
    phase_ = TxPhase::kIdle;
    MaybeRequestAccess();
    return;
  }
  if (!current_is_bar_) {
    // A lost data exchange (the response never came) is the ARF failure
    // signal; BAR outcomes happen at a basic control rate and say nothing
    // about the data rate.
    NotifyRateOutcome(current_dest_sid_, /*success=*/false);
  }

  TxState& st = tx_[current_dest_sid_];
  if (current_is_bar_) {
    if (++st.bar_retries > kBarRetryLimit) {
      GiveUpBlockAck(st);
    } else {
      st.bar_pending = true;
    }
  } else if (current_aggregated_) {
    // No Block ACK for a data batch: recover via BAR (§3.4, Figs 5-8).
    st.bar_pending = true;
  } else if (st.single_inflight.has_value()) {
    if (++st.single_inflight->retries > kMpduRetryLimit) {
      ++stats_.mpdus_dropped_retry_limit;
      st.single_inflight.reset();
      NoteGiveUp(st);
    }
  }
  UpdateServiceRing(st);
  phase_ = TxPhase::kIdle;
  MaybeRequestAccess();
}

void WifiMac::GiveUpBlockAck(TxState& st) {
  ++stats_.ba_agreement_give_ups;
  stats_.mpdus_dropped_retry_limit += st.outstanding_count;
  st.ClearOutstanding();
  st.win_start = st.next_seq;
  st.bar_pending = false;
  st.bar_retries = 0;
  // Tell the client we moved on without its Block ACK so it keeps its
  // retained compressed TCP ACKs (SYNC bit, Fig 8).
  st.sync_pending = true;
  NoteGiveUp(st);
}

void WifiMac::NoteGiveUp(TxState& st) {
  if (config_.dead_peer_flush_threshold <= 0) {
    return;  // disabled: legacy behaviour, retry/BAR paths only
  }
  if (++st.consecutive_give_ups < config_.dead_peer_flush_threshold) {
    return;
  }
  // The peer has eaten several full retry ladders in a row without a
  // single delivery: treat it as gone and stop burning airtime on its
  // queue. If it comes back, traffic re-enqueues and service resumes.
  st.consecutive_give_ups = 0;
  ++stats_.dead_peer_flushes;
  stats_.dead_peer_flushed_packets += FlushStation(st);
}

void WifiMac::FinishExchange() {
  phase_ = TxPhase::kIdle;
  EngineFor(current_ac_).DrawPostTxBackoff();
  MaybeRequestAccess();
}

// --- recipient pipeline ---------------------------------------------------------

void WifiMac::OnPpduReceived(const Ppdu& ppdu,
                             const std::vector<bool>& mpdu_ok) {
  ResolveNavProbe();
  ForEachEngine([](DcfEngine& engine) { engine.NotifyRxOk(); });
  size_t first_ok = 0;
  while (first_ok < mpdu_ok.size() && !mpdu_ok[first_ok]) {
    ++first_ok;
  }
  CHECK_LT(first_ok, mpdu_ok.size());
  const WifiFrame& first = ppdu.mpdus[first_ok];

  if (first.ra != address_) {
    // Not for us: honour the NAV reservation.
    if (!first.duration_field.IsZero()) {
      SimTime until = scheduler_->Now() + first.duration_field;
      if (first.type == WifiFrameType::kRts) {
        // 802.11 NAV-reset rule: an RTS reservation is provisional until
        // the exchange actually starts. If the probe window passes in
        // silence, the CTS never came and the reservation is dead air.
        // Armed BEFORE SetNav so the coalesced path's idle announcement
        // below advertises the probe deadline, not the full RTS horizon.
        ArmNavResetProbe(until, ppdu.mode);
      }
      SetNav(until);
      if (nav_provisional_ && nav_probe_value_ == until &&
          reported_idle_from_ != nav_probe_deadline_) {
        // SetNav's pulse missed the provisional deadline (equal-horizon
        // no-op, or a standing reservation already announced further out):
        // re-date explicitly. This is the same zero-length pulse the eager
        // probe delivers at its deadline, moved to decode time; it cannot
        // draw backoff (pending access here implies an earlier busy edge
        // already drew it).
        RedateIdleStart(nav_probe_deadline_);
      }
    }
    return;
  }

  switch (first.type) {
    case WifiFrameType::kData:
      HandleDataPpdu(ppdu, mpdu_ok);
      break;
    case WifiFrameType::kBlockAck:
    case WifiFrameType::kAck:
      if (hack_hooks_ != nullptr && !first.hack_payload.empty()) {
        hack_hooks_->OnAckPayload(first.ta, first.hack_payload);
      }
      HandleResponse(first);
      break;
    case WifiFrameType::kBlockAckReq:
      HandleBar(first, ppdu.mode);
      break;
    case WifiFrameType::kRts:
      HandleRts(first, ppdu.mode);
      break;
    case WifiFrameType::kCts:
      HandleCts(first);
      break;
  }
}

// An RTS addressed to us asks for the medium. 802.11's virtual carrier
// sense rule: only answer if our NAV shows the medium free — a station
// inside someone else's reservation staying silent is exactly what makes
// the reservation mean anything. Being mid-exchange ourselves suppresses
// the CTS for the same reason.
void WifiMac::HandleRts(const WifiFrame& frame,
                        const WifiMode& eliciting_mode) {
  if (phase_ != TxPhase::kIdle || scheduler_->Now() < nav_until_) {
    ++stats_.rts_ignored_busy;
    return;
  }
  WifiMode cts_mode = ControlResponseMode(eliciting_mode);
  SimTime consumed = timings_.sifs + FrameDuration(cts_mode, kCtsBytes);
  WifiFrame cts;
  cts.type = WifiFrameType::kCts;
  cts.ta = address_;
  cts.ra = frame.ta;
  // The CTS re-advertises what is left of the RTS reservation, so stations
  // that hear only the CTS still set a covering NAV.
  cts.duration_field = frame.duration_field > consumed
                           ? frame.duration_field - consumed
                           : SimTime::Zero();
  ScheduleResponse(std::move(cts), eliciting_mode);
}

void WifiMac::HandleDataPpdu(const Ppdu& ppdu,
                             const std::vector<bool>& mpdu_ok) {
  MacAddress from = ppdu.transmitter();
  RxState& rx = RxFor(stations_.Intern(from));
  const WifiMode& eliciting_mode = ppdu.mode;

  if (!ppdu.aggregated) {
    const WifiFrame& frame = ppdu.first();
    CHECK(mpdu_ok[0]);
    ++stats_.data_mpdus_received;
    bool duplicate =
        rx.has_last_single && frame.seq == rx.last_single_seq;
    // The MORE DATA / SYNC state must reach the driver *before* the packet
    // reaches the stack: the TCP ACKs this delivery generates are
    // classified under this batch's MORE DATA bit (paper Fig 3).
    if (hack_hooks_ != nullptr) {
      hack_hooks_->OnDataPpdu(from, /*aggregated=*/false,
                              /*has_new_mpdu=*/!duplicate, frame.more_data,
                              frame.sync);
    }
    if (duplicate) {
      ++stats_.duplicate_mpdus_discarded;
    } else {
      rx.last_single_seq = frame.seq;
      rx.has_last_single = true;
      if (on_rx_packet && frame.packet.has_value()) {
        on_rx_packet(*frame.packet, from);
      }
    }
    WifiFrame ack;
    ack.type = WifiFrameType::kAck;
    ack.ta = address_;
    ack.ra = from;
    ScheduleResponse(std::move(ack), eliciting_mode);
    return;
  }

  // A SYNC batch announces the originator abandoned its Block ACK state
  // (BAR retries exhausted, everything before its window start dropped).
  // Re-sync the reorder window to the advertised start — the in-sim
  // analogue of the standard's BAR window flush — or the stale holes would
  // hold back delivery of every later in-window MPDU forever. The target
  // rides every MPDU (sync_start_seq), so it survives partial decodes.
  {
    size_t lead = 0;
    while (lead < mpdu_ok.size() && !mpdu_ok[lead]) {
      ++lead;
    }
    const WifiFrame& first_decoded = ppdu.mpdus[lead];
    if (first_decoded.sync) {
      uint16_t dist = SeqDistance(rx.win_start, first_decoded.sync_start_seq);
      if (dist != 0 && dist < kSeqModulo / 2) {
        AdvanceRxWindow(rx, from, first_decoded.sync_start_seq);
      }
    }
  }

  // Pass 1: mark arrivals in the scoreboard (no upper-layer delivery yet).
  bool any_new = false;
  bool more_data = false;
  bool sync = false;
  for (size_t i = 0; i < ppdu.mpdus.size(); ++i) {
    if (!mpdu_ok[i]) {
      continue;
    }
    const WifiFrame& mpdu = ppdu.mpdus[i];
    more_data = mpdu.more_data;
    sync = mpdu.sync;
    ++stats_.data_mpdus_received;
    uint16_t seq = mpdu.seq;
    if (!SeqInWindow(rx.win_start, seq, kMaxAmpduMpdus)) {
      if (SeqDistance(rx.win_start, seq) < kSeqModulo / 2) {
        // Ahead of the window: slide so `seq` becomes the window's end.
        AdvanceRxWindow(rx, from,
                        SeqAdd(seq, -(static_cast<int>(kMaxAmpduMpdus) - 1)));
      } else if (SeqDistance(seq, rx.win_start) >
                 4 * static_cast<uint16_t>(kMaxAmpduMpdus)) {
        // Far behind the window: no retransmission can lag this much (an
        // originator only resends seqs inside its own 64-wide outstanding
        // window). The peer's MAC restarted and is counting from zero
        // again — hard-resync instead of blackholing the stream until its
        // sequence numbers climb back into range.
        ++stats_.rx_window_resyncs;
        rx = RxState{};
        rx.win_start = seq;
      } else {
        ++stats_.duplicate_mpdus_discarded;
        continue;
      }
    }
    size_t slot = seq % kMaxAmpduMpdus;
    uint64_t bit = uint64_t{1} << slot;
    if ((rx.received_bits & bit) == 0) {
      rx.received_bits |= bit;
      any_new = true;
      if (mpdu.packet.has_value()) {
        if (rx.reorder.empty()) {
          rx.reorder.resize(kMaxAmpduMpdus);
        }
        rx.reorder[slot] = *mpdu.packet;
      }
    } else {
      ++stats_.duplicate_mpdus_discarded;
    }
  }

  // The MORE DATA / SYNC state must reach the driver *before* the packets
  // reach the stack: the TCP ACKs the deliveries below generate are
  // classified under this batch's MORE DATA bit (paper Fig 3).
  if (hack_hooks_ != nullptr) {
    hack_hooks_->OnDataPpdu(from, /*aggregated=*/true, any_new, more_data,
                            sync);
  }

  // Pass 2: deliver in order; this is where the receiver's TCP ACKs are
  // generated and (under HACK) staged for the next LL ACK.
  DeliverContiguous(rx, from);

  WifiFrame ba;
  ba.type = WifiFrameType::kBlockAck;
  ba.ta = address_;
  ba.ra = from;
  ba.ba = BlockAckInfo{rx.win_start, BuildBitmap(rx)};
  ScheduleResponse(std::move(ba), eliciting_mode);
}

void WifiMac::HandleBar(const WifiFrame& frame,
                        const WifiMode& eliciting_mode) {
  RxState& rx = RxFor(stations_.Intern(frame.ta));
  uint16_t dist = SeqDistance(rx.win_start, frame.bar_start_seq);
  if (dist != 0 && dist < kSeqModulo / 2) {
    AdvanceRxWindow(rx, frame.ta, frame.bar_start_seq);
  }
  WifiFrame ba;
  ba.type = WifiFrameType::kBlockAck;
  ba.ta = address_;
  ba.ra = frame.ta;
  ba.ba = BlockAckInfo{rx.win_start, BuildBitmap(rx)};
  // Respond at the control-response rate of the BAR as actually received.
  // (This used to assume every BAR arrived at 24 Mbps; at data rates below
  // 24 Mbps the BAR goes out at 12 or 6 Mbps and the old reply at 24 Mbps
  // both violated the control-response rule and overshot the duration the
  // BAR sender had reserved for it.)
  ScheduleResponse(std::move(ba), eliciting_mode);
}

uint64_t WifiMac::BuildBitmap(const RxState& rx) const {
  // Scoreboard bit i is seq (win_start + i); the stored bitmap keys bits by
  // seq % 64, so the Block ACK view is a rotation.
  return std::rotr(rx.received_bits,
                   static_cast<int>(rx.win_start % kMaxAmpduMpdus));
}

void WifiMac::AdvanceRxWindow(RxState& rx, MacAddress from,
                              uint16_t new_start) {
  // Slide towards new_start, delivering anything buffered that the window
  // passes (seq order). After 64 steps every slot has been visited, so
  // larger slides finish by jumping.
  uint16_t steps = SeqDistance(rx.win_start, new_start);
  uint16_t limit = std::min<uint16_t>(steps, kMaxAmpduMpdus);
  for (uint16_t i = 0; i < limit; ++i) {
    uint16_t seq = SeqAdd(rx.win_start, i);
    size_t slot = seq % kMaxAmpduMpdus;
    if (!rx.reorder.empty() && rx.reorder[slot].has_value()) {
      if (on_rx_packet) {
        on_rx_packet(std::move(*rx.reorder[slot]), from);
      }
      rx.reorder[slot].reset();
    }
    rx.received_bits &= ~(uint64_t{1} << slot);
  }
  rx.win_start = new_start;
  DeliverContiguous(rx, from);
}

void WifiMac::DeliverContiguous(RxState& rx, MacAddress from) {
  while ((rx.received_bits >> (rx.win_start % kMaxAmpduMpdus)) & 1) {
    size_t slot = rx.win_start % kMaxAmpduMpdus;
    if (!rx.reorder.empty() && rx.reorder[slot].has_value()) {
      if (on_rx_packet) {
        on_rx_packet(std::move(*rx.reorder[slot]), from);
      }
      rx.reorder[slot].reset();
    }
    rx.received_bits &= ~(uint64_t{1} << slot);
    rx.win_start = SeqAdd(rx.win_start, 1);
  }
}

void WifiMac::ScheduleResponse(WifiFrame response,
                               const WifiMode& eliciting_mode) {
  WifiMode resp_mode = ControlResponseMode(eliciting_mode);
  SimTime delay = timings_.sifs + config_.extra_ack_delay;
  ++responses_pending_;
  UpdateMediumState();
  scheduler_->ScheduleIn(
      delay,
      [this, response = std::move(response), resp_mode,
       epoch = reset_epoch_]() mutable {
        if (epoch != reset_epoch_) {
          return;  // radio reset while the response sat in the SIFS gap
                   // (responses_pending_ was already zeroed by the reset)
        }
        --responses_pending_;
        bool can_carry_hack = response.type == WifiFrameType::kAck ||
                              response.type == WifiFrameType::kBlockAck;
        if (hack_hooks_ != nullptr && can_carry_hack) {
          std::vector<uint8_t> payload =
              hack_hooks_->BuildAckPayload(response.ra);
          if (!payload.empty()) {
            size_t base_bytes = response.SizeBytes();
            response.hack_payload = std::move(payload);
            SimTime extra = FrameDuration(resp_mode, response.SizeBytes()) -
                            FrameDuration(resp_mode, base_bytes);
            ++stats_.hack_payloads_sent;
            stats_.hack_payload_bytes_sent += response.hack_payload.size();
            // First payload byte is the record-count envelope.
            stats_.hack_payload_records += response.hack_payload[0];
            stats_.rohc_payload_airtime_ns += extra.ns();
            if (extra <= timings_.difs) {
              ++stats_.hack_payloads_fit_in_aifs;
            }
          }
        }
        if (response.type == WifiFrameType::kAck) {
          ++stats_.acks_sent;
        } else if (response.type == WifiFrameType::kCts) {
          ++stats_.cts_sent;
        } else {
          ++stats_.block_acks_sent;
        }
        Ppdu ppdu;
        ppdu.aggregated = false;
        ppdu.mode = resp_mode;
        ppdu.mpdus.push_back(std::move(response));
        if (!phy_->Send(std::move(ppdu))) {
          ++stats_.tx_dropped_phy_busy;
        }
        UpdateMediumState();
      },
      EventClass::kMacTimer);
}

// --- medium state -----------------------------------------------------------------

void WifiMac::OnRxCorrupted() {
  ++stats_.rx_corrupted_events;
  ForEachEngine([](DcfEngine& engine) { engine.NotifyRxFailed(); });
}

void WifiMac::OnCcaBusy() {
  if (nav_provisional_) {
    if (scheduler_->Now() < nav_probe_deadline_) {
      // PHY activity inside the probe window: the reserved exchange is
      // happening, the reservation stands and the provisional marker dies.
      nav_provisional_ = false;
    } else {
      // The window closed in silence before this edge arrived. Deliver the
      // verdict first — the eager probe event, inserted at RTS decode and
      // therefore ahead in FIFO order, fires before a same-nanosecond edge.
      FinishNavProbe();
    }
  }
  phy_busy_ = true;
  ++cca_busy_edges_;
  if (nav_reset_probe_event_ != kInvalidEventId) {
    // Legacy mode: PHY activity inside the probe window cancels the armed
    // probe (O(1) lazy wheel retire), keeping it off the executed-event
    // path. The coalesced default above needs no event to cancel at all.
    scheduler_->Cancel(nav_reset_probe_event_);
    nav_reset_probe_event_ = kInvalidEventId;
  }
  UpdateMediumState();
}

void WifiMac::OnCcaIdle() {
  // Resolve a matured provisional probe against the pre-edge carrier state:
  // with the carrier busy continuously since before the arm (no edge in
  // between), the eager probe fired mid-carrier and stood down — the
  // verdict must see phy_busy_ the same way.
  ResolveNavProbe();
  phy_busy_ = false;
  UpdateMediumState();
}

void WifiMac::RedateIdleStart(SimTime idle_from) {
  if (medium_busy_reported_) {
    return;
  }
  reported_idle_from_ = idle_from;
  ForEachEngine([idle_from](DcfEngine& engine) {
    engine.NotifyMediumBusy();
    engine.NotifyMediumIdleFrom(idle_from);
  });
}

void WifiMac::SetNav(SimTime until) {
  if (until <= nav_until_) {
    return;
  }
  nav_until_ = until;
  UpdateMediumState();
}

void WifiMac::ArmNavResetProbe(SimTime rts_nav_until,
                               const WifiMode& rts_mode) {
  // Probe window per the standard: 2*SIFS + the CTS airtime (at the RTS's
  // control-response rate) + 2 slots after the RTS reception.
  WifiMode cts_mode = ControlResponseMode(rts_mode);
  SimTime window = 2 * timings_.sifs + FrameDuration(cts_mode, kCtsBytes) +
                   2 * timings_.slot;
  if (scheduler_->Now() + window >= rts_nav_until) {
    return;  // nothing left to reclaim by the time the probe could fire
  }
  if (!config_.legacy_nav_probe_events) {
    // Coalesced form (default): no event at all. The probe is a deadline
    // consulted lazily — any CCA busy edge before it confirms the
    // reservation, and the first state read past it delivers the verdict.
    // This is the PR 3 lazy-NAV trick applied to the last NAV event storm:
    // at 1000 stations the armed form cost one scheduled probe per
    // overhearer per RTS even though almost all were cancelled.
    nav_provisional_ = true;
    nav_probe_deadline_ = scheduler_->Now() + window;
    nav_probe_value_ = rts_nav_until;
    return;
  }
  if (nav_reset_probe_event_ != kInvalidEventId) {
    scheduler_->Cancel(nav_reset_probe_event_);
  }
  // One armed probe per overheard decoded RTS; almost always cancelled a
  // SIFS later by the CTS's own busy edge (O(1) lazy wheel cancel), so the
  // executed-event cost stays near zero — see docs/perf.md on why nothing
  // on the per-PPDU path may schedule work that routinely fires.
  nav_reset_probe_event_ = scheduler_->ScheduleIn(
      window,
      [this, rts_nav_until, edges = cca_busy_edges_]() {
        nav_reset_probe_event_ = kInvalidEventId;
        HandleNavResetProbe(rts_nav_until, edges);
      },
      EventClass::kNavTimer);
}

void WifiMac::HandleNavResetProbe(SimTime armed_nav_value,
                                  uint64_t armed_edges) {
  if (phy_busy_ || cca_busy_edges_ != armed_edges) {
    return;  // the exchange (or anything else) hit the air: NAV stands
  }
  if (nav_until_ != armed_nav_value) {
    return;  // another frame moved the NAV since; not ours to reclaim
  }
  ++stats_.nav_resets;
  nav_until_ = scheduler_->Now();
  // The engine was told "idle from <RTS horizon>"; re-date that to now —
  // the medium-state change the eager path would have seen.
  RedateIdleStart(scheduler_->Now());
}

void WifiMac::ResolveNavProbe() {
  if (nav_provisional_ && scheduler_->Now() > nav_probe_deadline_) {
    FinishNavProbe();
  }
}

void WifiMac::FinishNavProbe() {
  // The probe window has closed: same verdict the armed probe event
  // delivers in legacy mode. phy_busy_ here means the carrier has been
  // busy continuously since before the arm (an edge would have resolved
  // the probe already), so the reservation stands.
  nav_provisional_ = false;
  if (phy_busy_) {
    return;
  }
  if (nav_until_ != nav_probe_value_) {
    return;  // another frame moved the NAV since; not ours to reclaim
  }
  ++stats_.nav_resets;
  // NAV collapses to the instant the eager probe would have reset it at.
  // No engine pulse is needed: while the provisional probe stood, every
  // idle announcement already carried the deadline as its horizon.
  nav_until_ = nav_probe_deadline_;
}

// Medium-state reporting, lazy-NAV form. The DCF engine sees the same busy
// edges, at the same times, as the historical eager path — that keeps its
// backoff-draw points (and therefore the RNG stream) identical — but idle
// is announced as "idle from T" at the moment the carrier drops, where T is
// the NAV horizon. No NAV-expiry event is ever scheduled: in a dense cell
// that event used to fire once per station per overheard PPDU and was the
// dominant ev/PPDU term (see docs/perf.md).
void WifiMac::UpdateMediumState() {
  ResolveNavProbe();
  SimTime now = scheduler_->Now();
  if (phy_busy_ || responses_pending_ > 0) {
    if (!medium_busy_reported_) {
      medium_busy_reported_ = true;
      ForEachEngine([](DcfEngine& engine) { engine.NotifyMediumBusy(); });
    }
    return;
  }
  // A standing provisional probe caps the horizon at its deadline: if the
  // window passes in silence the NAV collapses there, and if the exchange
  // does start, its own busy edge arrives before any grant armed off the
  // optimistic announcement could fire (the edge is at most SIFS + CTS
  // into a window that is 2*SIFS + CTS + 2 slots long).
  SimTime horizon = (nav_provisional_ && nav_until_ == nav_probe_value_)
                        ? nav_probe_deadline_
                        : nav_until_;
  bool nav_busy = now < horizon;
  SimTime idle_from = nav_busy ? horizon : now;
  if (!medium_busy_reported_ && nav_busy &&
      idle_from > reported_idle_from_) {
    // NAV extended past the previously announced idle start without a CCA
    // edge in between (SetNav right after a delivery): the eager path
    // produced a busy edge here, and it is a backoff-draw point — keep it.
    medium_busy_reported_ = true;
    ForEachEngine([](DcfEngine& engine) { engine.NotifyMediumBusy(); });
  }
  if (medium_busy_reported_) {
    medium_busy_reported_ = false;
    reported_idle_from_ = idle_from;
    ForEachEngine(
        [idle_from](DcfEngine& engine) { engine.NotifyMediumIdleFrom(idle_from); });
  }
}

}  // namespace hacksim
