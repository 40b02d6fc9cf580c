#include "src/phy80211/wifi_phy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/util/logging.h"

namespace hacksim {

namespace {
// Speed of light, metres per nanosecond.
constexpr double kMetersPerNs = 0.299792458;

// A power-cache entry not yet computed (every computed entry is >= 0).
constexpr double kUnknownPower = -1.0;

// How many receivers ahead the collection loop prefetches a strided power
// entry: enough to cover a cache miss at a few ns per receiver.
constexpr uint32_t kPrefetchAhead = 24;

// The largest power-cache buffer a channel on this thread has released,
// kept for the thread's next channel. Freeing a block of megabytes once
// per run raises glibc's dynamic mmap threshold, after which the allocator
// keeps other freed blocks resident and peak RSS grows by more than the
// cache itself (docs/perf.md, "Geometric channel without libm").
thread_local std::vector<double> spare_pair_mw;

// Propagation delay, clamped to >= 1 ns so same-slot transmit decisions at
// two stations are both made against pre-transmission channel state (the
// slotted collision model).
SimTime PropagationDelay(double distance_m) {
  auto prop_ns = static_cast<int64_t>(distance_m / kMetersPerNs);
  return SimTime::Nanos(std::max<int64_t>(prop_ns, 1));
}
}  // namespace

double DistanceMeters(Position a, Position b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

WifiPhy::WifiPhy(Scheduler* scheduler, Random rng)
    : scheduler_(scheduler), rng_(rng) {}

void WifiPhy::AttachTo(WirelessChannel* channel) { channel->Attach(this); }

void WifiPhy::set_position(Position p) {
  position_ = p;
  has_position_ = true;
  if (channel_ != nullptr) {
    channel_->MovePhy(attach_idx_, p);
  }
}

bool WifiPhy::Send(Ppdu ppdu) {
  CHECK(channel_ != nullptr);
  if (!radio_on_ || transmitting_) {
    ++stats_.tx_dropped_busy;
    return false;
  }
  transmitting_ = true;
  // Half duplex: anything currently arriving is lost.
  ++corruptions_;
  UpdateCca();
  tx_ppdu_id_ = channel_->Transmit(this, std::move(ppdu));
  return true;
}

void WifiPhy::SetRadioOn(bool on) {
  if (on == radio_on_) {
    return;
  }
  radio_on_ = on;
  if (!on) {
    // Power-down: every in-flight arrival dies with the radio. Their end
    // events are already scheduled; OnArrivalEnd swallows them through the
    // tolerance counter instead of a per-event Cancel.
    dropped_arrival_ends_ += arrivals_.size() - head_;
    arrivals_.clear();
    head_ = 0;
    if (transmitting_) {
      ++aborted_tx_ends_;
      transmitting_ = false;
    }
    UpdateCca();
  }
}

void WifiPhy::OnOwnTxEnd(const Ppdu& ppdu) {
  if (!transmitting_ || ppdu.ppdu_id != tx_ppdu_id_) {
    // The transmission was aborted by a radio power-down; the MAC behind
    // this PHY was reset with it, so no listener callback. The radio may
    // already be sending again, so the id (not transmitting_) decides.
    CHECK_GT(aborted_tx_ends_, 0u);
    --aborted_tx_ends_;
    return;
  }
  transmitting_ = false;
  UpdateCca();
  if (listener_ != nullptr) {
    listener_->OnTxEnd(ppdu);
  }
}

void WifiPhy::OnArrivalStart(const Ppdu& ppdu, double distance_m,
                             double rx_power_mw) {
  if (!radio_on_) {
    // Dead receiver: ignore the frame, but remember that its already
    // scheduled end edge will knock on an empty arrivals_ list.
    ++dropped_arrival_ends_;
    return;
  }
  bool capture = channel_->limits_range();
  double interference_mw = 0.0;
  bool corrupted = transmitting_;
  if (head_ < arrivals_.size()) {
    if (capture) {
      // SINR capture: overlap is not an automatic death sentence. Every
      // arrival accumulates the other's power as interference (energy is
      // there whether or not the other frame itself survives); the verdict
      // lands at each arrival's end.
      for (size_t i = head_; i < arrivals_.size(); ++i) {
        Arrival& other = arrivals_[i];
        other.interference_mw += rx_power_mw;
        interference_mw += other.rx_power_mw;
      }
    } else {
      // Legacy fixed-loss rule: overlap corrupts both, no capture.
      corrupted = true;
      ++corruptions_;
    }
  }
  if (head_ > 0 && arrivals_.size() == arrivals_.capacity() &&
      2 * head_ >= arrivals_.size()) {
    // Reuse the dead front half instead of growing. Moving the live half
    // is paid for by the removals that killed the front half.
    arrivals_.erase(arrivals_.begin(),
                    arrivals_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  arrivals_.emplace_back(&ppdu, distance_m, rx_power_mw, interference_mw,
                         corruptions_, corrupted);
  UpdateCca();
}

void WifiPhy::OnArrivalEnd(const Ppdu& ppdu) {
  size_t at = head_;
  while (at < arrivals_.size() && arrivals_[at].ppdu != &ppdu) {
    ++at;
  }
  if (at == arrivals_.size()) {
    // An arrival cleared by a radio power-down, or one that began while
    // the radio was off: its end edge is expected exactly once.
    CHECK_GT(dropped_arrival_ends_, 0u)
        << "arrival end for a PPDU the PHY never saw";
    --dropped_arrival_ends_;
    return;
  }
  Arrival arrival = arrivals_[at];
  // Judged before any callback: a listener reacting to the CCA edge below
  // must not reach back into this arrival's verdict.
  bool corrupted = arrival.corrupted ||
                   arrival.corruptions_at_start != corruptions_;
  if (at == head_) {
    ++head_;
  } else {
    arrivals_.erase(arrivals_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  if (head_ == arrivals_.size()) {
    arrivals_.clear();
    head_ = 0;
  }
  UpdateCca();
  if (listener_ == nullptr) {
    return;
  }
  if (corrupted) {
    listener_->OnRxCorrupted();
    return;
  }
  // SINR capture (range-limited propagation only): the frame survives the
  // energy that overlapped it iff its SINR clears the mode's capture
  // threshold. On the fixed-loss channel an overlapped arrival is already
  // corrupted above, so this block is never reached with interference.
  if (arrival.interference_mw > 0.0) {
    double noise_mw =
        channel_->propagation().noise_floor_mw() + arrival.interference_mw;
    if (!channel_->CaptureThresholdFor(ppdu.mode)
             .Captures(arrival.rx_power_mw, noise_mw)) {
      ++stats_.overlap_losses;
      listener_->OnRxCorrupted();
      return;
    }
    ++stats_.captures;
  }
  // Channel-noise loss per MPDU. For A-MPDUs each subframe has its own FCS
  // and fails independently; for single MPDUs there is just one draw. With
  // no loss model the channel is ideal and every MPDU survives.
  std::vector<bool>& mpdu_ok = channel_->mpdu_verdicts();
  mpdu_ok.assign(ppdu.mpdus.size(), true);
  bool any_ok = !ppdu.mpdus.empty();
  if (loss_model_ != nullptr) {
    any_ok = false;
    for (size_t i = 0; i < ppdu.mpdus.size(); ++i) {
      size_t bytes = ppdu.mpdus[i].SizeBytes();
      bool corrupt = loss_model_->ShouldCorrupt(ppdu.mode, bytes,
                                                arrival.distance_m, rng_);
      mpdu_ok[i] = !corrupt;
      any_ok = any_ok || !corrupt;
    }
  }
  if (!any_ok) {
    listener_->OnRxCorrupted();
    return;
  }
  listener_->OnPpduReceived(ppdu, mpdu_ok);
}

void WifiPhy::UpdateCca() {
  bool busy = IsCcaBusy();
  if (busy == cca_busy_reported_) {
    return;
  }
  cca_busy_reported_ = busy;
  if (listener_ == nullptr) {
    return;
  }
  if (busy) {
    listener_->OnCcaBusy();
  } else {
    listener_->OnCcaIdle();
  }
}

void WirelessChannel::Attach(WifiPhy* phy) {
  CHECK(phy->channel_ != this)
      << "PHY attached twice: every PPDU would be delivered to it twice";
  CHECK(phy->channel_ == nullptr) << "PHY already attached to a channel";
  CHECK(!limits_range_ || phy->has_position())
      << "range-limited propagation needs an explicit position on every "
         "PHY: an unpositioned node would silently co-locate with the "
         "origin (set_position before Attach, or keep the fixed-loss model)";
  phy->channel_ = this;
  phy->attach_idx_ = static_cast<uint32_t>(phys_.size());
  phys_.push_back(phy);
  positions_.push_back(phy->position());
  pair_mw_.clear();
}

WirelessChannel::~WirelessChannel() {
  if (pair_mw_.capacity() > spare_pair_mw.capacity()) {
    spare_pair_mw.swap(pair_mw_);
  }
}

void WirelessChannel::MovePhy(uint32_t attach_idx, Position p) {
  positions_[attach_idx] = p;
  pair_mw_.clear();
}

void WirelessChannel::set_propagation(std::unique_ptr<PropagationModel> model) {
  CHECK(model != nullptr);
  if (model->limits_range()) {
    for (WifiPhy* phy : phys_) {
      CHECK(phy->has_position())
          << "range-limited propagation needs an explicit position on every "
             "attached PHY: an unpositioned node would silently co-locate "
             "with the origin";
    }
  }
  limits_range_ = model->limits_range();
  propagation_ = std::move(model);
  pair_mw_.clear();
  capture_thresholds_.clear();
}

const CaptureThreshold& WirelessChannel::CaptureThresholdFor(
    const WifiMode& mode) {
  for (const auto& [m, threshold] : capture_thresholds_) {
    if (m == mode) {
      return threshold;
    }
  }
  return capture_thresholds_
      .emplace_back(mode, CaptureThreshold(propagation_->CaptureSinrDb(mode)))
      .second;
}

double WirelessChannel::PairPowerMw(uint32_t a, uint32_t b) const {
  double rx_dbm =
      propagation_->RxPowerDbm(DistanceMeters(positions_[a], positions_[b]));
  if (!propagation_->Detectable(rx_dbm)) {
    return 0.0;
  }
  double rx_mw = DbmToMw(rx_dbm);
  // 0 marks a pruned pair, so a detectable one must not underflow to it
  // (an energy-detect threshold below about -3230 dBm).
  CHECK_GT(rx_mw, 0.0) << "detectable receive power underflows to 0 mW";
  return rx_mw;
}

template <typename Visit>
void WirelessChannel::ForEachReceiver(uint32_t sender, Visit visit) {
  const auto n = static_cast<uint32_t>(phys_.size());
  if (!limits_range_) {
    for (uint32_t idx = 0; idx < n; ++idx) {
      if (idx != sender) {
        visit(idx, 1.0);
      }
    }
    return;
  }
  if (n > kMaxCachedRadios) {
    for (uint32_t idx = 0; idx < n; ++idx) {
      if (idx != sender) {
        visit(idx, PairPowerMw(sender, idx));
      }
    }
    return;
  }
  if (pair_mw_.empty()) {
    const size_t pairs = size_t{n} * (n - 1) / 2;
    if (pair_mw_.capacity() < pairs && spare_pair_mw.capacity() >= pairs) {
      pair_mw_.swap(spare_pair_mw);
    }
    pair_mw_.assign(pairs, kUnknownPower);
  }
  // Pair (i, j), i < j.
  auto entry = [this](uint32_t i, uint32_t j) -> double& {
    return pair_mw_[size_t{j} * (j - 1) / 2 + i];
  };
  auto power = [this, sender](double& cached, uint32_t idx) {
    if (cached < 0.0) {
      cached = PairPowerMw(sender, idx);
    }
    return cached;
  };
  // Receivers below the sender: the sender's own column, contiguous.
  for (uint32_t idx = 0; idx < sender; ++idx) {
    visit(idx, power(entry(idx, sender), idx));
  }
  // Receivers above it: one entry in each receiver's column, idx entries
  // apart, a stride the hardware prefetcher does not follow.
  for (uint32_t idx = sender + 1; idx < n; ++idx) {
    if (idx + kPrefetchAhead < n) {
      __builtin_prefetch(&entry(sender, idx + kPrefetchAhead));
    }
    visit(idx, power(entry(sender, idx), idx));
  }
}

uint64_t WirelessChannel::Transmit(WifiPhy* sender, Ppdu ppdu) {
  uint64_t ppdu_id = next_ppdu_id_++;
  ppdu.ppdu_id = ppdu_id;
  SimTime duration = ppdu.Duration();
  SimTime now = scheduler_->Now();

  // Airtime ledger.
  ++airtime_.ppdus;
  switch (ppdu.first().type) {
    case WifiFrameType::kData:
      airtime_.data_ns += duration.ns();
      break;
    case WifiFrameType::kAck:
    case WifiFrameType::kBlockAck:
      airtime_.ack_ns += duration.ns();
      break;
    case WifiFrameType::kBlockAckReq:
      airtime_.bar_ns += duration.ns();
      break;
    case WifiFrameType::kRts:
    case WifiFrameType::kCts:
      airtime_.rts_cts_ns += duration.ns();
      break;
  }
  if (active_transmissions_ > 0) {
    ++airtime_.collisions;
    if (active_transmissions_ == 1) {
      overlap_started_ = now;
    }
  }
  ++active_transmissions_;
  scheduler_->ScheduleAt(
      now + duration,
      [this]() {
        --active_transmissions_;
        if (active_transmissions_ == 1) {
          // Overlap period ends when concurrency drops back to one.
          airtime_.collision_ns += (scheduler_->Now() - overlap_started_).ns();
        }
      },
      EventClass::kChannel);

  // One shared copy of the payload for all receivers and the sender's
  // tx-end callback.
  PpduRef shared = std::make_shared<const Ppdu>(std::move(ppdu));
  if (mode_ == ChannelDeliveryMode::kBatched) {
    TransmitBatched(sender, shared, now, duration);
  } else {
    TransmitPerPhy(sender, shared, now, duration);
  }
  scheduler_->ScheduleAt(
      now + duration, [sender, shared]() { sender->OnOwnTxEnd(*shared); },
      EventClass::kChannel);
  return ppdu_id;
}

// Reference semantics: two events per attached PHY, scheduled in attach
// order. The batched path below must stay observably identical to this.
void WirelessChannel::TransmitPerPhy(WifiPhy* sender, PpduRef ppdu,
                                     SimTime now, SimTime duration) {
  const Position from = positions_[sender->attach_idx_];
  ForEachReceiver(sender->attach_idx_, [&](uint32_t idx, double rx_mw) {
    if (rx_mw == 0.0) {
      // Below the energy-detection threshold: the receiver sees nothing at
      // all — no decode, no CCA energy. This is the hidden-terminal
      // condition, and it also means no scheduler events for the pair.
      ++airtime_.out_of_range;
      return;
    }
    WifiPhy* phy = phys_[idx];
    double distance = DistanceMeters(from, positions_[idx]);
    SimTime prop = PropagationDelay(distance);
    scheduler_->ScheduleAt(
        now + prop,
        [phy, ppdu, distance, rx_mw]() {
          phy->OnArrivalStart(*ppdu, distance, rx_mw);
        },
        EventClass::kChannel);
    // The end edge owns the payload too: the receiver borrows it until
    // then, and every other reference may be gone by this edge.
    scheduler_->ScheduleAt(
        now + prop + duration, [phy, ppdu]() { phy->OnArrivalEnd(*ppdu); },
        EventClass::kChannel);
  });
}

// Batched delivery: group every arrival edge (start or end) by its exact
// nanosecond and schedule one event per group, all up-front at transmit
// time. Three properties make this bit-identical to TransmitPerPhy:
//   1. Edge times are computed with the same per-pair formula, so nothing
//      moves in time.
//   2. Within a group, edges run in attach order — the order the per-PHY
//      events would have been popped (per-PHY scheduling assigns seqs in
//      attach order). A group normally holds only starts or only ends; when
//      a start run and an end run share a nanosecond (a delay spread wider
//      than the frame), Fire interleaves them by attach index. One PHY's
//      own start and end never share a nanosecond: the frame has airtime.
//   3. Groups are scheduled now, in time order, between the airtime event
//      and the sender's tx-end event, so same-nanosecond FIFO ordering
//      against *other* PPDUs' events (and the sender's own) is unchanged.
// The in-range receivers are collected in attach order, then OrderByDelay
// writes them in (delay, attach index) order into the PPDU's shared
// Delivery record.
void WirelessChannel::TransmitBatched(WifiPhy* sender, PpduRef ppdu,
                                      SimTime now, SimTime duration) {
  in_range_.clear();
  int64_t min_delay = std::numeric_limits<int64_t>::max();
  int64_t max_delay = 0;
  const Position from = positions_[sender->attach_idx_];
  ForEachReceiver(sender->attach_idx_, [&](uint32_t idx, double rx_mw) {
    if (rx_mw == 0.0) {
      // Same pruning rule as TransmitPerPhy (the equivalence tests cover
      // the ranged paths too): the receiver sees nothing.
      ++airtime_.out_of_range;
      return;
    }
    double distance = DistanceMeters(from, positions_[idx]);
    int64_t delay = PropagationDelay(distance).ns();
    min_delay = std::min(min_delay, delay);
    max_delay = std::max(max_delay, delay);
    in_range_.push_back(Receiver{phys_[idx], distance, rx_mw, delay, idx});
  });
  if (in_range_.empty()) {
    return;
  }
  auto n = static_cast<uint32_t>(in_range_.size());
  auto delivery = std::make_shared<Delivery>();
  delivery->receivers = std::make_unique_for_overwrite<Receiver[]>(n);
  OrderByDelay(min_delay, static_cast<uint64_t>(max_delay - min_delay),
               delivery->receivers.get());
  const Receiver* rx = delivery->receivers.get();
  delivery->ppdu = std::move(ppdu);

  // Walk the start runs (at now + delay) and the end runs (at now + delay +
  // duration) together in time order, one event per distinct nanosecond.
  auto run_end = [rx, n](uint32_t lo) {
    uint32_t hi = lo + 1;
    while (hi < n && rx[hi].delay_ns == rx[lo].delay_ns) {
      ++hi;
    }
    return hi;
  };
  for (uint32_t s = 0, e = 0; e < n;) {
    SimTime end_at = now + SimTime::Nanos(rx[e].delay_ns) + duration;
    SimTime at = end_at;
    uint32_t start_lo = s;
    uint32_t end_lo = e;
    if (s < n && now + SimTime::Nanos(rx[s].delay_ns) <= end_at) {
      at = now + SimTime::Nanos(rx[s].delay_ns);
      s = run_end(s);
    }
    if (at == end_at) {
      e = run_end(e);
    }
    // A kind this group lacks has an empty range (its cursor did not move).
    scheduler_->ScheduleAt(
        at,
        [delivery, start_lo, start_hi = s, end_lo, end_hi = e]() {
          delivery->Fire(start_lo, start_hi, end_lo, end_hi);
        },
        EventClass::kChannel);
  }
}

// Stable LSD counting passes over the 8-bit digits of delay - min_delay,
// least significant first. in_range_ starts in attach order and every pass
// is stable, so the result is ordered by (delay, attach index). The pass
// count is the span's length in bytes: one pass for a span under 256 ns (a
// cell under about 76 m across), two under 65536 ns (about 19.6 km). The
// last pass scatters into `out`; earlier ones ping-pong between in_range_
// and sort_scratch_. A pass's histogram has only as many buckets as its
// digit can take, so a narrow span clears and scans only a few.
void WirelessChannel::OrderByDelay(int64_t min_delay, uint64_t span,
                                   Receiver* out) {
  int passes = 1;
  while (passes < 8 && (span >> (8 * passes)) != 0) {
    ++passes;
  }
  const size_t n = in_range_.size();
  if (passes > 1 && sort_scratch_.size() < n) {
    sort_scratch_.resize(n);
  }
  // `out` is a fresh allocation, usually cold, and the last pass writes it
  // in as many streams as it has buckets, which the hardware prefetcher
  // does not follow. Asking for every line up front overlaps those misses
  // with the counting.
  auto* bytes = reinterpret_cast<const char*>(out);
  for (size_t offset = 0; offset < n * sizeof(Receiver); offset += 64) {
    __builtin_prefetch(bytes + offset, /*rw=*/1);
  }
  Receiver* src = in_range_.data();
  Receiver* spare = sort_scratch_.data();
  // Bucket counts, then each bucket's next slot. A pass clears only the
  // buckets its digit can take.
  std::array<uint32_t, 256> next;
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = 8 * pass;
    const bool last = pass + 1 == passes;
    const size_t buckets = last ? (span >> shift) + 1 : next.size();
    auto digit = [min_delay, shift](const Receiver& r) {
      return (static_cast<uint64_t>(r.delay_ns - min_delay) >> shift) & 0xFF;
    };
    std::fill_n(next.begin(), buckets, 0u);
    for (size_t i = 0; i < n; ++i) {
      ++next[digit(src[i])];
    }
    uint32_t at = 0;
    for (size_t b = 0; b < buckets; ++b) {
      uint32_t count = next[b];
      next[b] = at;
      at += count;
    }
    Receiver* dst = last ? out : spare;
    for (size_t i = 0; i < n; ++i) {
      dst[next[digit(src[i])]++] = src[i];
    }
    spare = src;
    src = dst;
  }
}

// One delivery event: the start edges [start_lo, start_hi) and the end
// edges [end_lo, end_hi), interleaved by attach index (either range may be
// empty).
void WirelessChannel::Delivery::Fire(uint32_t start_lo, uint32_t start_hi,
                                     uint32_t end_lo, uint32_t end_hi) const {
  while (start_lo < start_hi || end_lo < end_hi) {
    if (end_lo == end_hi ||
        (start_lo < start_hi &&
         receivers[start_lo].attach_idx < receivers[end_lo].attach_idx)) {
      const Receiver& r = receivers[start_lo++];
      r.phy->OnArrivalStart(*ppdu, r.distance_m, r.rx_power_mw);
    } else {
      receivers[end_lo++].phy->OnArrivalEnd(*ppdu);
    }
  }
}

}  // namespace hacksim
