// Half-duplex OFDM PHY attached to a shared medium with pluggable
// propagation (see propagation.h).
//
// Reception model: a PPDU decodes iff (a) the receiver was not transmitting
// at any point during it, (b) it survives the overlap rule, and (c) each
// MPDU survives the configured channel-noise loss model. The overlap rule
// depends on the channel's PropagationModel:
//   * fixed-loss (legacy default): any overlap corrupts *both* frames — no
//     capture. This is what produces the TCP-ACK-vs-data collisions the
//     paper measures in Table 1, and it is bit-identical to the historical
//     behaviour.
//   * range-limited (log-distance): each arrival accumulates the receive
//     power of every transmission it overlapped; at arrival end the frame
//     survives iff its SINR clears the mode's capture threshold, judged in
//     the linear domain (CaptureThreshold, propagation.h). Receivers whose
//     receive power sits below the energy-detection threshold get no
//     arrival edges at all — they neither decode nor carrier-sense the
//     transmission (the hidden-terminal condition). The channel computes
//     each pair's receive power once per run, not once per PPDU (see
//     WirelessChannel's power cache).
//
// Carrier sense (CCA) reports energy from any *detectable* arrival,
// decodable or not.
//
// Delivery scheduling: the channel batches all arrival edges that land on
// the same nanosecond into one scheduler event (ChannelDeliveryMode::
// kBatched, the default), so per-PPDU event count is bounded by the number
// of distinct propagation delays — the cell's diameter in light-ns — rather
// than by the attached-PHY count. The receivers are ordered once per PPDU by
// (delay, attach index) with stable counting passes over the delay's bytes,
// and every event of the PPDU covers a range of that one shared order.
// Arrival times, callback order, and corruption semantics are bit-identical
// to the historical one-event-per-PHY scheduling, which remains available
// (kPerPhyEvent) as the reference semantics for the equivalence tests.
#ifndef SRC_PHY80211_WIFI_PHY_H_
#define SRC_PHY80211_WIFI_PHY_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/stats/phy_stats.h"

namespace hacksim {

class WirelessChannel;

// One transmission's payload, shared by every receiver: the channel makes a
// single heap copy per PPDU, and its delivery events own it until the last
// arrival edge has fired. Receivers borrow it (see WifiPhy::OnArrivalStart)
// instead of holding a reference count per arrival.
using PpduRef = std::shared_ptr<const Ppdu>;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

double DistanceMeters(Position a, Position b);

// Implemented by the MAC.
class WifiPhyListener {
 public:
  virtual ~WifiPhyListener() = default;

  // A PPDU decoded; mpdu_ok[i] says whether MPDU i survived channel noise.
  // At least one entry is true.
  virtual void OnPpduReceived(const Ppdu& ppdu,
                              const std::vector<bool>& mpdu_ok) = 0;
  // Energy was received but nothing decodable came out (collision, noise
  // killing every MPDU, or arrival during own transmission) — EIFS applies.
  virtual void OnRxCorrupted() = 0;
  virtual void OnTxEnd(const Ppdu& ppdu) = 0;
  // CCA transitions (energy or own transmission).
  virtual void OnCcaBusy() = 0;
  virtual void OnCcaIdle() = 0;
};

class WifiPhy {
 public:
  WifiPhy(Scheduler* scheduler, Random rng);

  void set_listener(WifiPhyListener* listener) { listener_ = listener; }
  // No model (the default, or nullptr) is the ideal channel: every MPDU of
  // a frame that survives the overlap rule decodes, and no RNG is drawn.
  void set_loss_model(std::unique_ptr<LossModel> model) {
    loss_model_ = std::move(model);
  }
  // Moving an attached radio updates the channel's copy of its position
  // and clears the channel's cached receive powers.
  void set_position(Position p);
  Position position() const { return position_; }
  // True once a position was explicitly assigned. Range-limited propagation
  // refuses PHYs still sitting at the implicit origin: a forgotten position
  // would silently co-locate the node with the AP (see WirelessChannel::
  // Attach / set_propagation).
  bool has_position() const { return has_position_; }

  // Begins transmitting. If a transmission is already in progress the PPDU
  // is dropped (returns false) — can occur when a SIFS response collides
  // with an already-granted transmission under abnormal response delays.
  bool Send(Ppdu ppdu);

  // Radio power state (fault injection: crash, AP outage, interface
  // reset). Powering down kills every in-flight arrival and aborts an own
  // transmission in progress; their already-scheduled end events are
  // swallowed via tolerance counters rather than cancelled, keeping the
  // power switch O(arrivals). While off, Send refuses and arrival edges
  // are ignored. Powering up returns a clean receiver.
  void SetRadioOn(bool on);
  bool radio_on() const { return radio_on_; }

  bool transmitting() const { return transmitting_; }
  bool IsCcaBusy() const { return transmitting_ || !arrivals_.empty(); }

  // --- channel-facing interface -------------------------------------------
  // An arrival is keyed by its payload's address: a PHY receives a given
  // PPDU at most once. The caller keeps `ppdu` alive from the start edge
  // until the matching end edge has returned; the PHY stores only a
  // pointer to it.
  void AttachTo(WirelessChannel* channel);
  // `rx_power_mw` is the frame's receive power in milliwatts (any positive
  // value on the fixed-loss channel, which never consults it).
  void OnArrivalStart(const Ppdu& ppdu, double distance_m,
                      double rx_power_mw);
  void OnArrivalEnd(const Ppdu& ppdu);
  void OnOwnTxEnd(const Ppdu& ppdu);

  const PhyStats& stats() const { return stats_; }

 private:
  // Attach links the radio to its channel and gives it its index there.
  friend class WirelessChannel;

  struct Arrival {
    const Ppdu* ppdu;
    double distance_m;
    double rx_power_mw;
    // Sum of receive powers of every other transmission that overlapped
    // this arrival at any point (range-limited propagation only), added in
    // start order; the SINR verdict lands at arrival end.
    double interference_mw;
    // corruptions_ when the arrival started: any later corrupting event
    // moves the counter and so dooms this arrival too.
    uint64_t corruptions_at_start;
    // Doomed from its first nanosecond: it began during an own
    // transmission or, on the fixed-loss channel, over another arrival.
    bool corrupted;
  };

  void UpdateCca();

  Scheduler* scheduler_;
  Random rng_;
  WirelessChannel* channel_ = nullptr;
  WifiPhyListener* listener_ = nullptr;
  std::unique_ptr<LossModel> loss_model_;
  Position position_;
  bool has_position_ = false;
  uint32_t attach_idx_ = 0;  // this radio's index in channel_'s attach order

  // In-flight arrivals are arrivals_[head_, size), in start order. They
  // run deep in a saturated cell: on the 1000-station ring (fixed-loss,
  // 1000 backlogged RTS senders) 68.0% of starts find at least one arrival
  // in flight, 28.7% find 8 or more and 3.1% find 33 or more; on the
  // 1000-station disk (log-distance) 63.0% find one, with mean depth 3.1;
  // on the 10-station paper cell 0.8% do. So no edge walks them on the
  // fixed-loss channel:
  //   * An arrival is corrupted iff it started corrupted or corruptions_
  //     moved before its end. Every event that corrupts all arrivals in
  //     flight bumps the counter: an arrival starting over others on the
  //     fixed-loss channel, or Send while receiving.
  //   * The ending arrival is almost always the oldest (99.86% of ends on
  //     the ring, 96.2% on the disk): it leaves by ++head_, and the vector
  //     resets when the last one leaves. Any other leaves by erase, which
  //     keeps start order. A full vector whose front half is dead is
  //     compacted instead of grown, so a receiver that never goes idle
  //     stays bounded, at amortised O(1) per arrival.
  //   * Only SINR capture (log-distance) walks them: each start adds powers
  //     over the in-flight arrivals in start order, so both delivery modes
  //     add the same terms in the same order.
  // `ppdu` is borrowed: the channel's delivery events (or, in kPerPhyEvent
  // mode, the end-edge closure) own the payload until the end edge fires.
  std::vector<Arrival> arrivals_;
  size_t head_ = 0;
  uint64_t corruptions_ = 0;
  bool transmitting_ = false;
  bool cca_busy_reported_ = false;
  bool radio_on_ = true;
  // The ppdu_id of the transmission in progress (or of the last one). A
  // tx-end carrying any other id belongs to an aborted transmission.
  uint64_t tx_ppdu_id_ = 0;
  // End events owed for arrivals killed by a power-down (or ignored while
  // off); OnArrivalEnd swallows exactly this many unmatched ends. Same scheme
  // for an aborted own transmission's tx-end event, recognised by its
  // ppdu_id even when a newer transmission is already on air. Correctness
  // relies on events firing in time order: every swallowed end edge belongs
  // to an arrival that provably started before the power transition.
  uint64_t dropped_arrival_ends_ = 0;
  uint64_t aborted_tx_ends_ = 0;
  PhyStats stats_;
};

// Airtime ledger: how the medium's busy time divides across frame types.
// Backs the paper's §2.1 overhead narrative with a measurable quantity.
struct ChannelAirtime {
  int64_t data_ns = 0;        // data PPDUs (single or A-MPDU)
  int64_t ack_ns = 0;         // LL ACKs and Block ACKs (incl. HACK payload)
  int64_t bar_ns = 0;         // Block ACK Requests
  int64_t rts_cts_ns = 0;     // RTS + CTS handshake frames
  int64_t collision_ns = 0;   // wall-clock during >= 2 overlapping PPDUs
  uint64_t ppdus = 0;
  uint64_t collisions = 0;    // transmissions that began during another
  uint64_t out_of_range = 0;  // (sender, receiver) pairs pruned because the
                              // receive power sat below the propagation
                              // model's energy-detection threshold

  int64_t TotalBusyNs() const {
    return data_ns + ack_ns + bar_ns + rts_cts_ns;
  }

  friend bool operator==(const ChannelAirtime&,
                         const ChannelAirtime&) = default;
};

enum class ChannelDeliveryMode {
  // One scheduler event per distinct arrival-edge nanosecond per PPDU; edge
  // callbacks fan out inside the event in attach order. O(cell diameter)
  // events per PPDU, independent of attached-PHY count.
  kBatched,
  // Historical reference semantics: two scheduler events (arrival start and
  // end) per attached PHY per PPDU. O(n) events per PPDU.
  kPerPhyEvent,
};

class WirelessChannel {
 public:
  explicit WirelessChannel(
      Scheduler* scheduler,
      ChannelDeliveryMode mode = ChannelDeliveryMode::kBatched)
      : scheduler_(scheduler), mode_(mode) {}
  ~WirelessChannel();

  // Attaching the same PHY twice would double-deliver every PPDU; it is a
  // programming error and aborts. So is attaching a PHY without an explicit
  // position while a range-limited propagation model is installed, or one
  // already attached to another channel.
  void Attach(WifiPhy* phy);
  size_t attached_count() const { return phys_.size(); }

  // Installs a propagation model. Defaults to FixedLossPropagation — the
  // legacy broadcast medium, selected explicitly so position-less
  // construction stays valid. Installing a range-limited model aborts
  // unless every already-attached PHY has an explicit position.
  void set_propagation(std::unique_ptr<PropagationModel> model);
  const PropagationModel& propagation() const { return *propagation_; }
  // propagation().limits_range(), read once per set_propagation rather
  // than through a virtual call on every arrival edge.
  bool limits_range() const { return limits_range_; }

  // Propagates `ppdu` from `sender` to every other attached PHY with
  // per-pair propagation delay (distance / c). Returns the ppdu_id it
  // assigned.
  uint64_t Transmit(WifiPhy* sender, Ppdu ppdu);

  const ChannelAirtime& airtime() const { return airtime_; }

  // Per-MPDU verdicts of the frame a receiver is decoding. One buffer
  // serves every PHY on the channel (it stays cache-hot, and no decode
  // allocates); it is valid only during that receiver's OnPpduReceived,
  // which no other arrival end can interrupt: end edges run only from
  // scheduler events.
  std::vector<bool>& mpdu_verdicts() { return mpdu_verdicts_; }

  // Above this many attached radios the channel keeps no power cache (16
  // MB of pairs at the bound) and computes each pair's power per PPDU, so
  // its memory stays linear in the radio count.
  static constexpr size_t kMaxCachedRadios = 2048;

 private:
  // WifiPhy reports moves through MovePhy and reads capture thresholds.
  friend class WifiPhy;

  // One in-range receiver of a batched delivery.
  struct Receiver {
    WifiPhy* phy;
    double distance_m;
    double rx_power_mw;
    int64_t delay_ns;
    uint32_t attach_idx;
  };

  // Everything a PPDU's delivery events share: the payload and its
  // receivers in (delay, attach index) order. Each event covers one run of
  // equal-delay starts, one run of equal-delay ends, or both when a start
  // run and an end run land on the same nanosecond. Every event holds the
  // record, so the payload outlives the last end edge the receivers
  // borrow it for. The receiver array is left uninitialised when the
  // record is made: the ordering's last pass writes every entry.
  struct Delivery {
    PpduRef ppdu;
    std::unique_ptr<Receiver[]> receivers;

    void Fire(uint32_t start_lo, uint32_t start_hi, uint32_t end_lo,
              uint32_t end_hi) const;
  };

  void MovePhy(uint32_t attach_idx, Position p);
  // The capture threshold of `mode` under the installed model, evaluated
  // once per mode and kept until the next set_propagation.
  const CaptureThreshold& CaptureThresholdFor(const WifiMode& mode);
  // Receive power in mW at radio `b` of a transmission from radio `a` (or
  // the reverse: the model depends only on distance): 0 below energy
  // detect.
  double PairPowerMw(uint32_t a, uint32_t b) const;
  // Calls visit(attach_idx, rx_power_mw) for every radio but `sender`, in
  // attach order; rx_power_mw is 0 for a pair below energy detect, and 1.0
  // (0 dBm) for every pair on the fixed-loss channel.
  template <typename Visit>
  void ForEachReceiver(uint32_t sender, Visit visit);
  void TransmitBatched(WifiPhy* sender, PpduRef ppdu, SimTime now,
                       SimTime duration);
  // Writes in_range_ into `out` in (delay, attach index) order. `in_range_`
  // is in attach order and every delay lies in [min_delay, min_delay +
  // span]; in_range_ and sort_scratch_ are clobbered.
  void OrderByDelay(int64_t min_delay, uint64_t span, Receiver* out);
  void TransmitPerPhy(WifiPhy* sender, PpduRef ppdu, SimTime now,
                      SimTime duration);

  Scheduler* scheduler_;
  ChannelDeliveryMode mode_;
  std::unique_ptr<PropagationModel> propagation_ =
      std::make_unique<FixedLossPropagation>();
  bool limits_range_ = false;
  std::vector<WifiPhy*> phys_;
  // positions_[i] is phys_[i]'s position: the collection loop reads it
  // from here rather than from each scattered WifiPhy.
  std::vector<Position> positions_;
  // The power cache: on a range-limited channel of at most
  // kMaxCachedRadios radios, pair (i, j), i < j, holds PairPowerMw(i, j)
  // at j * (j - 1) / 2 + i, or a negative value until first needed. 4 MB
  // at 1001 radios, against 8 MB for the full matrix; a sender reads its
  // own column (receivers below it) contiguously and the entries of the
  // receivers above it at a stride, which the collection loop prefetches.
  // Allocated by the first range-limited Transmit, so set-up never pays
  // for it, and cleared by Attach, set_propagation and MovePhy. Its buffer
  // outlives the channel as its thread's spare, which the thread's next
  // channel takes over (see ~WirelessChannel).
  std::vector<double> pair_mw_;
  std::vector<std::pair<WifiMode, CaptureThreshold>> capture_thresholds_;
  uint64_t next_ppdu_id_ = 1;
  // The in-range receivers of the PPDU being sent, reused across PPDUs.
  std::vector<Receiver> in_range_;
  // The other half of OrderByDelay's ping-pong; touched only by PPDUs whose
  // delay spread needs two or more passes (a cell wider than about 76 m).
  std::vector<Receiver> sort_scratch_;
  std::vector<bool> mpdu_verdicts_;
  ChannelAirtime airtime_;
  int active_transmissions_ = 0;
  SimTime overlap_started_;
};

}  // namespace hacksim

#endif  // SRC_PHY80211_WIFI_PHY_H_
