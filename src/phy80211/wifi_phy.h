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
//     survives iff its SINR clears the mode's capture threshold. Receivers
//     whose receive power sits below the energy-detection threshold get no
//     arrival edges at all — they neither decode nor carrier-sense the
//     transmission (the hidden-terminal condition).
//
// Carrier sense (CCA) reports energy from any *detectable* arrival,
// decodable or not.
//
// Delivery scheduling: the channel batches all arrival edges that land on
// the same nanosecond into one scheduler event (ChannelDeliveryMode::
// kBatched, the default), so per-PPDU event count is bounded by the number
// of distinct propagation delays — the cell's diameter in light-ns — rather
// than by the attached-PHY count. Arrival times, callback order, and
// corruption semantics are bit-identical to the historical one-event-per-PHY
// scheduling, which remains available (kPerPhyEvent) as the reference
// semantics for the equivalence tests.
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
// single heap copy per PPDU and all arrivals reference it, instead of the
// historical per-receiver Ppdu copy (O(n) A-MPDU copies per transmission in
// a dense cell).
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
  void set_loss_model(std::unique_ptr<LossModel> model) {
    loss_model_ = std::move(model);
  }
  void set_position(Position p) {
    position_ = p;
    has_position_ = true;
  }
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
  void AttachTo(WirelessChannel* channel);
  void OnArrivalStart(uint64_t arrival_id, PpduRef ppdu, SimTime end,
                      double distance_m, double rx_power_dbm);
  void OnArrivalEnd(uint64_t arrival_id);
  void OnOwnTxEnd(const Ppdu& ppdu);

  const PhyStats& stats() const { return stats_; }
  uint64_t tx_dropped_busy() const { return stats_.tx_dropped_busy; }

 private:
  struct Arrival {
    PpduRef ppdu;
    SimTime end;
    double distance_m;
    double rx_power_mw = 0.0;
    // Sum of receive powers of every other transmission that overlapped
    // this arrival at any point (range-limited propagation only); the SINR
    // verdict lands at arrival end.
    double interference_mw = 0.0;
    bool corrupted = false;
  };

  void UpdateCca();

  Scheduler* scheduler_;
  Random rng_;
  WirelessChannel* channel_ = nullptr;
  WifiPhyListener* listener_ = nullptr;
  std::unique_ptr<LossModel> loss_model_;
  Position position_;
  bool has_position_ = false;

  // In-flight arrivals, insertion (= id) order. Rarely more than two deep;
  // a flat vector beats the former std::map on every touch.
  std::vector<std::pair<uint64_t, Arrival>> arrivals_;
  bool transmitting_ = false;
  bool cca_busy_reported_ = false;
  bool radio_on_ = true;
  // End events owed for arrivals killed by a power-down (or ignored while
  // off); OnArrivalEnd swallows exactly this many unknown ids. Same scheme
  // for an aborted own transmission's tx-end event. Correctness relies on
  // events firing in time order: every swallowed end edge belongs to an
  // arrival that provably started before the power transition.
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

  // Attaching the same PHY twice would double-deliver every PPDU; it is a
  // programming error and aborts. So is attaching a PHY without an explicit
  // position while a range-limited propagation model is installed.
  void Attach(WifiPhy* phy);
  size_t attached_count() const { return phys_.size(); }

  // Installs a propagation model. Defaults to FixedLossPropagation — the
  // legacy broadcast medium, selected explicitly so position-less
  // construction stays valid. Installing a range-limited model aborts
  // unless every already-attached PHY has an explicit position.
  void set_propagation(std::unique_ptr<PropagationModel> model);
  const PropagationModel& propagation() const { return *propagation_; }

  // Propagates `ppdu` from `sender` to every other attached PHY with
  // per-pair propagation delay (distance / c).
  void Transmit(WifiPhy* sender, Ppdu ppdu);

  const ChannelAirtime& airtime() const { return airtime_; }

 private:
  // One receiver's arrival start or end edge inside a batched delivery
  // event. `attach_idx` preserves the historical callback order for edges
  // sharing a nanosecond.
  struct DeliveryEdge {
    SimTime at;
    size_t attach_idx;
    WifiPhy* phy;
    uint64_t arrival_id;
    SimTime end;           // arrival end time (start edges only)
    double distance_m;     // start edges only
    double rx_power_dbm;   // start edges only
    bool is_start;
  };

  void TransmitBatched(WifiPhy* sender, PpduRef ppdu, SimTime now,
                       SimTime duration);
  void TransmitPerPhy(WifiPhy* sender, PpduRef ppdu, SimTime now,
                      SimTime duration);

  Scheduler* scheduler_;
  ChannelDeliveryMode mode_;
  std::unique_ptr<PropagationModel> propagation_ =
      std::make_unique<FixedLossPropagation>();
  std::vector<WifiPhy*> phys_;
  uint64_t next_ppdu_id_ = 1;
  uint64_t next_arrival_id_ = 1;
  ChannelAirtime airtime_;
  int active_transmissions_ = 0;
  SimTime overlap_started_;
};

}  // namespace hacksim

#endif  // SRC_PHY80211_WIFI_PHY_H_
