// Channel loss models. The ideal channel is no model at all: a WifiPhy
// starts without one (see WifiPhy::set_loss_model).
//
//  * BernoulliLossModel — i.i.d. per-MPDU corruption with fixed probability;
//    used to emulate the SoRa testbed's per-client frame loss (paper §4.2).
//  * SnrLossModel       — log-distance path loss -> SNR -> per-mode logistic
//    frame error rate scaled by MPDU length; drives the Figure 11 SNR sweep.
//  * PerRateLossModel   — explicit rate -> PER table, distance-independent;
//    the controllable signal the per-station rate-adaptation loop trains
//    against (high rates lossy, low rates robust, chosen — not derived).
//  * GatedLossModel     — fault-injection wrapper: extra Bernoulli loss only
//    while an interference-burst window is open, stream-neutral otherwise.
//
// Collisions are handled by the PHY itself (overlapping receptions corrupt
// each other — or survive by SINR capture under a range-limited
// PropagationModel, see propagation.h); loss models add statistical
// channel-noise corruption on top, after the overlap verdict. The capture
// thresholds reuse this file's per-mode SNR midpoints
// (SnrLossModel::ModeSnrMidpointDb), so the two layers share one waterfall
// table.
#ifndef SRC_PHY80211_LOSS_MODEL_H_
#define SRC_PHY80211_LOSS_MODEL_H_

#include <memory>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/wifi_mode.h"
#include "src/sim/random.h"

namespace hacksim {

class LossModel {
 public:
  virtual ~LossModel() = default;

  // Returns true if an MPDU of `bytes` sent at `mode` over `distance_m`
  // is corrupted by channel noise.
  virtual bool ShouldCorrupt(const WifiMode& mode, size_t bytes,
                             double distance_m, Random& rng) = 0;
};

class BernoulliLossModel final : public LossModel {
 public:
  // `data_loss` applies to data MPDUs; control frames (<= `control_bytes`
  // threshold, default 64 B) use `control_loss` — short control frames at
  // robust basic rates fail far less often than full-size data frames.
  explicit BernoulliLossModel(double data_loss, double control_loss = 0.0)
      : data_loss_(data_loss), control_loss_(control_loss) {}

  bool ShouldCorrupt(const WifiMode&, size_t bytes, double,
                     Random& rng) override {
    double p = bytes <= kControlSizeThreshold ? control_loss_ : data_loss_;
    return rng.NextBool(p);
  }

  static constexpr size_t kControlSizeThreshold = 64;

 private:
  double data_loss_;
  double control_loss_;
};

// Explicit per-rate PER curve: each rate has a frame error rate for
// reference-length data MPDUs, scaled to the actual MPDU length assuming
// independent per-bit errors (same convention as SnrLossModel). Rates
// absent from the table and control-size frames (<= control threshold, the
// robust basic-rate responses) are lossless. Distance plays no part — this
// is the model for scenarios and tests that want to *choose* the channel
// quality seen at each rate so rate adaptation has a deterministic,
// interpretable signal to converge on.
class PerRateLossModel final : public LossModel {
 public:
  struct Entry {
    uint32_t rate_kbps;
    double per;  // reference-length frame error rate in [0, 1]
  };

  explicit PerRateLossModel(std::vector<Entry> table,
                            size_t reference_bytes = 1500)
      : table_(std::move(table)), reference_bytes_(reference_bytes) {}

  bool ShouldCorrupt(const WifiMode& mode, size_t bytes, double distance_m,
                     Random& rng) override;

  // Deterministic FER for `bytes` at `mode` (exposed for tests).
  double FrameErrorRate(const WifiMode& mode, size_t bytes) const;

  static constexpr size_t kControlSizeThreshold = 64;

 private:
  std::vector<Entry> table_;
  size_t reference_bytes_;
};

// Fault-injection wrapper: delegates to an inner model (optional) and, only
// while an interference-burst window is open (extra_loss > 0), adds one
// independent Bernoulli corruption draw per MPDU. Outside a window the
// wrapper consumes NO RNG draws and defers entirely to the inner model, so
// a scenario that installs it but never opens a window is stream-identical
// to one that never installed it — which is why the scenario only installs
// it when the fault plan actually contains bursts.
class GatedLossModel final : public LossModel {
 public:
  explicit GatedLossModel(std::unique_ptr<LossModel> inner)
      : inner_(std::move(inner)) {}

  void set_extra_loss(double p) { extra_loss_ = p; }
  double extra_loss() const { return extra_loss_; }

  bool ShouldCorrupt(const WifiMode& mode, size_t bytes, double distance_m,
                     Random& rng) override {
    bool corrupt = inner_ != nullptr &&
                   inner_->ShouldCorrupt(mode, bytes, distance_m, rng);
    if (extra_loss_ > 0.0) {
      // Drawn even when already corrupt: the draw count per MPDU must not
      // depend on the inner verdict, or a burst would desynchronise the
      // stream for every MPDU after the first inner corruption.
      bool burst_hit = rng.NextBool(extra_loss_);
      corrupt = corrupt || burst_hit;
    }
    return corrupt;
  }

 private:
  std::unique_ptr<LossModel> inner_;
  double extra_loss_ = 0.0;
};

// SNR-driven model. SNR(dB) = tx_power_dbm - PL(d) - noise_floor_dbm with
// log-distance path loss PL(d) = pl0 + 10 * n * log10(d / 1 m). Each mode
// has a logistic "waterfall" reference frame error rate, scaled to the MPDU
// length assuming independent per-bit errors.
class SnrLossModel final : public LossModel {
 public:
  struct Params {
    double tx_power_dbm = 15.0;
    double noise_floor_dbm = -85.0;  // thermal + NF over 40 MHz
    double path_loss_exponent = 3.0;
    double pl0_db = 46.7;  // free-space loss at 1 m, 5.2 GHz
    double waterfall_width_db = 1.6;
    size_t reference_bytes = 1500;
  };

  explicit SnrLossModel(Params params) : params_(params) {}
  SnrLossModel() : SnrLossModel(Params{}) {}

  bool ShouldCorrupt(const WifiMode& mode, size_t bytes, double distance_m,
                     Random& rng) override;

  double SnrDbAt(double distance_m) const;

  // Frame error rate for `bytes` at `mode` under `snr_db` (deterministic;
  // exposed for tests and for the Figure 11 harness).
  double FrameErrorRate(const WifiMode& mode, size_t bytes,
                        double snr_db) const;

  // SNR at which the reference-length FER is 50% for this mode.
  static double ModeSnrMidpointDb(const WifiMode& mode);

 private:
  Params params_;
};

}  // namespace hacksim

#endif  // SRC_PHY80211_LOSS_MODEL_H_
