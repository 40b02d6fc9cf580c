// Propagation models: how transmit power turns into receive power across
// the cell, and when a receiver can hear a transmission at all.
//
//  * FixedLossPropagation  — the legacy broadcast medium: every attached PHY
//    hears every transmission at full strength regardless of distance, and
//    overlapping receptions keep the historical all-die collision rule. The
//    channel default; every seed scenario runs bit-identical on it.
//  * LogDistancePropagation — geometric cell: log-distance path loss turns
//    per-pair distance into receive power; receivers below the
//    energy-detection threshold get *no* arrival edges (no CCA energy, no
//    decode — the hidden-terminal condition), and overlapping receptions are
//    arbitrated by SINR capture: the strongest survives iff its SINR clears
//    the per-mode capture threshold, instead of the all-die rule.
//
// The model is per-channel (one physical medium). Per-receiver channel
// noise stays in LossModel — propagation decides who hears whom and who
// wins an overlap; loss models add statistical corruption on top.
//
// Neither formula runs per PPDU. Positions do not move during a run, so the
// channel evaluates each pair's receive power once and keeps it in mW
// (WirelessChannel, wifi_phy.h), and CaptureThreshold judges SINR in the
// linear domain without a logarithm.
#ifndef SRC_PHY80211_PROPAGATION_H_
#define SRC_PHY80211_PROPAGATION_H_

#include "src/phy80211/wifi_mode.h"

namespace hacksim {

double DbmToMw(double dbm);
double MwToDbm(double mw);

// Log-distance path loss PL(d) = pl0 + 10 * n * log10(max(d, 1 m)) — the
// one formula both the propagation layer and SnrLossModel consume, so the
// geometry (detect radius, hidden-cluster spacing) can never silently
// diverge from the loss model's SNR arithmetic.
double PathLossDb(double distance_m, double pl0_db, double path_loss_exponent);

// The capture verdict "MwToDbm(signal) - MwToDbm(noise) clears sinr_db",
// judged as a ratio of powers. The log formula carries rounding error: each
// MwToDbm is within a few ULPs of its value, so for powers this model
// produces (|dBm| < 100) the difference lies within 1e-13 dB of the exact
// 10 * log10(signal / noise), and within 4e-12 dB anywhere in the normal
// double range. The ratio is within half an ULP of signal / noise (5e-16
// dB), and the band edges 10^((T -+ kGuardDb) / 10) within a few ULPs of
// their values. So a ratio below the lower edge means an SINR below
// T - kGuardDb + 1e-14 dB, which the log formula also puts below T; above
// the upper edge, both put it at or above T. Only a ratio inside the band,
// where the two could disagree, runs the log formula: the verdict is the
// log formula's, bit for bit, at the cost of one division.
class CaptureThreshold {
 public:
  // Half-width of the band, in dB: far above the log formula's error.
  static constexpr double kGuardDb = 1e-9;

  explicit CaptureThreshold(double sinr_db);

  // Exactly !(MwToDbm(signal_mw) - MwToDbm(noise_mw) < sinr_db()) for
  // positive powers.
  bool Captures(double signal_mw, double noise_mw) const {
    double ratio = signal_mw / noise_mw;
    if (ratio < lower_ratio_) {
      return false;
    }
    if (ratio > upper_ratio_) {
      return true;
    }
    return !(MwToDbm(signal_mw) - MwToDbm(noise_mw) < sinr_db_);
  }

  double sinr_db() const { return sinr_db_; }
  double lower_ratio() const { return lower_ratio_; }
  double upper_ratio() const { return upper_ratio_; }

 private:
  double sinr_db_;
  double lower_ratio_;  // 10^((sinr_db - kGuardDb) / 10)
  double upper_ratio_;  // 10^((sinr_db + kGuardDb) / 10)
};

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  // Receive power at `distance_m` from the transmitter (one shared transmit
  // power per channel; distances below 1 m are clamped to 1 m).
  virtual double RxPowerDbm(double distance_m) const = 0;

  // Energy detection: below this the channel schedules no arrival edges for
  // the receiver — it neither decodes nor carrier-senses the transmission.
  virtual bool Detectable(double rx_power_dbm) const = 0;

  // True when the model limits range / arbitrates overlap by SINR. The
  // fixed-loss model returns false and the PHY keeps the historical
  // all-die overlap semantics bit-for-bit.
  virtual bool limits_range() const = 0;

  // Thermal noise power, linear milliwatts (SINR denominator floor).
  virtual double noise_floor_mw() const = 0;

  // Minimum SINR (dB) at which a PPDU sent at `mode` survives overlapping
  // energy — the capture threshold. Derived per mode: faster constellations
  // need more SINR to capture. The channel evaluates it once per mode and
  // judges with CaptureThreshold.
  virtual double CaptureSinrDb(const WifiMode& mode) const = 0;
};

// Legacy default: an idealised broadcast medium with no geometry. Receive
// power is a constant 0 dBm so every station is always in range; capture is
// never consulted (limits_range() is false).
class FixedLossPropagation final : public PropagationModel {
 public:
  double RxPowerDbm(double) const override { return 0.0; }
  bool Detectable(double) const override { return true; }
  bool limits_range() const override { return false; }
  double noise_floor_mw() const override { return 0.0; }
  double CaptureSinrDb(const WifiMode&) const override { return 0.0; }
};

// Log-distance path loss PL(d) = pl0 + 10 * n * log10(d / 1 m), the same
// form SnrLossModel uses; defaults are tuned for the two-cluster
// hidden-terminal topology (cluster centers 20 m either side of the AP:
// AP <-> station always detectable, cluster <-> cluster never).
class LogDistancePropagation final : public PropagationModel {
 public:
  struct Params {
    double tx_power_dbm = 15.0;
    double pl0_db = 46.7;  // free-space loss at 1 m, 5.2 GHz
    double path_loss_exponent = 3.5;
    double noise_floor_dbm = -95.0;
    // Energy-detection threshold: arrivals below this are invisible.
    double ed_threshold_dbm = -82.0;
    // Capture threshold = the mode's 50%-FER SNR midpoint + this margin.
    double capture_margin_db = 3.0;
  };

  explicit LogDistancePropagation(Params params);
  LogDistancePropagation() : LogDistancePropagation(Params{}) {}

  double RxPowerDbm(double distance_m) const override;
  bool Detectable(double rx_power_dbm) const override {
    return rx_power_dbm >= params_.ed_threshold_dbm;
  }
  bool limits_range() const override { return true; }
  double noise_floor_mw() const override { return noise_floor_mw_; }
  double CaptureSinrDb(const WifiMode& mode) const override;

  const Params& params() const { return params_; }

  // Largest distance still Detectable() — the cell's decode/carrier-sense
  // radius (exposed for topology builders and tests).
  double MaxDetectableRangeM() const;

 private:
  Params params_;
  double noise_floor_mw_;
};

}  // namespace hacksim

#endif  // SRC_PHY80211_PROPAGATION_H_
