#include "src/phy80211/propagation.h"

#include <algorithm>
#include <cmath>

#include "src/phy80211/loss_model.h"

namespace hacksim {

double DbmToMw(double dbm) { return std::pow(10.0, dbm / 10.0); }

double MwToDbm(double mw) { return 10.0 * std::log10(mw); }

double PathLossDb(double distance_m, double pl0_db,
                  double path_loss_exponent) {
  double d = std::max(distance_m, 1.0);
  return pl0_db + 10.0 * path_loss_exponent * std::log10(d);
}

CaptureThreshold::CaptureThreshold(double sinr_db)
    : sinr_db_(sinr_db),
      lower_ratio_(DbmToMw(sinr_db - kGuardDb)),
      upper_ratio_(DbmToMw(sinr_db + kGuardDb)) {}

LogDistancePropagation::LogDistancePropagation(Params params)
    : params_(params), noise_floor_mw_(DbmToMw(params.noise_floor_dbm)) {}

double LogDistancePropagation::RxPowerDbm(double distance_m) const {
  return params_.tx_power_dbm -
         PathLossDb(distance_m, params_.pl0_db, params_.path_loss_exponent);
}

double LogDistancePropagation::CaptureSinrDb(const WifiMode& mode) const {
  // Reuse the loss model's per-mode waterfall midpoints: a frame whose SINR
  // sits `capture_margin_db` above its 50%-FER point decodes through the
  // interference; anything below dies with it.
  return SnrLossModel::ModeSnrMidpointDb(mode) + params_.capture_margin_db;
}

double LogDistancePropagation::MaxDetectableRangeM() const {
  // Invert RxPowerDbm(d) == ed_threshold_dbm.
  double budget_db =
      params_.tx_power_dbm - params_.pl0_db - params_.ed_threshold_dbm;
  return std::pow(10.0, budget_db / (10.0 * params_.path_loss_exponent));
}

}  // namespace hacksim
