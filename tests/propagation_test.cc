// Geometric-channel tests: log-distance path-loss math, energy-detection
// and capture-threshold boundaries, the linear-domain capture verdict
// against the log formula, the scripted 3-node hidden-terminal
// decode trace, and the construction-time validation that keeps legacy
// (position-less) setups on the fixed-loss model.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_phy.h"
#include "src/sim/random.h"

namespace hacksim {
namespace {

// --- path-loss math ---------------------------------------------------------------

TEST(PropagationMathTest, DbmMwRoundTrip) {
  EXPECT_DOUBLE_EQ(DbmToMw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(DbmToMw(10.0), 10.0);
  EXPECT_DOUBLE_EQ(DbmToMw(-30.0), 0.001);
  EXPECT_NEAR(MwToDbm(DbmToMw(-77.3)), -77.3, 1e-9);
}

TEST(PropagationMathTest, LogDistancePathLoss) {
  LogDistancePropagation prop;  // tx 15, pl0 46.7, n 3.5
  // At 1 m only the reference loss applies.
  EXPECT_NEAR(prop.RxPowerDbm(1.0), 15.0 - 46.7, 1e-9);
  // One decade of distance costs 10 * n dB.
  EXPECT_NEAR(prop.RxPowerDbm(10.0), 15.0 - 46.7 - 35.0, 1e-9);
  // Sub-metre distances clamp to the 1 m reference.
  EXPECT_DOUBLE_EQ(prop.RxPowerDbm(0.25), prop.RxPowerDbm(1.0));
  // Monotone decreasing beyond the clamp.
  EXPECT_GT(prop.RxPowerDbm(5.0), prop.RxPowerDbm(20.0));
}

TEST(PropagationMathTest, DetectableBoundary) {
  LogDistancePropagation prop;  // ed threshold -82 dBm
  EXPECT_TRUE(prop.Detectable(-81.9));
  EXPECT_TRUE(prop.Detectable(-82.0));  // at the threshold: detectable
  EXPECT_FALSE(prop.Detectable(-82.1));
}

TEST(PropagationMathTest, MaxDetectableRangeInvertsThePathLoss) {
  LogDistancePropagation prop;
  double r = prop.MaxDetectableRangeM();
  EXPECT_NEAR(prop.RxPowerDbm(r), prop.params().ed_threshold_dbm, 1e-9);
  EXPECT_TRUE(prop.Detectable(prop.RxPowerDbm(r * 0.999)));
  EXPECT_FALSE(prop.Detectable(prop.RxPowerDbm(r * 1.001)));
  // Defaults: the two-cluster topology (AP at 20 m, other cluster at 40 m)
  // must straddle this radius.
  EXPECT_GT(r, 23.0);
  EXPECT_LT(r, 31.0);
}

TEST(PropagationMathTest, CaptureThresholdTracksMode) {
  LogDistancePropagation prop;
  WifiMode slow = ModeForRate(Modes80211a(), 6);
  WifiMode fast = ModeForRate(Modes80211a(), 54);
  // Threshold = the mode's 50%-FER midpoint + the capture margin.
  EXPECT_DOUBLE_EQ(prop.CaptureSinrDb(fast),
                   SnrLossModel::ModeSnrMidpointDb(fast) +
                       prop.params().capture_margin_db);
  // Faster constellations need more SINR to capture.
  EXPECT_LT(prop.CaptureSinrDb(slow), prop.CaptureSinrDb(fast));
}

// --- linear-domain capture verdict ------------------------------------------------

// The verdict the PHY reached before CaptureThreshold: SINR in dB against
// the mode's threshold.
bool LogCaptures(double signal_mw, double noise_mw, double sinr_db) {
  return !(MwToDbm(signal_mw) - MwToDbm(noise_mw) < sinr_db);
}

std::vector<WifiMode> AllModes() {
  std::vector<WifiMode> modes(Modes80211a().begin(), Modes80211a().end());
  modes.insert(modes.end(), Modes80211nExtended().begin(),
               Modes80211nExtended().end());
  return modes;
}

// A signal power whose ratio to `noise_mw` sits within a few ULPs of the
// plain threshold 10^(T / 10), where comparing that ratio with it gives
// the opposite verdict to the log formula; 0 when a scan of 4096 ULPs
// either side finds none. A verdict without the log fallback inside the
// guard band disagrees with the log formula here.
double PlainRatioDisagreement(double noise_mw, double sinr_db) {
  const double plain = DbmToMw(sinr_db);
  const double start = noise_mw * plain;
  for (double direction : {-1.0, 1.0}) {
    double signal = start;
    for (int step = 0; step < 4096; ++step) {
      if (!(signal / noise_mw < plain) !=
          LogCaptures(signal, noise_mw, sinr_db)) {
        return signal;
      }
      signal = std::nextafter(signal, direction * HUGE_VAL);
    }
  }
  return 0.0;
}

TEST(CaptureThresholdTest, BandEdgesSitGuardDbEitherSideOfTheThreshold) {
  CaptureThreshold t(24.0);
  EXPECT_EQ(t.sinr_db(), 24.0);
  EXPECT_NEAR(MwToDbm(t.lower_ratio()), 24.0 - CaptureThreshold::kGuardDb,
              1e-12);
  EXPECT_NEAR(MwToDbm(t.upper_ratio()), 24.0 + CaptureThreshold::kGuardDb,
              1e-12);
}

TEST(CaptureThresholdTest, LinearVerdictEqualsTheLogFormulaOnEveryMode) {
  LogDistancePropagation prop;
  Random rng(2024);
  int modes_with_disagreement = 0;
  for (const WifiMode& mode : AllModes()) {
    SCOPED_TRACE(mode.Name());
    const double sinr_db = prop.CaptureSinrDb(mode);
    const CaptureThreshold t(sinr_db);
    auto expect_log_verdict = [&](double signal_mw, double noise_mw) {
      EXPECT_EQ(t.Captures(signal_mw, noise_mw),
                LogCaptures(signal_mw, noise_mw, sinr_db))
          << "signal " << signal_mw << " mW, noise " << noise_mw << " mW";
    };
    // Random pairs within 3 dB of the threshold, over noise-plus-
    // interference powers from the noise floor to 40 dB above it.
    int mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
      double noise_mw = prop.noise_floor_mw() * DbmToMw(40 * rng.NextDouble());
      double signal_mw =
          noise_mw * DbmToMw(sinr_db + 6 * rng.NextDouble() - 3);
      mismatches += t.Captures(signal_mw, noise_mw) !=
                    LogCaptures(signal_mw, noise_mw, sinr_db);
    }
    EXPECT_EQ(mismatches, 0);
    // Each band edge and one ULP either side of it; over 1 mW of noise the
    // ratio is the signal power itself.
    for (double edge : {t.lower_ratio(), t.upper_ratio()}) {
      expect_log_verdict(std::nextafter(edge, 0.0), 1.0);
      expect_log_verdict(edge, 1.0);
      expect_log_verdict(std::nextafter(edge, HUGE_VAL), 1.0);
    }
    // Inside the band, where only the log formula decides.
    for (int i = 0; i <= 64; ++i) {
      double ratio =
          t.lower_ratio() + (t.upper_ratio() - t.lower_ratio()) * i / 64;
      expect_log_verdict(ratio * prop.noise_floor_mw(), prop.noise_floor_mw());
    }
    // Where comparing the ratio with 10^(T / 10) alone would be wrong.
    for (double noise_mw : {prop.noise_floor_mw(), 1.0, 3.7e-7, 2.2e-9}) {
      double signal_mw = PlainRatioDisagreement(noise_mw, sinr_db);
      if (signal_mw > 0.0) {
        expect_log_verdict(signal_mw, noise_mw);
        ++modes_with_disagreement;
        break;
      }
    }
  }
  // The scan finds such a pair for every mode with glibc's log10.
  EXPECT_EQ(modes_with_disagreement, static_cast<int>(AllModes().size()));
}

TEST(PropagationMathTest, FixedLossHearsEverythingAndNeverCaptures) {
  FixedLossPropagation prop;
  EXPECT_FALSE(prop.limits_range());
  EXPECT_TRUE(prop.Detectable(-200.0));
  EXPECT_DOUBLE_EQ(prop.RxPowerDbm(1e9), 0.0);
}

// --- 3-node hidden-terminal decode trace --------------------------------------------

class RecordingListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    ++received;
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu&) override { ++tx_done; }
  void OnCcaBusy() override { ++busy_edges; }
  void OnCcaIdle() override { ++idle_edges; }

  int received = 0;
  int corrupted = 0;
  int tx_done = 0;
  int busy_edges = 0;
  int idle_edges = 0;
};

Ppdu MakeDataPpdu() {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = MacAddress::ForStation(1);
  f.ra = MacAddress::ForStation(0);
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1000);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

// A(-20, 0) —— AP(0, 0) —— B(20, 0) under the default log-distance model:
// both stations are in range of the AP (20 m < ~27 m detect radius) and out
// of range of each other (40 m) — the canonical hidden pair.
struct HiddenFixture {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy ap{&sched, Random(1)};
  WifiPhy a{&sched, Random(2)};
  WifiPhy b{&sched, Random(3)};
  RecordingListener lap, la, lb;

  HiddenFixture() {
    ap.set_position({0, 0});
    a.set_position({-20, 0});
    b.set_position({20, 0});
    ap.AttachTo(&channel);
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    ap.set_listener(&lap);
    a.set_listener(&la);
    b.set_listener(&lb);
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
  }
};

TEST(HiddenTerminalTest, OutOfRangeReceiverSeesNothing) {
  HiddenFixture f;
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  f.sched.Run();
  // The AP decodes; B gets neither energy (no CCA edge) nor a decode — it
  // cannot even tell the medium was busy. That pair is also pruned from the
  // scheduler entirely.
  EXPECT_EQ(f.lap.received, 1);
  EXPECT_EQ(f.lb.received, 0);
  EXPECT_EQ(f.lb.corrupted, 0);
  EXPECT_EQ(f.lb.busy_edges, 0);
  EXPECT_EQ(f.channel.airtime().out_of_range, 1u);
}

TEST(HiddenTerminalTest, SymmetricHiddenCollisionKillsBothAtTheReceiver) {
  HiddenFixture f;
  // Neither station can carrier-sense the other, so both transmit freely.
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  ASSERT_TRUE(f.b.Send(MakeDataPpdu()));
  f.sched.Run();
  // Equal receive power at the AP: SINR ~ 0 dB, far below the 54 Mbps
  // capture threshold — both die, exactly like the fixed-loss rule.
  EXPECT_EQ(f.lap.received, 0);
  EXPECT_EQ(f.lap.corrupted, 2);
  EXPECT_EQ(f.ap.stats().overlap_losses, 2u);
  EXPECT_EQ(f.ap.stats().captures, 0u);
}

TEST(HiddenTerminalTest, StrongerFrameCapturesOverWeaker) {
  HiddenFixture f;
  WifiPhy near{&f.sched, Random(4)};
  RecordingListener lnear;
  near.set_position({2, 0});
  near.AttachTo(&f.channel);
  near.set_listener(&lnear);
  // A (20 m out, rx ~ -77 dBm) and the near station (2 m, rx ~ -42 dBm)
  // collide at the AP. The near frame's SINR (~35 dB) clears the 54 Mbps
  // capture threshold (24 dB); A's (~ -35 dB) does not.
  ASSERT_TRUE(f.a.Send(MakeDataPpdu()));
  ASSERT_TRUE(near.Send(MakeDataPpdu()));
  f.sched.Run();
  EXPECT_EQ(f.lap.received, 1);
  EXPECT_EQ(f.lap.corrupted, 1);
  EXPECT_EQ(f.ap.stats().captures, 1u);
  EXPECT_EQ(f.ap.stats().overlap_losses, 1u);
}

// --- construction validation ---------------------------------------------------------

TEST(GeometryValidationDeathTest, AttachWithoutPositionUnderRangedModelDies) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  channel.set_propagation(std::make_unique<LogDistancePropagation>());
  WifiPhy unpositioned{&sched, Random(1)};
  EXPECT_DEATH(channel.Attach(&unpositioned), "explicit position");
}

TEST(GeometryValidationDeathTest, SwitchingToRangedModelWithMixedPhysDies) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy positioned{&sched, Random(1)};
  positioned.set_position({3, 4});
  positioned.AttachTo(&channel);
  WifiPhy unpositioned{&sched, Random(2)};
  unpositioned.AttachTo(&channel);
  EXPECT_DEATH(
      channel.set_propagation(std::make_unique<LogDistancePropagation>()),
      "explicit position");
}

TEST(GeometryValidationTest, LegacyConstructionSelectsFixedLossExplicitly) {
  // Position-less construction is the legacy mode and must keep working —
  // but only because it explicitly rides the fixed-loss model (the channel
  // default, re-installable by hand).
  Scheduler sched;
  WirelessChannel channel{&sched};
  EXPECT_FALSE(channel.propagation().limits_range());
  WifiPhy tx{&sched, Random(1)};
  WifiPhy rx{&sched, Random(2)};
  tx.AttachTo(&channel);
  rx.AttachTo(&channel);
  channel.set_propagation(std::make_unique<FixedLossPropagation>());
  RecordingListener listener;
  rx.set_listener(&listener);
  ASSERT_TRUE(tx.Send(MakeDataPpdu()));
  sched.Run();
  EXPECT_EQ(listener.received, 1);
  EXPECT_EQ(channel.airtime().out_of_range, 0u);
}

}  // namespace
}  // namespace hacksim
