// Rate-adaptation tests: ARF up/down transitions pinned against scripted
// outcome sequences, counter-driven probing one rate up, the
// PerRateLossModel signal the controller trains against, and an end-to-end
// two-station convergence run where a lossy top rate drives the sender down
// to a sustainable mode.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/mac80211/station_table.h"
#include "src/mac80211/wifi_mac.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/wifi_phy.h"

namespace hacksim {
namespace {

RateAdaptConfig NoProbeConfig() {
  RateAdaptConfig cfg;
  cfg.up_threshold = 10;
  cfg.down_threshold = 2;
  cfg.probe_interval = 0;
  return cfg;
}

TEST(ArfRateControllerTest, MovesUpAfterConsecutiveSuccesses) {
  ArfRateController ctrl(Modes80211n(), 0, NoProbeConfig());
  for (int i = 0; i < 9; ++i) {
    ctrl.PickModeIndex(0);
    ArfRateController::Move mv = ctrl.OnTxOutcome(0, true);
    EXPECT_FALSE(mv.up) << "moved up after only " << i + 1 << " successes";
    EXPECT_EQ(ctrl.current_index(0), 0u);
  }
  ctrl.PickModeIndex(0);
  ArfRateController::Move mv = ctrl.OnTxOutcome(0, true);
  EXPECT_TRUE(mv.up);
  EXPECT_EQ(ctrl.current_index(0), 1u);
}

TEST(ArfRateControllerTest, TrialFrameFailureFallsStraightBack) {
  ArfRateController ctrl(Modes80211n(), 0, NoProbeConfig());
  for (int i = 0; i < 10; ++i) {
    ctrl.PickModeIndex(0);
    ctrl.OnTxOutcome(0, true);
  }
  ASSERT_EQ(ctrl.current_index(0), 1u);
  // First exchange at the new rate fails: ARF's trial rule drops back
  // immediately, not after down_threshold failures.
  ctrl.PickModeIndex(0);
  ArfRateController::Move mv = ctrl.OnTxOutcome(0, false);
  EXPECT_TRUE(mv.down);
  EXPECT_EQ(ctrl.current_index(0), 0u);
}

TEST(ArfRateControllerTest, DownAfterConsecutiveFailures) {
  ArfRateController ctrl(Modes80211n(), 3, NoProbeConfig());
  ctrl.PickModeIndex(0);
  EXPECT_FALSE(ctrl.OnTxOutcome(0, false).down);
  EXPECT_EQ(ctrl.current_index(0), 3u);
  ctrl.PickModeIndex(0);
  EXPECT_TRUE(ctrl.OnTxOutcome(0, false).down);
  EXPECT_EQ(ctrl.current_index(0), 2u);
  // A success in between resets the failure streak.
  ctrl.PickModeIndex(0);
  ctrl.OnTxOutcome(0, false);
  ctrl.PickModeIndex(0);
  ctrl.OnTxOutcome(0, true);
  ctrl.PickModeIndex(0);
  EXPECT_FALSE(ctrl.OnTxOutcome(0, false).down);
  EXPECT_EQ(ctrl.current_index(0), 2u);
}

// The transition pin: a scripted loss sequence and the exact index trace it
// must produce. 's' = delivered exchange, 'f' = lost exchange.
TEST(ArfRateControllerTest, ScriptedLossSequencePinsIndexTrace) {
  RateAdaptConfig cfg;
  cfg.up_threshold = 3;
  cfg.down_threshold = 2;
  cfg.probe_interval = 0;
  ArfRateController ctrl(Modes80211n(), 2, cfg);

  const std::string script = "sssfsssffssssss";
  // After each outcome, the operating index ARF must hold:
  //   sss   -> up move on the 3rd success            (2 -> 3, on trial)
  //   f     -> trial failure falls straight back     (3 -> 2)
  //   sss   -> up again                              (2 -> 3, on trial)
  //   f     -> trial failure                         (3 -> 2)
  //   f     -> lone failure: streak 1 < 2, holds     (2)
  //   sss   -> up                                    (2 -> 3)
  //   sss   -> up                                    (3 -> 4)
  const std::vector<size_t> expected = {2, 2, 3, 2, 2, 2, 3, 2, 2,
                                        2, 2, 3, 3, 3, 4};
  ASSERT_EQ(script.size(), expected.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(ctrl.PickModeIndex(0), ctrl.current_index(0));
    ctrl.OnTxOutcome(0, script[i] == 's');
    EXPECT_EQ(ctrl.current_index(0), expected[i])
        << "after outcome " << i << " ('" << script[i] << "')";
  }
}

TEST(ArfRateControllerTest, StationsAdaptIndependently) {
  ArfRateController ctrl(Modes80211n(), 4, NoProbeConfig());
  for (int i = 0; i < 2; ++i) {
    ctrl.PickModeIndex(7);
    ctrl.OnTxOutcome(7, false);
  }
  EXPECT_EQ(ctrl.current_index(7), 3u);
  EXPECT_EQ(ctrl.current_index(2), 4u) << "untouched station moved";
}

TEST(ArfRateControllerTest, ProbesEveryIntervalWithoutMovingArfState) {
  RateAdaptConfig cfg;
  cfg.up_threshold = 100;  // no ARF up-moves during this test
  cfg.down_threshold = 2;
  cfg.probe_interval = 4;
  ArfRateController ctrl(Modes80211n(), 2, cfg);

  int probes = 0;
  for (int i = 0; i < 16; ++i) {
    size_t pick = ctrl.PickModeIndex(0);
    if (pick != ctrl.current_index(0)) {
      ++probes;
      EXPECT_EQ(pick, 3u) << "the probe target is one step up";
      // Even a failed probe must not move the operating rate.
      ArfRateController::Move mv = ctrl.OnTxOutcome(0, false);
      EXPECT_FALSE(mv.down);
      EXPECT_EQ(ctrl.current_index(0), 2u);
    } else {
      ctrl.OnTxOutcome(0, true);
    }
  }
  EXPECT_EQ(probes, 4) << "every 4th pick probes";
}

TEST(ArfRateControllerTest, AbandonedProbePickIsDeferredNotBurned) {
  RateAdaptConfig cfg;
  cfg.up_threshold = 100;
  cfg.probe_interval = 4;
  ArfRateController ctrl(Modes80211n(), 2, cfg);
  for (int i = 0; i < 3; ++i) {
    ctrl.PickModeIndex(0);
    ctrl.OnTxOutcome(0, true);
  }
  // 4th pick is a probe — but the PPDU never flies (empty build / CTS
  // timeout): abandoning must re-arm it for the very next pick.
  ASSERT_EQ(ctrl.PickModeIndex(0), 3u);
  ctrl.AbandonPick(0);
  EXPECT_EQ(ctrl.PickModeIndex(0), 3u) << "probe deferred, not burned";
  ctrl.OnTxOutcome(0, false);
  EXPECT_EQ(ctrl.current_index(0), 2u) << "probe failure moves nothing";
}

TEST(PerRateLossModelTest, RateDependentAndControlFramesClean) {
  PerRateLossModel model({{150000, 0.8}, {90000, 0.05}});
  WifiMode top{PhyFormat::kHtMixed, 150000, 540, 1};
  WifiMode mid{PhyFormat::kHtMixed, 90000, 324, 1};
  WifiMode low{PhyFormat::kHtMixed, 15000, 54, 1};
  EXPECT_NEAR(model.FrameErrorRate(top, 1500), 0.8, 1e-9);
  EXPECT_NEAR(model.FrameErrorRate(mid, 1500), 0.05, 1e-9);
  EXPECT_EQ(model.FrameErrorRate(low, 1500), 0.0) << "unlisted rate is clean";
  EXPECT_EQ(model.FrameErrorRate(top, 32), 0.0) << "control size is clean";
  // Longer frames fail more often (independent per-bit errors).
  EXPECT_GT(model.FrameErrorRate(mid, 3000), model.FrameErrorRate(mid, 1500));
}

// End-to-end convergence: the channel delivers nothing at the top rates and
// everything at low ones; the sender must walk down and stay down, and the
// traffic must keep flowing (adaptation is doing the job ARF exists for).
TEST(RateAdaptationEndToEndTest, SenderConvergesBelowLossyRates) {
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = WifiMode{PhyFormat::kHtMixed, 150000, 540, 1};
  cfg.enable_rate_adaptation = true;
  cfg.rate_adapt.probe_interval = 0;  // pure ARF: deterministic convergence

  WifiPhy phy_a(&sched, Random(1));
  WifiPhy phy_b(&sched, Random(2));
  phy_a.AttachTo(&channel);
  phy_b.AttachTo(&channel);
  phy_a.set_position({0, 0});
  phy_b.set_position({5, 0});
  // Everything at or above 90 Mbps is hopeless; 60 Mbps and below is clean.
  phy_b.set_loss_model(std::make_unique<PerRateLossModel>(
      std::vector<PerRateLossModel::Entry>{{150000, 1.0},
                                           {135000, 1.0},
                                           {120000, 1.0},
                                           {90000, 1.0}}));
  WifiMac mac_a(&sched, &phy_a, MacAddress::ForStation(0), cfg, Random(11));
  WifiMac mac_b(&sched, &phy_b, MacAddress::ForStation(1), cfg, Random(12));
  size_t received = 0;
  mac_b.on_rx_packet = [&](Packet, MacAddress) { ++received; };

  // Steady feed (20 packets per 10 ms, ~16 Mbps offered) so the histogram
  // accumulates many post-convergence exchanges, not just the initial
  // walk-down.
  uint32_t fed = 0;
  std::function<void()> feed = [&]() {
    for (int i = 0; i < 20; ++i, ++fed) {
      mac_a.Enqueue(Packet::MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                    Ipv4Address::FromOctets(10, 0, 2, 1), 7,
                                    9, 1000),
                    MacAddress::ForStation(1));
    }
    if (sched.Now() < SimTime::Millis(1900)) {
      sched.ScheduleIn(SimTime::Millis(10), feed);
    }
  };
  feed();
  sched.RunUntil(SimTime::Seconds(2));

  EXPECT_EQ(mac_a.stats().queue_drops, 0u)
      << "adaptation failed to find a sustainable rate";
  EXPECT_GT(received, fed * 9 / 10);
  EXPECT_GE(mac_a.stats().rate_down_moves, 4u) << "150->60 needs 4 steps";
  // The delivered PPDUs must overwhelmingly sit at 60 Mbps (index 3) or
  // below; the histogram is the observable.
  const auto& hist = mac_a.stats().data_ppdus_by_mode_index;
  uint64_t low = hist[0] + hist[1] + hist[2] + hist[3];
  uint64_t high = hist[4] + hist[5] + hist[6] + hist[7];
  EXPECT_GT(low, 2 * high);
}

}  // namespace
}  // namespace hacksim
