// Unit tests: PHY timing tables (the numbers the paper's analysis rests on),
// frame sizes, loss models, and the collision semantics of the shared medium.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/phy80211/frame.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_mode.h"
#include "src/phy80211/wifi_phy.h"
#include "src/sim/random.h"

namespace hacksim {
namespace {

// --- timing tables ---------------------------------------------------------------

TEST(WifiModeTest, TimingConstantsMatchStandard) {
  PhyTimings a = TimingsFor(WifiStandard::k80211a);
  EXPECT_EQ(a.slot, SimTime::Micros(9));
  EXPECT_EQ(a.sifs, SimTime::Micros(16));
  EXPECT_EQ(a.difs, SimTime::Micros(34));  // SIFS + 2 slots

  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  EXPECT_EQ(n.difs, SimTime::Micros(43));  // AIFS[BE] = SIFS + 3 slots
  EXPECT_EQ(n.cw_min, 15u);
  EXPECT_EQ(n.cw_max, 1023u);
}

TEST(WifiModeTest, MeanIdlePeriodIs110_5Microseconds) {
  // §1: "EDCA in 802.11n enforces an average idle period of 110.5 us".
  PhyTimings n = TimingsFor(WifiStandard::k80211n);
  double mean_us = n.difs.ToMicrosF() + n.cw_min / 2.0 * n.slot.ToMicrosF();
  EXPECT_DOUBLE_EQ(mean_us, 110.5);
}

TEST(WifiModeTest, ModeTables) {
  EXPECT_EQ(Modes80211a().size(), 8u);
  EXPECT_EQ(Modes80211a().front().rate_mbps(), 6.0);
  EXPECT_EQ(Modes80211a().back().rate_mbps(), 54.0);
  EXPECT_EQ(Modes80211n().size(), 8u);
  EXPECT_EQ(Modes80211n().front().rate_mbps(), 15.0);
  EXPECT_EQ(Modes80211n().back().rate_mbps(), 150.0);
  EXPECT_EQ(Modes80211nExtended().back().rate_mbps(), 600.0);
  EXPECT_EQ(Modes80211nExtended().back().spatial_streams, 4);
}

TEST(WifiModeTest, ControlResponseRates) {
  // Highest basic rate (6/12/24) not exceeding the data rate.
  auto mode_a = [](double mbps) {
    return ModeForRate(Modes80211a(), mbps);
  };
  EXPECT_EQ(ControlResponseMode(mode_a(54)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(24)).rate_mbps(), 24.0);
  EXPECT_EQ(ControlResponseMode(mode_a(18)).rate_mbps(), 12.0);
  EXPECT_EQ(ControlResponseMode(mode_a(9)).rate_mbps(), 6.0);
  EXPECT_EQ(ControlResponseMode(mode_a(6)).rate_mbps(), 6.0);
  // HT rates map the same way (paper §4.3: 150 Mbps data, 24 Mbps LL ACKs).
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 150)).rate_mbps(),
            24.0);
  EXPECT_EQ(ControlResponseMode(ModeForRate(Modes80211n(), 15)).rate_mbps(),
            12.0);
}

// Hand-computed 802.11a durations: T = 20us + 4us * ceil((22 + 8n)/NDBPS).
struct DurationCase {
  double rate_mbps;
  size_t bytes;
  int64_t expect_us;
};

class DurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationTest, Matches80211aFormula) {
  const DurationCase& c = GetParam();
  WifiMode mode = ModeForRate(Modes80211a(), c.rate_mbps);
  EXPECT_EQ(FrameDuration(mode, c.bytes), SimTime::Micros(c.expect_us));
}

INSTANTIATE_TEST_SUITE_P(
    Handbook, DurationTest,
    ::testing::Values(
        // ACK (14 B) at 24 Mbps: 20 + 4*ceil(134/96) = 28 us.
        DurationCase{24, 14, 28},
        // ACK at 6 Mbps: 20 + 4*ceil(134/24) = 44 us.
        DurationCase{6, 14, 44},
        // 1536-byte MPDU at 54 Mbps: 20 + 4*ceil(12310/216) = 248 us.
        DurationCase{54, 1536, 248},
        // Block ACK (32 B) at 24 Mbps: 20 + 4*ceil(278/96) = 32 us.
        DurationCase{24, 32, 32}));

TEST(WifiModeTest, HtPreambleAndSymbols) {
  WifiMode ht150 = ModeForRate(Modes80211n(), 150);
  EXPECT_EQ(PreambleDuration(ht150), SimTime::Micros(36));
  // 540 bits per 3.6 us symbol at 150 Mbps.
  EXPECT_EQ(ht150.bits_per_symbol, 540);
  // 1 symbol of data: 22 bits fits in one symbol -> 36 + 3.6 us.
  EXPECT_EQ(FrameDuration(ht150, 0), SimTime::Nanos(36'000 + 3'600));
}

TEST(WifiModeTest, MultiStreamPreambleGrows) {
  WifiMode ht600 = Modes80211nExtended().back();
  // 4 spatial streams: 32 + 4*4 = 48 us preamble.
  EXPECT_EQ(PreambleDuration(ht600), SimTime::Micros(48));
}

// --- frame sizes --------------------------------------------------------------------

TEST(FrameTest, MpduSizes) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Packet data = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);

  WifiFrame frame;
  frame.type = WifiFrameType::kData;
  frame.packet = data;
  // 26 QoS header + 8 LLC + 1512 IP + 4 FCS = 1550.
  EXPECT_EQ(frame.SizeBytes(), 1550u);

  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  EXPECT_EQ(ack.SizeBytes(), 14u);
  ack.hack_payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(ack.SizeBytes(), 19u);

  WifiFrame ba;
  ba.type = WifiFrameType::kBlockAck;
  ba.ba = BlockAckInfo{};
  EXPECT_EQ(ba.SizeBytes(), 32u);

  WifiFrame bar;
  bar.type = WifiFrameType::kBlockAckReq;
  EXPECT_EQ(bar.SizeBytes(), 24u);
}

TEST(FrameTest, AmpduFitsFortyTwo1460ByteMpdus) {
  // The paper batches 42 packets per A-MPDU: 42 subframes of
  // 4 + pad4(1550) = 1556 bytes = 65352 <= 65535; 43 would not fit.
  TcpHeader tcp;
  tcp.flag_ack = true;
  tcp.timestamps = TcpTimestamps{1, 1};
  Ppdu ppdu;
  ppdu.aggregated = true;
  ppdu.mode = ModeForRate(Modes80211n(), 150);
  for (int i = 0; i < 42; ++i) {
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);
    ppdu.mpdus.push_back(std::move(f));
  }
  EXPECT_LE(ppdu.PsduBytes(), kMaxAmpduBytes);
  EXPECT_GT(ppdu.PsduBytes() + 1556, kMaxAmpduBytes);
}

TEST(FrameTest, SequenceHelpers) {
  EXPECT_EQ(SeqAdd(4095, 1), 0);
  EXPECT_EQ(SeqAdd(0, -1), 4095);
  EXPECT_EQ(SeqDistance(4090, 5), 11);
  EXPECT_TRUE(SeqInWindow(4090, 2, 64));
  EXPECT_FALSE(SeqInWindow(0, 64, 64));
  EXPECT_TRUE(SeqInWindow(0, 63, 64));
}

// --- loss models ---------------------------------------------------------------------

TEST(LossModelTest, BernoulliRates) {
  BernoulliLossModel model(0.1, 0.01);
  Random rng(5);
  WifiMode mode = Modes80211a()[0];
  int data_losses = 0;
  int ctrl_losses = 0;
  for (int i = 0; i < 20000; ++i) {
    if (model.ShouldCorrupt(mode, 1500, 5.0, rng)) {
      ++data_losses;
    }
    if (model.ShouldCorrupt(mode, 14, 5.0, rng)) {
      ++ctrl_losses;
    }
  }
  EXPECT_NEAR(data_losses / 20000.0, 0.10, 0.01);
  EXPECT_NEAR(ctrl_losses / 20000.0, 0.01, 0.005);
}

TEST(LossModelTest, SnrDecreasesWithDistance) {
  SnrLossModel model;
  EXPECT_GT(model.SnrDbAt(2.0), model.SnrDbAt(10.0));
  EXPECT_GT(model.SnrDbAt(10.0), model.SnrDbAt(50.0));
}

TEST(LossModelTest, FerMonotoneInSnrAndRate) {
  SnrLossModel model;
  WifiMode low = ModeForRate(Modes80211n(), 15);
  WifiMode high = ModeForRate(Modes80211n(), 150);
  // Higher SNR -> lower FER.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 20.0),
            model.FrameErrorRate(high, 1500, 30.0));
  // At a given SNR, faster modes fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 18.0),
            model.FrameErrorRate(low, 1500, 18.0));
  // Longer frames fail more.
  EXPECT_GT(model.FrameErrorRate(high, 1500, 26.0),
            model.FrameErrorRate(high, 64, 26.0));
}

TEST(LossModelTest, FerSaturates) {
  SnrLossModel model;
  WifiMode mode = ModeForRate(Modes80211n(), 150);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 50.0), 0.0, 1e-6);
  EXPECT_NEAR(model.FrameErrorRate(mode, 1500, 0.0), 1.0, 1e-6);
}

// --- medium / collisions ----------------------------------------------------------------

class RecordingListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu& ppdu, const std::vector<bool>&) override {
    ++received;
    last_type = ppdu.first().type;
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu& ppdu) override {
    ++tx_done;
    tx_ended.push_back(ppdu.ppdu_id);
  }
  void OnCcaBusy() override { ++busy_edges; }
  void OnCcaIdle() override { ++idle_edges; }

  int received = 0;
  int corrupted = 0;
  int tx_done = 0;
  std::vector<uint64_t> tx_ended;  // ppdu_id per OnTxEnd
  int busy_edges = 0;
  int idle_edges = 0;
  WifiFrameType last_type = WifiFrameType::kData;
};

// One data MPDU at 802.11a 54 Mb/s; `payload` sets the airtime (1000 B:
// 184 us, 1400 B: 240 us, 500 B: 108 us, 100 B: 48 us).
Ppdu MakeTestPpdu(MacAddress from, MacAddress to, size_t payload = 1000) {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = from;
  f.ra = to;
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, payload);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

struct MediumFixture {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy_a{&sched, Random(1)};
  WifiPhy phy_b{&sched, Random(2)};
  WifiPhy phy_c{&sched, Random(3)};
  RecordingListener la, lb, lc;

  MediumFixture() {
    phy_a.AttachTo(&channel);
    phy_b.AttachTo(&channel);
    phy_c.AttachTo(&channel);
    phy_a.set_listener(&la);
    phy_b.set_listener(&lb);
    phy_c.set_listener(&lc);
    phy_a.set_position({0, 0});
    phy_b.set_position({5, 0});
    phy_c.set_position({0, 5});
  }
};

TEST(WifiPhyTest, CleanDelivery) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.lb.corrupted, 0);
  EXPECT_EQ(f.lc.received, 1);  // broadcast medium: everyone hears it
  EXPECT_EQ(f.la.tx_done, 1);
  EXPECT_EQ(f.lb.busy_edges, 1);
  EXPECT_EQ(f.lb.idle_edges, 1);
}

TEST(WifiPhyTest, OverlappingTransmissionsCollide) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  // C hears two overlapping frames: both corrupted, no decode.
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_EQ(f.lc.corrupted, 2);
}

TEST(WifiPhyTest, TransmitterIsDeafWhileSending) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  // A was transmitting when B's frame arrived: corrupted at A.
  EXPECT_EQ(f.la.received, 0);
  EXPECT_EQ(f.la.corrupted, 1);
}

TEST(WifiPhyTest, SendWhileTransmittingIsRejected) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_FALSE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  EXPECT_EQ(f.phy_a.stats().tx_dropped_busy, 1u);
  f.sched.Run();
}

TEST(WifiPhyTest, SequentialTransmissionsBothDeliver) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(0))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 1);
  EXPECT_EQ(f.la.received, 1);
}

TEST(WifiPhyTest, LossModelDropsEverything) {
  MediumFixture f;
  f.phy_b.set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.lb.received, 0);
  EXPECT_EQ(f.lb.corrupted, 1);
  EXPECT_EQ(f.lc.received, 1);  // C's channel is clean
}

// A radio reset aborts a transmission whose tx-end event is already
// scheduled. When the radio sends again before that stale end fires, the
// stale end is swallowed; it must not end the new transmission early.
TEST(WifiPhyTest, StaleTxEndAfterResetDoesNotEndNextTransmission) {
  MediumFixture f;
  Ppdu first = MakeTestPpdu(MacAddress::ForStation(0),
                            MacAddress::ForStation(1));
  SimTime air = first.Duration();
  ASSERT_TRUE(f.phy_a.Send(std::move(first)));
  f.sched.ScheduleAt(SimTime::Nanos(air.ns() / 4), [&f]() {
    f.phy_a.SetRadioOn(false);
    f.phy_a.SetRadioOn(true);
  });
  f.sched.ScheduleAt(SimTime::Nanos(air.ns() / 2), [&f]() {
    ASSERT_TRUE(f.phy_a.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  });
  // Past the aborted PPDU's end, before the second one's.
  f.sched.RunUntil(air);
  EXPECT_TRUE(f.phy_a.transmitting());
  EXPECT_TRUE(f.phy_a.IsCcaBusy());
  EXPECT_TRUE(f.la.tx_ended.empty());
  f.sched.Run();
  EXPECT_FALSE(f.phy_a.transmitting());
  EXPECT_EQ(f.la.tx_ended, std::vector<uint64_t>{2});
  // A fresh transmission after both ends completes normally.
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
  f.sched.Run();
  EXPECT_EQ(f.la.tx_ended, (std::vector<uint64_t>{2, 3}));
}

TEST(WifiPhyTest, DistanceMeters) {
  EXPECT_DOUBLE_EQ(DistanceMeters({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(DistanceMeters({1, 1}, {1, 1}), 0.0);
}

TEST(WifiPhyTest, AirtimeLedgerAccountsByFrameType) {
  MediumFixture f;
  Ppdu data = MakeTestPpdu(MacAddress::ForStation(0),
                           MacAddress::ForStation(1));
  SimTime data_air = data.Duration();
  ASSERT_TRUE(f.phy_a.Send(std::move(data)));
  f.sched.Run();
  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  ack.ta = MacAddress::ForStation(1);
  ack.ra = MacAddress::ForStation(0);
  Ppdu ack_ppdu;
  ack_ppdu.aggregated = false;
  ack_ppdu.mode = ModeForRate(Modes80211a(), 24);
  ack_ppdu.mpdus.push_back(std::move(ack));
  SimTime ack_air = ack_ppdu.Duration();
  ASSERT_TRUE(f.phy_b.Send(std::move(ack_ppdu)));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.data_ns, data_air.ns());
  EXPECT_EQ(at.ack_ns, ack_air.ns());
  EXPECT_EQ(at.ppdus, 2u);
  EXPECT_EQ(at.collisions, 0u);
  EXPECT_EQ(at.collision_ns, 0);
}

TEST(WifiPhyTest, DoubleAttachAborts) {
  Scheduler sched;
  WirelessChannel channel{&sched};
  WifiPhy phy{&sched, Random(1)};
  channel.Attach(&phy);
  EXPECT_EQ(channel.attached_count(), 1u);
  EXPECT_DEATH(channel.Attach(&phy), "attached twice");
}

TEST(WifiPhyTest, PartialOverlapCorruptsBothFrames) {
  // B starts while A's frame is still in the air at C: neither decodes,
  // even though A's frame began cleanly — overlap corrupts *both*.
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  Ppdu probe = MakeTestPpdu(MacAddress::ForStation(0),
                            MacAddress::ForStation(2));
  SimTime half = SimTime::Nanos(probe.Duration().ns() / 2);
  f.sched.ScheduleAt(half, [&f]() {
    ASSERT_TRUE(f.phy_b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  });
  f.sched.Run();
  EXPECT_EQ(f.lc.received, 0);
  EXPECT_EQ(f.lc.corrupted, 2);  // one OnRxCorrupted per corrupted arrival
}

// Per-PPDU scheduler event count must not grow with the attached-PHY count
// under batched delivery — the tentpole property of the dense-cell refactor.
// All receivers sit at one distance so the cell has a single arrival edge
// pair; co-located receivers is exactly the dense-cell worst case for the
// old one-event-per-PHY scheduling.
TEST(WifiPhyTest, BatchedDeliveryEventCountIndependentOfPhyCount) {
  auto events_for = [](size_t n_receivers, ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy sender{&sched, Random(1)};
    sender.AttachTo(&channel);
    sender.set_position({0, 0});
    std::vector<std::unique_ptr<WifiPhy>> receivers;
    for (size_t i = 0; i < n_receivers; ++i) {
      auto phy = std::make_unique<WifiPhy>(&sched, Random(100 + i));
      phy->AttachTo(&channel);
      phy->set_position({5, 0});
      receivers.push_back(std::move(phy));
    }
    EXPECT_TRUE(sender.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1))));
    sched.Run();
    return sched.events_executed();
  };

  uint64_t batched_small = events_for(4, ChannelDeliveryMode::kBatched);
  uint64_t batched_large = events_for(256, ChannelDeliveryMode::kBatched);
  EXPECT_EQ(batched_small, batched_large)
      << "batched per-PPDU event count must not scale with PHY count";
  // airtime bookkeeping + start edge batch + end edge batch + own tx end.
  EXPECT_EQ(batched_small, 4u);

  uint64_t per_phy_small = events_for(4, ChannelDeliveryMode::kPerPhyEvent);
  uint64_t per_phy_large = events_for(256, ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(per_phy_small, 2u + 2u * 4u);
  EXPECT_EQ(per_phy_large, 2u + 2u * 256u);
}

// The two delivery modes must report identical medium behaviour, including
// under collisions, at the channel layer.
TEST(WifiPhyTest, BatchedAndPerPhyDeliveryAgreeUnderCollision) {
  auto run = [](ChannelDeliveryMode mode) {
    Scheduler sched;
    WirelessChannel channel{&sched, mode};
    WifiPhy a{&sched, Random(1)}, b{&sched, Random(2)}, c{&sched, Random(3)};
    RecordingListener la, lb, lc;
    a.AttachTo(&channel);
    b.AttachTo(&channel);
    c.AttachTo(&channel);
    a.set_listener(&la);
    b.set_listener(&lb);
    c.set_listener(&lc);
    a.set_position({0, 0});
    b.set_position({5, 0});
    c.set_position({0, 7});
    EXPECT_TRUE(a.Send(
        MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
    EXPECT_TRUE(b.Send(
        MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
    sched.Run();
    EXPECT_TRUE(c.Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    sched.Run();
    return std::tuple{la.received,   la.corrupted, lb.received,
                      lb.corrupted,  lc.received,  lc.corrupted,
                      channel.airtime()};
  };
  auto [bar, bac, bbr, bbc, bcr, bcc, bat] =
      run(ChannelDeliveryMode::kBatched);
  auto [par, pac, pbr, pbc, pcr, pcc, pat] =
      run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(bar, par);
  EXPECT_EQ(bac, pac);
  EXPECT_EQ(bbr, pbr);
  EXPECT_EQ(bbc, pbc);
  EXPECT_EQ(bcr, pcr);
  EXPECT_EQ(bcc, pcc);
  EXPECT_EQ(bat, pat);
}

// --- channel callback order: batched vs per-PHY -----------------------------------

// One listener callback: when, at which radio, and which kind. Every arrival
// end produces an R(eceived) or X (corrupted) callback, a start that finds
// its radio idle produces B(usy), and the sender sees T(x end).
using Callback = std::tuple<int64_t, size_t, char>;

class OrderRecorder : public WifiPhyListener {
 public:
  OrderRecorder(const Scheduler* sched, size_t phy,
                std::vector<Callback>* log)
      : sched_(sched), phy_(phy), log_(log) {}
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {
    Record('R');
  }
  void OnRxCorrupted() override { Record('X'); }
  void OnTxEnd(const Ppdu&) override { Record('T'); }
  void OnCcaBusy() override { Record('B'); }
  void OnCcaIdle() override { Record('I'); }

 private:
  void Record(char kind) { log_->emplace_back(sched_->Now().ns(), phy_, kind); }
  const Scheduler* sched_;
  size_t phy_;
  std::vector<Callback>* log_;
};

// Radios at `positions` (attach order) on one channel, each recording into
// one shared callback log.
struct OrderCell {
  OrderCell(ChannelDeliveryMode mode, const std::vector<Position>& positions,
            bool geometric)
      : channel(&sched, mode) {
    for (size_t i = 0; i < positions.size(); ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(10 + i)));
      listeners.push_back(std::make_unique<OrderRecorder>(&sched, i, &log));
      phys.back()->set_position(positions[i]);
      phys.back()->set_listener(listeners.back().get());
      phys.back()->AttachTo(&channel);
    }
    if (geometric) {
      channel.set_propagation(std::make_unique<LogDistancePropagation>());
    }
  }
  Scheduler sched;
  WirelessChannel channel;
  std::vector<Callback> log;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<OrderRecorder>> listeners;
};

// On the x axis at a propagation delay of exactly `delay_ns` from the origin.
Position AtDelayNs(int64_t delay_ns) {
  return {(static_cast<double>(delay_ns) + 0.5) * 0.299792458, 0.0};
}

// A delay spread wider than the frame makes one receiver's end edge and
// another's start edge share a nanosecond. Both modes must run them in
// attach order, ends and starts interleaved: the batched channel folds them
// into one event instead of splitting it by edge kind. A 24 us control frame
// puts the far receivers about 7 km out.
TEST(WifiPhyTest, SharedStartEndNanosecondRunsInAttachOrderInBothModes) {
  WifiFrame ack;
  ack.type = WifiFrameType::kAck;
  ack.ta = MacAddress::ForStation(0);
  ack.ra = MacAddress::ForStation(1);
  Ppdu ppdu;
  ppdu.aggregated = false;
  ppdu.mode = ModeForRate(Modes80211a(), 54);
  ppdu.mpdus.push_back(std::move(ack));
  const int64_t near = 10;
  const int64_t far = near + ppdu.Duration().ns();
  // Attach order: sender, then near/far receivers alternating, so the
  // shared nanosecond holds end, start, end, start.
  const std::vector<Position> line = {{0, 0},         AtDelayNs(near),
                                      AtDelayNs(far), AtDelayNs(near),
                                      AtDelayNs(far)};
  auto run = [&](ChannelDeliveryMode mode) {
    OrderCell cell(mode, line, /*geometric=*/false);
    EXPECT_TRUE(cell.phys[0]->Send(ppdu));
    cell.sched.Run();
    return std::pair{cell.log, cell.sched.events_executed()};
  };
  auto [batched, batched_events] = run(ChannelDeliveryMode::kBatched);
  auto [per_phy, per_phy_events] = run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(batched, per_phy);
  const std::vector<Callback> shared_ns = {
      {far, 1, 'I'}, {far, 1, 'R'}, {far, 2, 'B'},
      {far, 3, 'I'}, {far, 3, 'R'}, {far, 4, 'B'}};
  EXPECT_NE(std::search(batched.begin(), batched.end(), shared_ns.begin(),
                        shared_ns.end()),
            batched.end());
  // Edge nanoseconds {near, far, far + airtime}, plus the airtime ledger
  // and the sender's tx end.
  EXPECT_EQ(batched_events, 5u);
  EXPECT_EQ(per_phy_events, 2u + 2u * 4u);
}

// A random cell: 64 radios at seeded positions (every fourth co-located
// with an earlier one, so equal delays tie), eight senders whose frames
// overlap, on the fixed-loss channel and on the geometric one (pruning and
// SINR capture). The full callback sequence must match between modes.
TEST(WifiPhyTest, RandomCellCallbackOrderMatchesPerPhyDelivery) {
  Random rng(4242);
  std::vector<Position> positions;
  for (size_t i = 0; i < 64; ++i) {
    if (i % 4 == 3) {
      positions.push_back(positions[rng.NextBounded(i)]);
    } else {
      positions.push_back({60.0 * rng.NextDouble(), 60.0 * rng.NextDouble()});
    }
  }
  for (bool geometric : {false, true}) {
    auto run = [&](ChannelDeliveryMode mode) {
      OrderCell cell(mode, positions, geometric);
      for (size_t k = 0; k < 8; ++k) {
        size_t sender = 7 * k + 1;
        cell.sched.ScheduleAt(SimTime::Micros(40 * k), [&cell, sender]() {
          EXPECT_TRUE(cell.phys[sender]->Send(
              MakeTestPpdu(MacAddress::ForStation(sender),
                           MacAddress::ForStation(0))));
        });
      }
      cell.sched.Run();
      return std::tuple{cell.log, cell.channel.airtime(),
                        cell.sched.events_executed()};
    };
    auto [batched, batched_air, batched_events] =
        run(ChannelDeliveryMode::kBatched);
    auto [per_phy, per_phy_air, per_phy_events] =
        run(ChannelDeliveryMode::kPerPhyEvent);
    EXPECT_EQ(batched, per_phy) << (geometric ? "geometric" : "fixed-loss");
    EXPECT_EQ(batched_air, per_phy_air);
    EXPECT_LT(batched_events, per_phy_events);
    EXPECT_GT(batched_air.collisions, 0u);
    EXPECT_EQ(batched_air.out_of_range > 0, geometric);
  }
}

// --- the channel's per-pair power cache ----------------------------------------

constexpr ChannelDeliveryMode kBothModes[] = {ChannelDeliveryMode::kBatched,
                                              ChannelDeliveryMode::kPerPhyEvent};

// A log-distance cell: radio 0 at the origin and radios 5, 10 and 20 m out
// along the x axis, all inside the 27.4 m energy-detect radius. One PPDU
// from radio 0 fills the channel's power cache before a test changes the
// geometry or the model.
struct CacheCell {
  explicit CacheCell(ChannelDeliveryMode mode) : channel(&sched, mode) {
    for (double x : {0.0, 5.0, 10.0, 20.0}) {
      Add({x, 0.0});
    }
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
    Send({0});
  }
  void Add(Position p) {
    phys.push_back(std::make_unique<WifiPhy>(&sched, Random(phys.size() + 1)));
    listeners.push_back(std::make_unique<RecordingListener>());
    phys.back()->set_position(p);
    phys.back()->set_listener(listeners.back().get());
    phys.back()->AttachTo(&channel);
  }
  // The radios in `senders` transmit at the same instant.
  void Send(std::initializer_list<size_t> senders) {
    for (size_t i : senders) {
      EXPECT_TRUE(phys[i]->Send(
          MakeTestPpdu(MacAddress::ForStation(i), MacAddress::ForStation(0))));
    }
    sched.Run();
  }
  const RecordingListener& at(size_t i) const { return *listeners[i]; }

  Scheduler sched;
  WirelessChannel channel;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
};

TEST(PowerCacheTest, MovingAReceiverPastTheDetectRadiusPrunesIt) {
  for (ChannelDeliveryMode mode : kBothModes) {
    CacheCell cell(mode);
    ASSERT_EQ(cell.at(3).received, 1);
    ASSERT_EQ(cell.channel.airtime().out_of_range, 0u);
    // 30 m out: below energy detect, so no callback of any kind.
    cell.phys[3]->set_position({30.0, 0.0});
    cell.Send({0});
    EXPECT_EQ(cell.channel.airtime().out_of_range, 1u);
    EXPECT_EQ(cell.at(3).received, 1);
    EXPECT_EQ(cell.at(3).corrupted, 0);
    EXPECT_EQ(cell.at(3).busy_edges, 1);
    EXPECT_EQ(cell.at(2).received, 2);
    // Back at 20 m it hears the sender again.
    cell.phys[3]->set_position({20.0, 0.0});
    cell.Send({0});
    EXPECT_EQ(cell.channel.airtime().out_of_range, 1u);
    EXPECT_EQ(cell.at(3).received, 2);
  }
}

TEST(PowerCacheTest, NewPropagationParamsTakeEffectOnTheNextPpdu) {
  for (ChannelDeliveryMode mode : kBothModes) {
    CacheCell cell(mode);
    // 10 dB less transmit power shrinks the detect radius to 14.2 m.
    LogDistancePropagation::Params quiet;
    quiet.tx_power_dbm = 5.0;
    cell.channel.set_propagation(
        std::make_unique<LogDistancePropagation>(quiet));
    cell.Send({0});
    EXPECT_EQ(cell.channel.airtime().out_of_range, 1u);
    EXPECT_EQ(cell.at(3).received, 1);
    EXPECT_EQ(cell.at(2).received, 2);
  }
}

TEST(PowerCacheTest, NewCaptureMarginTakesEffectOnTheNextPpdu) {
  for (ChannelDeliveryMode mode : kBothModes) {
    CacheCell cell(mode);
    // At the origin the 5 m frame beats the 10 m one by 10.5 dB: short of
    // the 24 dB a 54 Mb/s frame needs by default, so both die.
    cell.Send({1, 2});
    EXPECT_EQ(cell.phys[0]->stats().overlap_losses, 2u);
    EXPECT_EQ(cell.phys[0]->stats().captures, 0u);
    // A 6 dB threshold lets the stronger frame capture.
    LogDistancePropagation::Params lenient;
    lenient.capture_margin_db = -15.0;
    cell.channel.set_propagation(
        std::make_unique<LogDistancePropagation>(lenient));
    cell.Send({1, 2});
    EXPECT_EQ(cell.phys[0]->stats().overlap_losses, 3u);
    EXPECT_EQ(cell.phys[0]->stats().captures, 1u);
  }
}

TEST(PowerCacheTest, AttachingARadioTakesEffectOnTheNextPpdu) {
  for (ChannelDeliveryMode mode : kBothModes) {
    CacheCell cell(mode);
    cell.Add({3.0, 0.0});
    cell.Send({0});
    EXPECT_EQ(cell.at(4).received, 1);
    // The new radio's own transmissions reach every other radio.
    cell.Send({4});
    EXPECT_EQ(cell.at(0).received, 1);
    for (size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(cell.at(i).received, 3) << "radio " << i;
    }
    EXPECT_EQ(cell.channel.airtime().out_of_range, 0u);
  }
}

// Above kMaxCachedRadios the channel computes every pair's power per PPDU
// instead of caching it. Radios spread over a 40 m square (so some pairs
// are pruned), two senders overlap and a third follows: the full callback
// sequence must match between modes.
TEST(PowerCacheTest, CellAboveTheRadioBoundMatchesPerPhyDelivery) {
  Random rng(99);
  std::vector<Position> positions;
  for (size_t i = 0; i <= WirelessChannel::kMaxCachedRadios; ++i) {
    positions.push_back({40.0 * rng.NextDouble(), 40.0 * rng.NextDouble()});
  }
  auto run = [&](ChannelDeliveryMode mode) {
    OrderCell cell(mode, positions, /*geometric=*/true);
    for (size_t sender : {0, 1}) {
      EXPECT_TRUE(cell.phys[sender]->Send(MakeTestPpdu(
          MacAddress::ForStation(sender), MacAddress::ForStation(2))));
    }
    cell.sched.Run();
    EXPECT_TRUE(cell.phys[2]->Send(
        MakeTestPpdu(MacAddress::ForStation(2), MacAddress::ForStation(0))));
    cell.sched.Run();
    uint64_t verdicts = 0;
    for (const auto& phy : cell.phys) {
      verdicts += phy->stats().captures + phy->stats().overlap_losses;
    }
    return std::tuple{cell.log, cell.channel.airtime(), verdicts};
  };
  auto [batched, batched_air, batched_verdicts] =
      run(ChannelDeliveryMode::kBatched);
  auto [per_phy, per_phy_air, per_phy_verdicts] =
      run(ChannelDeliveryMode::kPerPhyEvent);
  EXPECT_EQ(batched, per_phy);
  EXPECT_EQ(batched_air, per_phy_air);
  EXPECT_EQ(batched_verdicts, per_phy_verdicts);
  EXPECT_GT(batched_air.out_of_range, 0u);
  EXPECT_GT(batched_verdicts, 0u);
}

// --- receiver ordering: one, two and three counting passes -------------------

// `fixed` first, then radios at seeded positions on a line `length_m` long
// from the origin, 48 in all; every fourth is co-located with an earlier
// radio, so equal delays tie.
std::vector<Position> LineCell(double length_m, std::vector<Position> fixed) {
  Random rng(77);
  for (size_t i = fixed.size(); i < 48; ++i) {
    if (i % 4 == 3) {
      fixed.push_back(fixed[rng.NextBounded(i)]);
    } else {
      fixed.push_back({length_m * rng.NextDouble(), 0.0});
    }
  }
  return fixed;
}

// The bytes in the delay spread of radio `sender`'s receivers: the number of
// counting passes the batched channel orders them with.
int DelaySpanBytes(const std::vector<Position>& cell, size_t sender) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = 0;
  for (size_t i = 0; i < cell.size(); ++i) {
    if (i != sender) {
      double ns = DistanceMeters(cell[sender], cell[i]) / 0.299792458;
      int64_t delay = std::max<int64_t>(static_cast<int64_t>(ns), 1);
      lo = std::min(lo, delay);
      hi = std::max(hi, delay);
    }
  }
  int bytes = 1;
  while ((static_cast<uint64_t>(hi - lo) >> (8 * bytes)) != 0) {
    ++bytes;
  }
  return bytes;
}

// Lines of 50 m, 16 km and 40 km put radio 0's receivers across delay
// spreads that need one, two and three passes. Radios 1 and 2 sit within
// 0.3 m of radio 0, so those pairs hit the 1 ns delay clamp and tie at
// different distances. On the two long lines radio 3's end edge and radio
// 4's start edge share a nanosecond, and radio 4's delay is the larger with
// the smaller low byte, so an order by low byte first splits that shared
// event. Four senders (radio 0, its clamped neighbour and two others)
// overlap on the fixed-loss channel, so every radio is in range. The full
// callback sequence must match between modes.
TEST(WifiPhyTest, CountingPassOrderMatchesPerPhyDeliveryOnLines) {
  const int64_t airtime =
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(1), 100)
          .Duration()
          .ns();
  const int64_t near = 12 * 256 + 255;
  ASSERT_LT((near + airtime) & 0xFF, near & 0xFF);
  const std::vector<Position> clamped = {{0.0, 0.0}, {0.1, 0.0}, {0.25, 0.0}};
  std::vector<Position> paired = clamped;
  paired.push_back(AtDelayNs(near));
  paired.push_back(AtDelayNs(near + airtime));
  struct Line {
    double length_m;
    const std::vector<Position>& fixed;
    int passes;
  };
  for (const Line& l :
       {Line{50.0, clamped, 1}, Line{16e3, paired, 2}, Line{40e3, paired, 3}}) {
    const std::vector<Position> line = LineCell(l.length_m, l.fixed);
    ASSERT_EQ(DelaySpanBytes(line, 0), l.passes) << l.length_m << " m";
    auto run = [&](ChannelDeliveryMode mode) {
      OrderCell cell(mode, line, /*geometric=*/false);
      const size_t senders[] = {0, 1, 9, 30};
      for (size_t k = 0; k < 4; ++k) {
        size_t sender = senders[k];
        cell.sched.ScheduleAt(SimTime::Micros(40 * k), [&cell, sender]() {
          EXPECT_TRUE(cell.phys[sender]->Send(MakeTestPpdu(
              MacAddress::ForStation(sender), MacAddress::ForStation(0), 100)));
        });
      }
      cell.sched.Run();
      return std::pair{cell.log, cell.channel.airtime()};
    };
    auto [batched, batched_air] = run(ChannelDeliveryMode::kBatched);
    auto [per_phy, per_phy_air] = run(ChannelDeliveryMode::kPerPhyEvent);
    EXPECT_EQ(batched, per_phy) << l.length_m << " m";
    EXPECT_EQ(batched_air, per_phy_air);
    EXPECT_GT(batched_air.collisions, 0u);
  }
}

// --- deep overlap: several frames in flight at one receiver ------------------

// One scripted transmission: at `at_us`, radio `sender` sends a frame of
// `payload` bytes (see MakeTestPpdu for the airtimes).
struct ScriptedTx {
  int64_t at_us;
  size_t sender;
  size_t payload;
};

void Schedule(OrderCell& cell, const std::vector<ScriptedTx>& script) {
  for (const ScriptedTx& tx : script) {
    cell.sched.ScheduleAt(SimTime::Micros(tx.at_us), [&cell, tx]() {
      EXPECT_TRUE(cell.phys[tx.sender]->Send(
          MakeTestPpdu(MacAddress::ForStation(tx.sender),
                       MacAddress::ForStation(0), tx.payload)));
    });
  }
}

// Radio `phy`'s arrival verdicts in time order: R(eceived) or X.
std::string Verdicts(const std::vector<Callback>& log, size_t phy) {
  std::string out;
  for (const auto& [ns, radio, kind] : log) {
    if (radio == phy && (kind == 'R' || kind == 'X')) {
      out += kind;
    }
  }
  return out;
}

// Fixed-loss channel, verdicts at radio 0. Four frames overlap with
// airtimes chosen so that they leave out of start order: radio 2's at
// 58 us (from the middle), then radio 4's, radio 3's and radio 1's at 240
// us. Then a clean frame (the corruption record of the chain must not leak
// into it), a frame radio 0 sends over, a clean frame, a power cycle with
// two frames in flight, a frame that starts after power-up while the dead
// arrivals' end edges are still due, and a last clean frame. Every radio
// sits away from the others, so per-PHY end edges fire after the sender's
// tx end and the receivers' borrowed payloads must still be alive.
TEST(WifiPhyTest, DeepOverlapOnFixedLossChannel) {
  const std::vector<Position> cell = {
      {0, 0}, {3, 0}, {0, 6}, {-9, 0}, {0, -12}};
  const std::vector<ScriptedTx> script = {
      {0, 1, 1400},   {10, 2, 100},  {20, 3, 1000}, {30, 4, 500},
      {300, 2, 100},  {400, 1, 1000}, {450, 0, 100}, {700, 2, 100},
      {800, 1, 1000}, {810, 2, 1000}, {860, 3, 100}, {1100, 4, 100}};
  auto run = [&](ChannelDeliveryMode mode) {
    OrderCell c(mode, cell, /*geometric=*/false);
    Schedule(c, script);
    c.sched.ScheduleAt(SimTime::Micros(850), [&c]() {
      c.phys[0]->SetRadioOn(false);
      c.phys[0]->SetRadioOn(true);
    });
    c.sched.RunUntil(SimTime::Micros(290));
    EXPECT_EQ(Verdicts(c.log, 0), "XXXX") << "four-deep overlap";
    c.sched.RunUntil(SimTime::Micros(390));
    EXPECT_EQ(Verdicts(c.log, 0), "XXXXR") << "clean frame after the chain";
    c.sched.RunUntil(SimTime::Micros(790));
    EXPECT_EQ(Verdicts(c.log, 0), "XXXXRXR") << "send while receiving";
    c.sched.Run();
    EXPECT_EQ(Verdicts(c.log, 0), "XXXXRXRRR") << "power cycle mid-overlap";
    return c.log;
  };
  EXPECT_EQ(run(ChannelDeliveryMode::kBatched),
            run(ChannelDeliveryMode::kPerPhyEvent));
}

// Log-distance channel, verdicts at radio 0. Frames from A (radio 1,
// 5.5 m), B (radio 2, 6 m) and C (radio 3, 15 m) overlap, and B leaves
// first, from the middle. D (radio 4, 1 m) starts after B left, over A
// and C. Receive powers are -57.6, -58.9, -72.9 and -31.7 dBm. D's SINR
// is 25.8 dB against A and C, over the 24 dB capture threshold at 54
// Mb/s; it would be 23.4 dB if B's record had outlived B. A, B and C each
// overlap a stronger frame and lose.
TEST(WifiPhyTest, DeepOverlapCaptureOnLogDistanceChannel) {
  const std::vector<Position> cell = {
      {0, 0}, {5.5, 0}, {0, 6}, {-15, 0}, {0, -1}};
  const std::vector<ScriptedTx> script = {
      {0, 1, 1400}, {10, 2, 100}, {20, 3, 1000}, {100, 4, 100}};
  LogDistancePropagation prop;
  auto sinr_db = [&](size_t rx, std::vector<size_t> others) {
    auto power_mw = [&](size_t i) {
      return DbmToMw(prop.RxPowerDbm(DistanceMeters(cell[0], cell[i])));
    };
    double interference_mw = 0.0;
    for (size_t i : others) {
      interference_mw += power_mw(i);
    }
    return MwToDbm(power_mw(rx)) -
           MwToDbm(prop.noise_floor_mw() + interference_mw);
  };
  const double threshold = prop.CaptureSinrDb(ModeForRate(Modes80211a(), 54));
  EXPECT_GE(sinr_db(4, {1, 3}), threshold);
  EXPECT_LT(sinr_db(4, {1, 2, 3}), threshold);
  EXPECT_LT(sinr_db(1, {2, 3, 4}), threshold);
  EXPECT_LT(sinr_db(2, {1, 3}), threshold);
  EXPECT_LT(sinr_db(3, {1, 2, 4}), threshold);

  auto run = [&](ChannelDeliveryMode mode) {
    OrderCell c(mode, cell, /*geometric=*/true);
    Schedule(c, script);
    c.sched.Run();
    // Ends: B at 58 us, D at 148, C at 204, A at 240.
    EXPECT_EQ(Verdicts(c.log, 0), "XRXX");
    EXPECT_EQ(c.phys[0]->stats().captures, 1u);
    EXPECT_EQ(c.phys[0]->stats().overlap_losses, 3u);
    return c.log;
  };
  EXPECT_EQ(run(ChannelDeliveryMode::kBatched),
            run(ChannelDeliveryMode::kPerPhyEvent));
}

TEST(WifiPhyTest, AirtimeLedgerCountsCollisionOverlap) {
  MediumFixture f;
  ASSERT_TRUE(f.phy_a.Send(
      MakeTestPpdu(MacAddress::ForStation(0), MacAddress::ForStation(2))));
  ASSERT_TRUE(f.phy_b.Send(
      MakeTestPpdu(MacAddress::ForStation(1), MacAddress::ForStation(2))));
  f.sched.Run();
  const ChannelAirtime& at = f.channel.airtime();
  EXPECT_EQ(at.collisions, 1u);
  // Both frames identical and started simultaneously: overlap ~= airtime.
  EXPECT_GT(at.collision_ns, 0);
}

}  // namespace
}  // namespace hacksim
