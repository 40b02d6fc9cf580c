// EDCA tests: per-AC parameter table, pick-for-pick grant timing against a
// reference model, VO-beats-BK grant ordering, virtual-collision re-draw,
// per-AC TXOP sizing, MAC-level internal contention, the whole-scenario
// edca_enabled=false bit-identity pin, the all-best-effort EDCA-on ==
// EDCA-off pins, and a voice-vs-web priority smoke.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mac80211/wifi_mac.h"
#include "src/phy80211/wifi_phy.h"
#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

Packet TaggedUdpPacket(uint32_t payload, uint8_t tos) {
  Packet p = Packet::MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                             Ipv4Address::FromOctets(10, 0, 2, 1), 7, 9,
                             payload);
  p.mutable_ip().tos = tos;
  return p;
}

TEST(EdcaTableTest, DefaultTableMatches80211eAnnexAndTosMapping) {
  std::array<EdcaAcParams, kNumAcs> table = kEdcaTable;
  EXPECT_EQ(table[kAcVo].aifsn, 2u);
  EXPECT_EQ(table[kAcVo].cw_min, 3u);
  EXPECT_EQ(table[kAcVo].cw_max, 7u);
  EXPECT_EQ(table[kAcVi].aifsn, 2u);
  EXPECT_EQ(table[kAcVi].cw_min, 7u);
  EXPECT_EQ(table[kAcVi].cw_max, 15u);
  EXPECT_EQ(table[kAcBe].aifsn, 3u);
  EXPECT_EQ(table[kAcBk].aifsn, 7u);
  EXPECT_TRUE(table[kAcBk].txop_limit.IsZero());

  // DSCP precedence → AC, the classification Enqueue applies.
  EXPECT_EQ(AcForTos(0xC0), kAcVo);  // precedence 6
  EXPECT_EQ(AcForTos(0xE0), kAcVo);  // precedence 7
  EXPECT_EQ(AcForTos(0xA0), kAcVi);  // precedence 5
  EXPECT_EQ(AcForTos(0x80), kAcVi);  // precedence 4
  EXPECT_EQ(AcForTos(0x00), kAcBe);
  EXPECT_EQ(AcForTos(0x60), kAcBe);  // precedence 3
  EXPECT_EQ(AcForTos(0x20), kAcBk);  // precedence 1
  EXPECT_EQ(AcForTos(0x40), kAcBk);  // precedence 2
}

// Drives one engine per AC parameter row through a busy pulse and predicts
// its grant instant with a reference model consuming the same RNG stream:
// grant = idle_start + AIFS + draw * slot, AIFS = SIFS + AIFSN * slot,
// draw = NextBounded(CWmin + 1) taken when the request arrives on a busy
// medium. Pick-for-pick over 20 seeds and all four rows.
TEST(EdcaEngineTest, GrantTimingMatchesReferenceModelPickForPick) {
  PhyTimings t = TimingsFor(WifiStandard::k80211a);
  std::array<EdcaAcParams, kNumAcs> table = kEdcaTable;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
      const EdcaAcParams& row = table[ac];
      Scheduler sched;
      SimTime aifs = t.sifs + t.slot * row.aifsn;
      DcfEngine engine(&sched, Random(seed),
                       DcfEngine::Config{t.slot, aifs, row.cw_min,
                                         row.cw_max, SimTime::Micros(44)});
      SimTime granted;
      int grants = 0;
      engine.on_grant = [&]() {
        ++grants;
        granted = sched.Now();
      };
      sched.RunUntil(SimTime::Micros(100));
      engine.NotifyMediumBusy();
      sched.RunUntil(SimTime::Micros(150));
      engine.RequestAccess();  // busy medium: backoff drawn here
      sched.RunUntil(SimTime::Micros(400));
      SimTime idle_start = sched.Now();
      engine.NotifyMediumIdle();
      sched.Run();

      Random reference(seed);
      SimTime expected =
          idle_start + aifs +
          t.slot * static_cast<int64_t>(reference.NextBounded(row.cw_min + 1));
      ASSERT_EQ(grants, 1) << "seed " << seed << " ac " << kAcNames[ac];
      EXPECT_EQ(granted, expected) << "seed " << seed << " ac "
                                   << kAcNames[ac];
    }
  }
}

// VO's worst case (AIFSN 2 + CWmin 3 slots) beats BK's best case (AIFSN 7 +
// 0 slots), so after a fresh contention round VO must always be granted
// first, whatever either engine draws.
TEST(EdcaEngineTest, VoAlwaysBeatsBkAfterFreshContentionRound) {
  PhyTimings t = TimingsFor(WifiStandard::k80211a);
  std::array<EdcaAcParams, kNumAcs> table = kEdcaTable;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Scheduler sched;
    auto make = [&](uint8_t ac) {
      const EdcaAcParams& row = table[ac];
      return std::make_unique<DcfEngine>(
          &sched, Random(seed * 31 + ac),
          DcfEngine::Config{t.slot, t.sifs + t.slot * row.aifsn, row.cw_min,
                            row.cw_max, SimTime::Micros(44)});
    };
    auto vo = make(kAcVo);
    auto bk = make(kAcBk);
    SimTime vo_grant = SimTime::Max();
    SimTime bk_grant = SimTime::Max();
    vo->on_grant = [&]() { vo_grant = sched.Now(); };
    bk->on_grant = [&]() { bk_grant = sched.Now(); };
    vo->NotifyMediumBusy();
    bk->NotifyMediumBusy();
    sched.RunUntil(SimTime::Micros(50));
    vo->RequestAccess();
    bk->RequestAccess();
    sched.RunUntil(SimTime::Micros(90));
    vo->NotifyMediumIdle();
    bk->NotifyMediumIdle();
    sched.Run();
    ASSERT_NE(vo_grant, SimTime::Max()) << "seed " << seed;
    ASSERT_NE(bk_grant, SimTime::Max()) << "seed " << seed;
    EXPECT_LT(vo_grant, bk_grant) << "seed " << seed;
  }
}

TEST(EdcaEngineTest, VirtualCollisionDoublesCwRedrawsAndKeepsPending) {
  PhyTimings t = TimingsFor(WifiStandard::k80211a);
  Scheduler sched;
  DcfEngine engine(&sched, Random(5),
                   DcfEngine::Config{t.slot, t.sifs + t.slot * 2, 3, 7,
                                     SimTime::Micros(44)});
  int grants = 0;
  SimTime last_grant;
  engine.on_grant = [&]() {
    ++grants;
    last_grant = sched.Now();
  };
  engine.NotifyMediumBusy();
  engine.RequestAccess();
  sched.RunUntil(SimTime::Micros(20));
  SimTime idle_start = sched.Now();
  engine.NotifyMediumIdle();
  EXPECT_EQ(engine.cw(), 3u);

  // The loser of an internal contention round: CW doubles, the backoff is
  // redrawn from the doubled window, and the request survives — the armed
  // grant is re-dated, not dropped.
  engine.NotifyInternalCollision();
  EXPECT_EQ(engine.cw(), 7u);
  EXPECT_TRUE(engine.access_pending());
  sched.Run();
  EXPECT_EQ(grants, 1);
  // Still a legal grant for the doubled window.
  EXPECT_GE(last_grant, idle_start + t.sifs + t.slot * 2);
  EXPECT_LE(last_grant, idle_start + t.sifs + t.slot * 2 + t.slot * 7);

  // Cap: repeated virtual collisions saturate at CWmax.
  for (int i = 0; i < 5; ++i) {
    engine.NotifyInternalCollision();
  }
  EXPECT_EQ(engine.cw(), 7u);
}

// Two-MAC harness with EDCA enabled on the sender; mirrors mac_test's
// MacPair.
struct EdcaMacPair {
  explicit EdcaMacPair(double rate_mbps) : channel(&sched) {
    WifiMacConfig cfg;
    cfg.standard = WifiStandard::k80211n;
    cfg.data_mode = ModeForRate(Modes80211n(), rate_mbps);
    cfg.edca_enabled = true;
    phy_a = std::make_unique<WifiPhy>(&sched, Random(1));
    phy_b = std::make_unique<WifiPhy>(&sched, Random(2));
    phy_a->AttachTo(&channel);
    phy_b->AttachTo(&channel);
    phy_a->set_position({0, 0});
    phy_b->set_position({5, 0});
    mac_a = std::make_unique<WifiMac>(&sched, phy_a.get(),
                                      MacAddress::ForStation(0), cfg,
                                      Random(11));
    mac_b = std::make_unique<WifiMac>(&sched, phy_b.get(),
                                      MacAddress::ForStation(1), cfg,
                                      Random(12));
    mac_b->on_rx_packet = [this](Packet p, MacAddress) {
      received_at_b.push_back(std::move(p));
    };
  }

  Scheduler sched;
  WirelessChannel channel;
  std::unique_ptr<WifiPhy> phy_a, phy_b;
  std::unique_ptr<WifiMac> mac_a, mac_b;
  std::vector<Packet> received_at_b;
};

TEST(EdcaMacTest, PerAcQueuesDeliverEverythingAndCountPerAcPpdus) {
  EdcaMacPair pair(150);
  for (uint32_t i = 0; i < 40; ++i) {
    pair.mac_a->Enqueue(TaggedUdpPacket(160, 0xC0),
                        MacAddress::ForStation(1));
    pair.mac_a->Enqueue(TaggedUdpPacket(1000, 0x00),
                        MacAddress::ForStation(1));
    pair.mac_a->Enqueue(TaggedUdpPacket(96, 0x20),
                        MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(pair.received_at_b.size(), 120u);
  const MacStats& stats = pair.mac_a->stats();
  EXPECT_GT(stats.ac_ppdus_sent[kAcVo], 0u);
  EXPECT_GT(stats.ac_ppdus_sent[kAcBe], 0u);
  EXPECT_GT(stats.ac_ppdus_sent[kAcBk], 0u);
  EXPECT_EQ(stats.ac_ppdus_sent[kAcVo] + stats.ac_ppdus_sent[kAcVi] +
                stats.ac_ppdus_sent[kAcBe] + stats.ac_ppdus_sent[kAcBk],
            stats.ppdus_sent);
}

TEST(EdcaMacTest, SaturatedAcsSufferVirtualCollisionsButAllDelivers) {
  // VO and BE both saturated inside one MAC: their engines contend on the
  // same idle edges, so some grants land on the same nanosecond and the
  // loser must re-draw (a virtual collision, not a medium collision).
  // 120 per AC stays under the default 126-packet per-(dest,AC) queue cap.
  EdcaMacPair pair(150);
  for (uint32_t i = 0; i < 120; ++i) {
    pair.mac_a->Enqueue(TaggedUdpPacket(400, 0xC0),
                        MacAddress::ForStation(1));
    pair.mac_a->Enqueue(TaggedUdpPacket(400, 0x00),
                        MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Seconds(1));
  EXPECT_EQ(pair.received_at_b.size(), 240u);
  EXPECT_GT(pair.mac_a->stats().virtual_collisions, 0u);
}

TEST(EdcaMacTest, TxopBoundaryCapsVoAggregatesBelowBe) {
  // At 15 Mbps a 1460 B MPDU lasts ~840 us. VO's 1504 us TXOP fits one
  // MPDU per PPDU; BE falls back to the 4 ms config limit and fits ~4.
  EdcaMacPair vo_pair(15);
  EdcaMacPair be_pair(15);
  for (uint32_t i = 0; i < 12; ++i) {
    vo_pair.mac_a->Enqueue(TaggedUdpPacket(1460, 0xC0),
                           MacAddress::ForStation(1));
    be_pair.mac_a->Enqueue(TaggedUdpPacket(1460, 0x00),
                           MacAddress::ForStation(1));
  }
  vo_pair.sched.RunUntil(SimTime::Millis(50));
  be_pair.sched.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(vo_pair.received_at_b.size(), 12u);
  EXPECT_EQ(be_pair.received_at_b.size(), 12u);
  EXPECT_GE(vo_pair.mac_a->stats().ppdus_sent, 12u);
  EXPECT_LE(be_pair.mac_a->stats().ppdus_sent, 4u);
}

// The whole-scenario pin: edca_enabled=false must leave the legacy MAC
// bit-identical — same goldens scale_test pins, plus all-zero EDCA stats.
// If this drifts while scale_test still passes, the EDCA plumbing itself
// (extra engines, per-AC rings, classification) perturbed the legacy path.
TEST(EdcaBitIdentityPin, EdcaOffHitsTheLegacyGoldenValues) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 3;
  c.proto = TransportProto::kTcp;
  c.hack = HackVariant::kMoreData;
  c.duration = SimTime::Millis(800);
  c.start_stagger = SimTime::Millis(50);
  c.seed = 7;
  c.edca_enabled = false;  // explicit: the default must stay off
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.airtime.ppdus, 901u);
  EXPECT_EQ(r.aggregate_goodput_mbps, 116.30534609523809);
  EXPECT_EQ(r.ap_mac.virtual_collisions, 0u);
  for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
    EXPECT_EQ(r.ap_mac.ac_ppdus_sent[ac], 0u) << kAcNames[ac];
  }
}

// EDCA-off is the best-effort slice of EDCA: with no DSCP tags every packet
// classifies BE, so turning EDCA on adds VO/VI/BK engines that never
// contend and must not move a single draw, event or counter. Only the
// per-AC PPDU counters, which EDCA-off leaves at zero, may differ.
void ExpectAllBestEffortEdcaIsEdcaOff(ScenarioConfig c) {
  c.edca_enabled = false;
  ScenarioResult off = RunScenario(c);
  c.edca_enabled = true;
  ScenarioResult on = RunScenario(c);
  on.ap_mac.ac_ppdus_sent = {};
  for (ClientResult& client : on.clients) {
    client.mac.ac_ppdus_sent = {};
  }
  EXPECT_TRUE(on.BehaviourEquals(off))
      << "EDCA-on diverged: goodput " << on.aggregate_goodput_mbps << " vs "
      << off.aggregate_goodput_mbps << ", airtime ppdus " << on.airtime.ppdus
      << " vs " << off.airtime.ppdus;
  EXPECT_EQ(on.events_executed, off.events_executed);
  EXPECT_EQ(on.ap_mac.virtual_collisions, 0u);
  for (const ClientResult& client : on.clients) {
    EXPECT_EQ(client.mac.virtual_collisions, 0u);
  }
}

TEST(EdcaBitIdentityPin, AllBestEffortTcpHackDownloadMatchesEdcaOff) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 3;
  c.proto = TransportProto::kTcp;
  c.hack = HackVariant::kMoreData;
  c.duration = SimTime::Millis(800);
  c.start_stagger = SimTime::Millis(50);
  c.seed = 7;
  ExpectAllBestEffortEdcaIsEdcaOff(c);
}

// A small version of the benchmark's dense path: contended UDP uplink with
// RTS/CTS, rate adaptation and burst pacing.
TEST(EdcaBitIdentityPin, AllBestEffortDenseUplinkMatchesEdcaOff) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 10;
  c.proto = TransportProto::kUdp;
  c.hack = HackVariant::kOff;
  c.upload = true;
  c.rts_threshold = 500;
  c.rate_adaptation = true;
  c.udp_burst_window = SimTime::Millis(16);
  c.udp_rate_bps = 250e6;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Millis(5);
  c.seed = 7;
  ExpectAllBestEffortEdcaIsEdcaOff(c);
}

// Priority smoke at scenario scale: voice flows sharing a saturated cell
// with scaled-up web flows see a lower p99 with EDCA on than off. The >= 2x
// version of this claim is gated in CI at 1000 stations (bench_scale).
TEST(EdcaScenarioTest, EdcaCutsVoiceTailLatencyUnderWebSaturation) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 45.0;
  c.n_clients = 40;
  c.proto = TransportProto::kUdp;
  c.hack = HackVariant::kOff;
  c.duration = SimTime::Seconds(3);
  c.start_stagger = SimTime::Millis(20);
  c.seed = 7;
  c.traffic_mix = {{TrafficModel::kCbrVoice, 0.1},
                   {TrafficModel::kParetoWeb, 0.9}};
  c.traffic_rate_scale = 10.0;  // ~51 Mbps offered web load: saturation

  ScenarioConfig with_edca = c;
  with_edca.edca_enabled = true;
  ScenarioResult off = RunScenario(c);
  ScenarioResult on = RunScenario(with_edca);

  ASSERT_GT(off.ac_latency[kAcVo].count, 0u);
  ASSERT_GT(on.ac_latency[kAcVo].count, 0u);
  ASSERT_GT(on.ac_latency[kAcBe].count, 0u);
  EXPECT_GT(on.ap_mac.ac_ppdus_sent[kAcVo], 0u);
  EXPECT_LT(on.ac_latency[kAcVo].p99_ms, off.ac_latency[kAcVo].p99_ms)
      << "EDCA on: VO p99 " << on.ac_latency[kAcVo].p99_ms
      << " ms, off: " << off.ac_latency[kAcVo].p99_ms << " ms";
  // Within the EDCA run, voice beats best effort.
  EXPECT_LT(on.ac_latency[kAcVo].p99_ms, on.ac_latency[kAcBe].p99_ms);
}

}  // namespace
}  // namespace hacksim
