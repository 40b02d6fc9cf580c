// Dense-cell scaling tests.
//
// 1. Equivalence: the batched channel delivery (one scheduler event per
//    distinct arrival nanosecond per PPDU) must produce bit-identical
//    experiment statistics to the historical per-PHY-event scheduling for
//    full scenarios at 1/3/10 clients — while executing fewer events. The
//    hidden-terminal configurations run the same check over the geometric
//    channel (range-limited decode + SINR capture).
// 2. Event-count independence: at the channel layer, the number of
//    scheduler events per PPDU must not grow with the attached-PHY count.
// 3. A 100-station scenario smoke, so the dense-cell path is exercised by
//    the default test suite and not just the opt-in bench.
// 4. Legacy bit-identity pins: with the propagation layer compiled in but
//    the fixed-loss default selected, one small cell per flow-wiring branch
//    must not move at all — the same invariant the committed BENCH
//    artifacts carry, but enforced inside the default test suite. The
//    geometric pins do the same for the log-distance channel's paths.
// 5. Hidden-terminal behaviour: plain DCF loses most of its goodput to
//    hidden collisions on the two-cluster topology; RTS/CTS recovers it.
#include <gtest/gtest.h>

#include <string>

#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

ScenarioConfig BaseConfig(int n_clients, TransportProto proto,
                          HackVariant hack) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = n_clients;
  c.proto = proto;
  c.hack = hack;
  c.duration = SimTime::Millis(800);
  c.start_stagger = SimTime::Millis(50);
  c.seed = 7;
  return c;
}

// The batched run's result lands in *batched_out when one is given.
void ExpectModesEquivalent(ScenarioConfig config,
                           ScenarioResult* batched_out = nullptr) {
  config.channel_delivery = ChannelDeliveryMode::kPerPhyEvent;
  ScenarioResult per_phy = RunScenario(config);
  config.channel_delivery = ChannelDeliveryMode::kBatched;
  ScenarioResult batched = RunScenario(config);
  if (batched_out != nullptr) {
    *batched_out = batched;
  }

  EXPECT_TRUE(batched.BehaviourEquals(per_phy))
      << "batched delivery diverged: goodput " << batched.aggregate_goodput_mbps
      << " vs " << per_phy.aggregate_goodput_mbps << ", airtime ppdus "
      << batched.airtime.ppdus << " vs " << per_phy.airtime.ppdus;
  ASSERT_EQ(batched.clients.size(), per_phy.clients.size());
  for (size_t i = 0; i < batched.clients.size(); ++i) {
    EXPECT_EQ(batched.clients[i], per_phy.clients[i]) << "client " << i;
  }
  // Identical behaviour from strictly fewer scheduler events (2+ clients
  // means 3+ attached PHYs, so per-PHY scheduling is strictly costlier).
  if (config.n_clients > 1) {
    EXPECT_LT(batched.events_executed, per_phy.events_executed);
  } else {
    EXPECT_LE(batched.events_executed, per_phy.events_executed);
  }
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackOneClient) {
  ExpectModesEquivalent(
      BaseConfig(1, TransportProto::kTcp, HackVariant::kMoreData));
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackThreeClients) {
  ExpectModesEquivalent(
      BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData));
}

TEST(BatchedDeliveryEquivalenceTest, TcpStockTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kTcp, HackVariant::kOff));
}

TEST(BatchedDeliveryEquivalenceTest, TcpHackTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kTcp, HackVariant::kMoreData));
}

TEST(BatchedDeliveryEquivalenceTest, UdpTenClients) {
  ExpectModesEquivalent(
      BaseConfig(10, TransportProto::kUdp, HackVariant::kOff));
}

// Upload reverses the compressing role; loss exercises the BAR/retry and
// rx-window machinery on both sides.
ScenarioConfig LossyUploadConfig() {
  ScenarioConfig c = BaseConfig(3, TransportProto::kTcp,
                                HackVariant::kMoreData);
  c.upload = true;
  c.clients.resize(3);
  for (auto& spec : c.clients) {
    spec.bernoulli_data_loss = 0.05;
  }
  return c;
}

TEST(BatchedDeliveryEquivalenceTest, LossyUploadThreeClients) {
  ExpectModesEquivalent(LossyUploadConfig());
}

ScenarioConfig HiddenConfig(int n_clients, size_t rts_threshold) {
  ScenarioConfig c = BaseConfig(n_clients, TransportProto::kUdp,
                                HackVariant::kOff);
  c.upload = true;
  c.topology = Topology::kTwoClusterHidden;
  c.propagation = LogDistancePropagation::Params{};
  c.rts_threshold = rts_threshold;
  c.udp_rate_bps = 1.2e8;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Millis(5);
  return c;
}

TEST(BatchedDeliveryEquivalenceTest, HiddenTwoClusterUdpUpload) {
  // The geometric channel prunes out-of-range pairs in both delivery modes;
  // they must still agree bit-for-bit, including the capture counters.
  ExpectModesEquivalent(HiddenConfig(6, /*rts_threshold=*/0));
}

TEST(BatchedDeliveryEquivalenceTest, HiddenTwoClusterRtsProtected) {
  ExpectModesEquivalent(HiddenConfig(6, /*rts_threshold=*/500));
}

// The disk-uplink-rts-1000 benchmark shape at 40 stations: uniform-disk
// placement spreads the receivers over the most distinct delays per PPDU,
// and the log-distance defaults prune far pairs and let near frames
// capture through overlap.
ScenarioConfig UniformDiskConfig() {
  ScenarioConfig c = BaseConfig(40, TransportProto::kUdp, HackVariant::kOff);
  c.upload = true;
  c.topology = Topology::kUniformDisk;
  c.propagation = LogDistancePropagation::Params{};
  c.rts_threshold = 500;
  c.rate_adaptation = true;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Micros(500);
  return c;
}

TEST(BatchedDeliveryEquivalenceTest, UniformDiskRtsRateAdapt) {
  ScenarioResult r;
  ExpectModesEquivalent(UniformDiskConfig(), &r);
  EXPECT_GT(r.airtime.out_of_range, 0u);
  uint64_t captures = 0;
  for (const ClientResult& client : r.clients) {
    captures += client.phy.captures;
  }
  EXPECT_GT(captures + r.ap_phy.captures, 0u);
}

// Same contract for the coalesced NAV-reset probe: the default (zero-event
// provisional deadline) and the historical armed-per-overhearer form must
// produce bit-identical scenario behaviour. Run on the hidden-terminal RTS
// cell — the probe-heavy workload where reservations actually go dead and
// get reclaimed, not just cancelled — and from fewer-or-equal events.
void ExpectProbeModesEquivalent(ScenarioConfig config) {
  config.legacy_nav_probe_events = true;
  ScenarioResult legacy = RunScenario(config);
  config.legacy_nav_probe_events = false;
  ScenarioResult coalesced = RunScenario(config);

  EXPECT_TRUE(coalesced.BehaviourEquals(legacy))
      << "coalesced NAV probe diverged: goodput "
      << coalesced.aggregate_goodput_mbps << " vs "
      << legacy.aggregate_goodput_mbps << ", airtime ppdus "
      << coalesced.airtime.ppdus << " vs " << legacy.airtime.ppdus;
  ASSERT_EQ(coalesced.clients.size(), legacy.clients.size());
  for (size_t i = 0; i < coalesced.clients.size(); ++i) {
    EXPECT_EQ(coalesced.clients[i], legacy.clients[i]) << "client " << i;
  }
  EXPECT_LE(coalesced.events_executed, legacy.events_executed);
}

TEST(NavProbeEquivalenceTest, HiddenTwoClusterRtsProtected) {
  ExpectProbeModesEquivalent(HiddenConfig(6, /*rts_threshold=*/500));
}

TEST(NavProbeEquivalenceTest, DenseUplinkRtsCell) {
  ScenarioConfig c = BaseConfig(10, TransportProto::kUdp, HackVariant::kOff);
  c.upload = true;
  c.rts_threshold = 500;
  c.udp_rate_bps = 2.5e8;
  c.duration = SimTime::Millis(300);
  c.start_stagger = SimTime::Millis(5);
  ExpectProbeModesEquivalent(c);
}

// One small fixed-loss cell per flow-wiring branch of RunScenario: each
// direction of each source kind, the background mix flow on TCP downloads,
// and the fault engine's stop/resume/late-start paths. The run is fully
// deterministic from (config, seed), so any drift here means the wiring
// (or the fixed-loss default channel) stopped being bit-for-bit the same
// — the regression the committed BENCH_scale.json goodputs would show.
struct WiringPin {
  const char* name;
  ScenarioConfig (*config)();
  uint64_t ppdus;
  uint64_t events;
  double goodput_mbps;
};

const std::vector<TrafficMixEntry> kPinMix = {
    {TrafficModel::kParetoWeb, 0.5},
    {TrafficModel::kOnOffVideo, 0.25},
    {TrafficModel::kCbrVoice, 0.25}};

ScenarioConfig UdpPinConfig(bool upload) {
  ScenarioConfig c = BaseConfig(4, TransportProto::kUdp, HackVariant::kOff);
  c.upload = upload;
  c.duration = SimTime::Millis(300);
  return c;
}

ScenarioConfig TcpMixEdcaPinConfig() {
  ScenarioConfig c =
      BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData);
  c.edca_enabled = true;
  c.traffic_mix = kPinMix;
  return c;
}

const WiringPin kWiringPins[] = {
    {"TcpHackDownload",
     [] {
       return BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData);
     },
     901, 38067, 116.30534609523809},
    {"UdpCbrDownload", [] { return UdpPinConfig(false); }, 487, 17718,
     119.60490666666666},
    {"UdpCbrUploadBurst16ms",
     [] {
       ScenarioConfig c = UdpPinConfig(true);
       c.udp_burst_window = SimTime::Millis(16);
       return c;
     },
     188, 6823, 105.12042666666667},
    {"UdpMixDownload",
     [] {
       ScenarioConfig c = UdpPinConfig(false);
       c.traffic_mix = kPinMix;
       return c;
     },
     162, 1382, 2.5151733333333333},
    {"UdpMixUpload",
     [] {
       ScenarioConfig c = UdpPinConfig(true);
       c.traffic_mix = kPinMix;
       return c;
     },
     156, 1340, 2.5151733333333333},
    {"TcpHackUploadLossy", LossyUploadConfig, 669, 27127, 118.5753820952381},
    {"TcpMixDownloadEdca", TcpMixEdcaPinConfig, 961, 38783,
     119.83673466666667},
    {"TcpMixDownloadEdcaFaults",
     [] {
       // Station 1 starts absent (its first event is a join); station 2
       // crashes and rejoins.
       ScenarioConfig c = TcpMixEdcaPinConfig();
       c.fault_plan = *FaultPlan::Parse(
           "crash@200000us:2;join@300000us:1;join@500000us:2");
       return c;
     },
     994, 35236, 111.92463238095237},
};

class WiringPinTest : public ::testing::TestWithParam<WiringPin> {};

TEST_P(WiringPinTest, OutputsPinned) {
  const WiringPin& pin = GetParam();
  ScenarioResult r = RunScenario(pin.config());
  EXPECT_EQ(r.airtime.ppdus, pin.ppdus);
  EXPECT_EQ(r.events_executed, pin.events);
  EXPECT_EQ(r.aggregate_goodput_mbps, pin.goodput_mbps);
  EXPECT_EQ(r.crc_failures, 0u);
  EXPECT_EQ(r.airtime.out_of_range, 0u);
  EXPECT_EQ(r.ap_phy.captures, 0u);
  EXPECT_EQ(r.ap_phy.overlap_losses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LegacyBitIdentityPin, WiringPinTest, ::testing::ValuesIn(kWiringPins),
    [](const ::testing::TestParamInfo<WiringPin>& info) {
      return std::string(info.param.name);
    });

TEST(LegacyBitIdentityPin, FaultMachineryOffStillHitsTheGoldenValues) {
  // The fault-injection engine and the liveness watchdog must be free when
  // unused: an empty plan installs no loss gates, draws nothing from any
  // RNG stream, and leaves flow wiring untouched; the watchdog only adds
  // its own kOther audit events. Same golden values as the TcpHackDownload
  // pin above — if this drifts while that pin still passes, the fault
  // plumbing itself perturbed the legacy path.
  ScenarioConfig c =
      BaseConfig(3, TransportProto::kTcp, HackVariant::kMoreData);
  c.fault_plan = FaultPlan{};  // explicitly empty
  c.watchdog_interval = SimTime::Millis(5);
  c.watchdog_abort_on_trip = true;  // a trip would abort the test binary
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.airtime.ppdus, 901u);
  EXPECT_EQ(r.aggregate_goodput_mbps, 116.30534609523809);
  EXPECT_EQ(r.fault, FaultStats{});
  EXPECT_EQ(r.watchdog.trips, 0u);
  EXPECT_GT(r.watchdog.checks, 0u);
}

// One log-distance cell per geometric path: the uniform disk with RTS and
// rate adaptation, the two-cluster hidden pair without and with RTS, and a
// disk whose SnrLossModel draws from each receiver's distance. The
// equivalence tests above compare two runs of the same code, so a change
// that moves receive power, pruning or the capture verdict in both
// delivery modes at once passes them; these values were captured before
// the channel cached per-pair power and judged capture in the linear
// domain, and must not move.
struct GeometricPin {
  const char* name;
  ScenarioConfig (*config)();
  uint64_t ppdus;
  uint64_t events;
  double goodput_mbps;
  uint64_t out_of_range;
  uint64_t captures;        // AP plus every client
  uint64_t overlap_losses;  // AP plus every client
};

const GeometricPin kGeometricPins[] = {
    {"UniformDiskRtsRateAdapt", UniformDiskConfig, 1583, 102108,
     94.090240000000037, 2728, 981, 13728},
    {"HiddenTwoClusterUdpUpload", [] { return HiddenConfig(6, 0); }, 564,
     8062, 6.3982933333333332, 1326, 8, 343},
    {"HiddenTwoClusterRtsProtected", [] { return HiddenConfig(6, 500); },
     1954, 22046, 75.444906666666682, 3213, 22, 241},
    {"UniformDiskSnrLoss",
     [] {
       ScenarioConfig c = UniformDiskConfig();
       c.n_clients = 20;
       c.snr = SnrLossModel::Params{};
       return c;
     },
     653, 29318, 28.458666666666669, 717, 138, 2252},
};

class GeometricPinTest : public ::testing::TestWithParam<GeometricPin> {};

TEST_P(GeometricPinTest, OutputsPinned) {
  const GeometricPin& pin = GetParam();
  ScenarioResult r = RunScenario(pin.config());
  uint64_t captures = r.ap_phy.captures;
  uint64_t overlap_losses = r.ap_phy.overlap_losses;
  for (const ClientResult& client : r.clients) {
    captures += client.phy.captures;
    overlap_losses += client.phy.overlap_losses;
  }
  EXPECT_EQ(r.airtime.ppdus, pin.ppdus);
  EXPECT_EQ(r.events_executed, pin.events);
  EXPECT_EQ(r.aggregate_goodput_mbps, pin.goodput_mbps);
  EXPECT_EQ(r.airtime.out_of_range, pin.out_of_range);
  EXPECT_EQ(captures, pin.captures);
  EXPECT_EQ(overlap_losses, pin.overlap_losses);
  EXPECT_EQ(r.crc_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GeometricBitIdentityPin, GeometricPinTest,
    ::testing::ValuesIn(kGeometricPins),
    [](const ::testing::TestParamInfo<GeometricPin>& info) {
      return std::string(info.param.name);
    });

TEST(HiddenTerminalScenarioTest, RtsRecoversGoodputLostToHiddenCollisions) {
  ScenarioResult plain = RunScenario(HiddenConfig(10, /*rts_threshold=*/0));
  ScenarioResult rts = RunScenario(HiddenConfig(10, /*rts_threshold=*/500));

  // The clusters cannot carrier-sense each other: pairs are pruned below
  // the energy-detection threshold and the AP eats hidden collisions.
  EXPECT_GT(plain.airtime.out_of_range, 0u);
  EXPECT_GT(plain.ap_phy.overlap_losses, 0u);

  // RTS/CTS turns those hidden data collisions into NAV reservations set by
  // the AP's CTS (audible in both clusters). The CI bench gate enforces
  // >= 2x at scale; 1.5x here keeps the unit test robust to config drift.
  EXPECT_GT(plain.aggregate_goodput_mbps, 0.0);
  EXPECT_GT(rts.aggregate_goodput_mbps,
            1.5 * plain.aggregate_goodput_mbps)
      << "rts " << rts.aggregate_goodput_mbps << " vs plain "
      << plain.aggregate_goodput_mbps;
}

TEST(ScaleSmokeTest, HundredStationCellDeliversUdp) {
  ScenarioConfig c = BaseConfig(100, TransportProto::kUdp, HackVariant::kOff);
  c.duration = SimTime::Millis(200);
  c.start_stagger = SimTime::Millis(1);
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.crc_failures, 0u);
  EXPECT_GT(r.aggregate_goodput_mbps, 0.0);
  uint64_t delivered = 0;
  for (const ClientResult& cr : r.clients) {
    delivered += cr.bytes_delivered;
  }
  EXPECT_GT(delivered, 0u);
}

}  // namespace
}  // namespace hacksim
