// End-to-end scenario tests: full server-AP-clients topologies asserting
// the paper's qualitative results and HACK's §3.4 robustness invariants.
// These use short runs to stay fast; the bench binaries run the full-length
// versions.
#include <gtest/gtest.h>

#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

ScenarioConfig BaseN(HackVariant hack, int clients = 1,
                     uint64_t seed = 42) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = clients;
  c.hack = hack;
  c.duration = SimTime::Seconds(2);
  c.seed = seed;
  return c;
}

ScenarioConfig BaseA(HackVariant hack, int clients = 1,
                     uint64_t seed = 42) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211a;
  c.data_rate_mbps = 54.0;
  c.n_clients = clients;
  c.hack = hack;
  c.duration = SimTime::Seconds(2);
  c.tcp.mss = 1448;
  c.seed = seed;
  return c;
}

TEST(IntegrationTest, StockDownloadReachesExpectedBand80211n) {
  ScenarioResult r = RunScenario(BaseN(HackVariant::kOff));
  // Theory bound ~125 Mbps; collisions and slow start land it 90-115.
  EXPECT_GT(r.aggregate_goodput_mbps, 85.0);
  EXPECT_LT(r.aggregate_goodput_mbps, 126.0);
  EXPECT_EQ(r.crc_failures, 0u);
}

TEST(IntegrationTest, HackBeatsStock80211n) {
  double stock = 0.0;
  double hack = 0.0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    stock += RunScenario(BaseN(HackVariant::kOff, 1, seed))
                 .steady_aggregate_goodput_mbps;
    hack += RunScenario(BaseN(HackVariant::kMoreData, 1, seed))
                .steady_aggregate_goodput_mbps;
  }
  EXPECT_GT(hack, stock * 1.005) << "HACK must outperform stock on average";
}

TEST(IntegrationTest, HackBeatsStock80211a) {
  // The 802.11a gain is large (paper: 29-32%) because every TCP ACK costs
  // a full acquisition there.
  ScenarioResult stock = RunScenario(BaseA(HackVariant::kOff));
  ScenarioResult hack = RunScenario(BaseA(HackVariant::kMoreData));
  EXPECT_GT(hack.aggregate_goodput_mbps,
            stock.aggregate_goodput_mbps * 1.15);
}

TEST(IntegrationTest, HackEliminatesMostVanillaAcks80211a) {
  // Table 2's regime (steady bulk on 802.11a): nearly all ACKs ride LL
  // ACKs. A 2 s run still contains slow start, so the thresholds are a
  // little looser than the paper's 9050:10 steady-state split; the Table 2
  // bench runs the full 25 MB version.
  ScenarioResult r = RunScenario(BaseA(HackVariant::kMoreData));
  const HackStats& h = r.clients[0].hack;
  EXPECT_GT(h.unique_compressed_acks, 4 * h.vanilla_acks_sent)
      << "the vast majority of ACKs must ride LL ACKs (Table 2)";
  // Short runs are refresh-heavy (slow-start SACK bursts); the Table 2
  // bench checks the steady-state ~12x figure on the full 25 MB transfer.
  EXPECT_GT(h.CompressionRatio(), 3.0);
}

TEST(IntegrationTest, NoCrcFailuresInCleanRuns) {
  for (auto variant :
       {HackVariant::kMoreData, HackVariant::kOpportunistic,
        HackVariant::kExplicitTimer, HackVariant::kTimestampEcho}) {
    ScenarioResult r = RunScenario(BaseN(variant));
    EXPECT_EQ(r.crc_failures, 0u) << static_cast<int>(variant);
  }
}

TEST(IntegrationTest, NoCrcFailuresUnderLoss) {
  // §4.3: "TCP/HACK functions correctly in a lossy environment and does
  // not elicit any decompression CRC failures."
  for (double loss : {0.02, 0.10, 0.30}) {
    ScenarioConfig c = BaseA(HackVariant::kMoreData);
    c.clients.resize(1);
    c.clients[0].bernoulli_data_loss = loss;
    c.clients[0].bernoulli_control_loss = loss / 4;
    ScenarioResult r = RunScenario(c);
    EXPECT_EQ(r.crc_failures, 0u) << "loss=" << loss;
    EXPECT_GT(r.aggregate_goodput_mbps, 1.0) << "loss=" << loss;
  }
}

TEST(IntegrationTest, LossyAggregated80211nStaysCorrect) {
  for (double loss : {0.05, 0.2}) {
    ScenarioConfig c = BaseN(HackVariant::kMoreData);
    c.clients.resize(1);
    c.clients[0].bernoulli_data_loss = loss;
    c.clients[0].bernoulli_control_loss = loss / 4;
    ScenarioResult r = RunScenario(c);
    EXPECT_EQ(r.crc_failures, 0u) << "loss=" << loss;
    EXPECT_GT(r.aggregate_goodput_mbps, 5.0) << "loss=" << loss;
  }
}

TEST(IntegrationTest, FileTransferCompletesExactly) {
  ScenarioConfig c = BaseN(HackVariant::kMoreData);
  c.file_bytes = 5'000'000;
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.clients[0].bytes_delivered, 5'000'000u);
  EXPECT_GT(r.clients[0].completion_time.ns(), 0);
}

TEST(IntegrationTest, UploadDirectionWorksSymmetrically) {
  // §3.1: HACK is symmetric; uploads gain too (the AP compresses).
  ScenarioConfig stock_cfg = BaseA(HackVariant::kOff);
  stock_cfg.upload = true;
  ScenarioConfig hack_cfg = BaseA(HackVariant::kMoreData);
  hack_cfg.upload = true;
  ScenarioResult stock = RunScenario(stock_cfg);
  ScenarioResult hack = RunScenario(hack_cfg);
  EXPECT_GT(stock.aggregate_goodput_mbps, 10.0);
  EXPECT_GT(hack.aggregate_goodput_mbps,
            stock.aggregate_goodput_mbps * 1.1);
  EXPECT_EQ(hack.crc_failures, 0u);
}

TEST(IntegrationTest, UdpUnaffectedByClientCount) {
  // Fig 10: UDP goodput roughly constant vs number of clients.
  ScenarioConfig c = BaseN(HackVariant::kOff);
  c.proto = TransportProto::kUdp;
  double one = RunScenario(c).steady_aggregate_goodput_mbps;
  c.n_clients = 4;
  double four = RunScenario(c).steady_aggregate_goodput_mbps;
  EXPECT_NEAR(four / one, 1.0, 0.08);
  EXPECT_GT(one, 125.0);  // near the 135 Mbps capacity bound
}

TEST(IntegrationTest, ZeroLengthUdpRunDeliversNothing) {
  // The steady-goodput window collapses to [0, 0]; the run must report
  // zeros in both directions rather than trip the tracker's from < to.
  for (bool upload : {false, true}) {
    ScenarioConfig c = BaseN(HackVariant::kOff, 2);
    c.proto = TransportProto::kUdp;
    c.upload = upload;
    c.duration = SimTime::Zero();
    ScenarioResult r = RunScenario(c);
    EXPECT_EQ(r.aggregate_goodput_mbps, 0.0) << "upload=" << upload;
    EXPECT_EQ(r.steady_aggregate_goodput_mbps, 0.0) << "upload=" << upload;
    for (const ClientResult& cr : r.clients) {
      EXPECT_EQ(cr.bytes_delivered, 0u) << "upload=" << upload;
    }
  }
}

TEST(IntegrationTest, MoreDataCompetitiveWithOpportunistic) {
  // Fig 10 comparison at 2 clients. In the paper MORE DATA clearly beats
  // the opportunistic variant; in our reproduction the two are close at
  // 802.11n (our opportunistic rides Block ACKs whenever a batch beats the
  // client's DCF access, which at saturation is common). Assert both beat
  // stock, and MORE DATA is not worse than opportunistic beyond noise.
  double stock = 0.0;
  double more_data = 0.0;
  double opportunistic = 0.0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    stock += RunScenario(BaseN(HackVariant::kOff, 2, seed))
                 .steady_aggregate_goodput_mbps;
    more_data += RunScenario(BaseN(HackVariant::kMoreData, 2, seed))
                     .steady_aggregate_goodput_mbps;
    opportunistic +=
        RunScenario(BaseN(HackVariant::kOpportunistic, 2, seed))
            .steady_aggregate_goodput_mbps;
  }
  EXPECT_GT(more_data, stock);
  EXPECT_GT(more_data, opportunistic * 0.95);
}

TEST(IntegrationTest, NoTimeoutsInCleanHackRuns) {
  // The §3.2 stall pathology must not occur: no TCP RTOs on a clean
  // channel with MORE DATA.
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ScenarioResult r = RunScenario(BaseN(HackVariant::kMoreData, 1, seed));
    EXPECT_EQ(r.tcp_timeouts, 0u) << "seed " << seed;
  }
}

TEST(IntegrationTest, FairnessAcrossClients) {
  // "Both TCP/HACK and TCP/802.11a are fair" (§4.2).
  for (auto variant : {HackVariant::kOff, HackVariant::kMoreData}) {
    ScenarioResult r = RunScenario(BaseN(variant, 2, 7));
    double a = r.clients[0].steady_goodput_mbps;
    double b = r.clients[1].steady_goodput_mbps;
    ASSERT_GT(a + b, 0.0);
    double jain = (a + b) * (a + b) / (2 * (a * a + b * b));
    EXPECT_GT(jain, 0.85) << static_cast<int>(variant);
  }
}

TEST(IntegrationTest, DeterministicForSeed) {
  ScenarioResult r1 = RunScenario(BaseN(HackVariant::kMoreData, 2, 123));
  ScenarioResult r2 = RunScenario(BaseN(HackVariant::kMoreData, 2, 123));
  EXPECT_DOUBLE_EQ(r1.aggregate_goodput_mbps, r2.aggregate_goodput_mbps);
  EXPECT_EQ(r1.clients[0].mac.ppdus_sent, r2.clients[0].mac.ppdus_sent);
  EXPECT_EQ(r1.ap_mac.mpdu_tx_attempts, r2.ap_mac.mpdu_tx_attempts);
}

TEST(IntegrationTest, HackReducesCollisions) {
  // Table 1 / Figure 12's mechanism: HACK removes the client's contending
  // ACK transmissions, so AP response timeouts (collision losses) drop.
  uint64_t stock_timeouts = 0;
  uint64_t hack_timeouts = 0;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    stock_timeouts += RunScenario(BaseN(HackVariant::kOff, 2, seed))
                          .ap_mac.response_timeouts;
    hack_timeouts += RunScenario(BaseN(HackVariant::kMoreData, 2, seed))
                         .ap_mac.response_timeouts;
  }
  EXPECT_LT(hack_timeouts, stock_timeouts);
}

TEST(IntegrationTest, AirtimeLedgerIsConsistent) {
  ScenarioResult r = RunScenario(BaseN(HackVariant::kMoreData, 1, 3));
  // The medium cannot be busy longer than the run.
  EXPECT_LE(r.airtime.TotalBusyNs(), r.sim_end.ns());
  EXPECT_GT(r.airtime.data_ns, 0);
  EXPECT_GT(r.airtime.ack_ns, 0);
  // Collision overlap is a small fraction of busy time on a clean channel.
  EXPECT_LT(r.airtime.collision_ns, r.airtime.TotalBusyNs() / 10);
}

TEST(IntegrationTest, SnrModelProducesRateDependentGoodput) {
  // Close in, high rate wins; far out, only low rates still work.
  ScenarioConfig c = BaseN(HackVariant::kOff);
  c.snr = SnrLossModel::Params{};
  c.clients.resize(1);
  c.clients[0].distance_m = 3.0;
  double near_fast = RunScenario(c).aggregate_goodput_mbps;
  c.clients[0].distance_m = 60.0;
  double far_fast = RunScenario(c).aggregate_goodput_mbps;
  c.data_rate_mbps = 15.0;
  double far_slow = RunScenario(c).aggregate_goodput_mbps;
  EXPECT_GT(near_fast, 60.0);
  EXPECT_LT(far_fast, 10.0);
  EXPECT_GT(far_slow, far_fast);
}

TEST(IntegrationTest, SoraQuirksReduceButDontBreakThroughput) {
  ScenarioConfig c = BaseA(HackVariant::kOff);
  ScenarioResult clean = RunScenario(c);
  c.extra_ack_delay = SimTime::Micros(37);
  c.extra_ack_timeout = SimTime::Micros(80);
  ScenarioResult sora = RunScenario(c);
  EXPECT_LT(sora.aggregate_goodput_mbps, clean.aggregate_goodput_mbps);
  EXPECT_GT(sora.aggregate_goodput_mbps,
            clean.aggregate_goodput_mbps * 0.5);
}

TEST(IntegrationTest, PayloadsFitWithinAifs) {
  // Footnote 7: ~98.5% of HACK payloads fit within AIFS. Assert a high
  // fraction rather than the exact figure.
  ScenarioResult r = RunScenario(BaseN(HackVariant::kMoreData, 1, 5));
  const MacStats& m = r.clients[0].mac;
  ASSERT_GT(m.hack_payloads_sent, 0u);
  double fit = static_cast<double>(m.hack_payloads_fit_in_aifs) /
               static_cast<double>(m.hack_payloads_sent);
  EXPECT_GT(fit, 0.90);
}

// Property sweep: every (standard, variant, loss) combination conserves
// correctness invariants — no CRC failures, bytes delivered monotone, and
// the run terminates.
struct SweepParam {
  WifiStandard standard;
  HackVariant variant;
  double loss;
};

class ScenarioSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ScenarioSweep, InvariantsHold) {
  const SweepParam& sp = GetParam();
  ScenarioConfig c = sp.standard == WifiStandard::k80211a
                         ? BaseA(sp.variant)
                         : BaseN(sp.variant);
  c.duration = SimTime::Seconds(1);
  c.clients.resize(1);
  c.clients[0].bernoulli_data_loss = sp.loss;
  ScenarioResult r = RunScenario(c);
  EXPECT_EQ(r.crc_failures, 0u);
  EXPECT_GT(r.clients[0].bytes_delivered, 0u);
  // The ACK pipeline must not leak: every compressed ACK the client made
  // was either delivered (recovered/duplicate at AP), flushed to vanilla,
  // or still in flight at cutoff (bounded by one payload's worth).
  const HackStats& ch = r.clients[0].hack;
  const HackStats& ah = r.ap_hack;
  if (sp.variant != HackVariant::kOff) {
    uint64_t accounted = ah.acks_recovered_at_ap + ch.flushed_to_vanilla +
                         ch.withdrawn_vanilla_won;
    EXPECT_GE(accounted + 130, ch.unique_compressed_acks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioSweep,
    ::testing::Values(
        SweepParam{WifiStandard::k80211a, HackVariant::kOff, 0.0},
        SweepParam{WifiStandard::k80211a, HackVariant::kMoreData, 0.0},
        SweepParam{WifiStandard::k80211a, HackVariant::kMoreData, 0.1},
        SweepParam{WifiStandard::k80211a, HackVariant::kOpportunistic, 0.05},
        SweepParam{WifiStandard::k80211n, HackVariant::kOff, 0.0},
        SweepParam{WifiStandard::k80211n, HackVariant::kMoreData, 0.0},
        SweepParam{WifiStandard::k80211n, HackVariant::kMoreData, 0.1},
        SweepParam{WifiStandard::k80211n, HackVariant::kOpportunistic, 0.0},
        SweepParam{WifiStandard::k80211n, HackVariant::kExplicitTimer, 0.0},
        SweepParam{WifiStandard::k80211n, HackVariant::kTimestampEcho,
                   0.0}));

}  // namespace
}  // namespace hacksim
