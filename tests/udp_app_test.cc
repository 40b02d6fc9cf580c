// Token-bucket CBR pacing tests: the bucket form (one kTransportTimer event
// per burst window releasing every CBR tick accrued) must preserve the
// classic per-packet chain's byte totals and its Start/Stop/Resume epoch
// semantics exactly — that equivalence is what let it become the bench
// uplink default (see docs/perf.md). Plus a scenario-level AP-outage smoke:
// bucket pacing under the fault engine must survive the outage and recover.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/apps/udp_app.h"
#include "src/scenario/download_scenario.h"

namespace hacksim {
namespace {

struct SourceUnderTest {
  SourceUnderTest(Scheduler* sched, UdpCbrSource::Config cfg)
      : src(sched, cfg,
            FiveTuple{Ipv4Address(1), Ipv4Address(2), 7, 9, kIpProtoUdp},
            [this, sched](Packet p) {
              send_times.push_back(sched->Now());
              bytes += p.payload_bytes();
            }) {}

  std::vector<SimTime> send_times;
  uint64_t bytes = 0;
  UdpCbrSource src;
};

UdpCbrSource::Config BaseCfg() {
  UdpCbrSource::Config cfg;
  cfg.rate_bps = 11'776'000;  // 1472 B payload every 1 ms
  cfg.payload_bytes = 1472;
  return cfg;
}

// A finite stop must flush the bucket's tail exactly: same packet and byte
// totals as the per-packet chain, including the boundary tick at the stop
// instant (which dies in both forms).
TEST(TokenBucketTest, ByteTotalsMatchLegacyThroughConfiguredStop) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100) + SimTime::Micros(300);  // mid-tick
  SourceUnderTest legacy(&sched, cfg);
  cfg.burst_window = SimTime::Millis(16);
  SourceUnderTest bucket(&sched, cfg);

  legacy.src.Start();
  bucket.src.Start();
  sched.RunUntil(SimTime::Millis(200));

  // Ticks at 0..100 ms inclusive: 101 packets either way.
  EXPECT_EQ(legacy.send_times.size(), 101u);
  EXPECT_EQ(bucket.send_times.size(), legacy.send_times.size());
  EXPECT_EQ(bucket.bytes, legacy.bytes);
  EXPECT_EQ(bucket.src.packets_sent(), legacy.src.packets_sent());
}

// Stop() mid-window must release the ticks accrued since the last refill —
// the instants the classic chain already emitted one by one — and a Resume
// must restart cleanly on a fresh epoch, stranding the old refill.
TEST(TokenBucketTest, StopFlushesAccruedAndResumeStartsFreshEpoch) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Seconds(10);  // run "forever"; Stop() cuts it
  SourceUnderTest legacy(&sched, cfg);
  cfg.burst_window = SimTime::Millis(16);
  SourceUnderTest bucket(&sched, cfg);

  legacy.src.Start();
  bucket.src.Start();
  // Crash at t=50.5 ms, mid-tick and mid-window: ticks 0..50 ms happened.
  sched.RunUntil(SimTime::Millis(50) + SimTime::Micros(500));
  legacy.src.Stop();
  bucket.src.Stop();
  EXPECT_EQ(legacy.send_times.size(), 51u);
  EXPECT_EQ(bucket.send_times.size(), 51u);
  // Dead window: the stranded refill (old epoch) must emit nothing.
  sched.RunUntil(SimTime::Millis(70));
  EXPECT_EQ(bucket.send_times.size(), 51u);

  // Rejoin at 80 ms, final stop at 120 ms: ticks 80..119 ms in both forms
  // (the tick at the stop instant dies either way).
  legacy.src.Resume(SimTime::Millis(80), SimTime::Millis(120));
  bucket.src.Resume(SimTime::Millis(80), SimTime::Millis(120));
  sched.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(legacy.send_times.size(), 91u);
  EXPECT_EQ(bucket.send_times.size(), 91u);
  EXPECT_EQ(bucket.bytes, legacy.bytes);
}

// A window shorter than one interval degenerates to the classic chain:
// identical emission *instants*, not just totals.
TEST(TokenBucketTest, SubIntervalWindowDegeneratesToLegacyChain) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(20);
  SourceUnderTest legacy(&sched, cfg);
  cfg.burst_window = SimTime::Micros(500);  // < the 1 ms interval
  SourceUnderTest degenerate(&sched, cfg);

  legacy.src.Start();
  degenerate.src.Start();
  sched.RunUntil(SimTime::Millis(40));
  EXPECT_EQ(degenerate.send_times, legacy.send_times);
}

// The per-refill burst is capped: a huge window still releases at most
// kMaxBurstPackets per event, and the totals still match the chain.
TEST(TokenBucketTest, BurstCapBoundsReleaseAndPreservesTotals) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100);
  SourceUnderTest legacy(&sched, cfg);
  cfg.burst_window = SimTime::Millis(200);  // fits 200 ticks; cap is 64
  SourceUnderTest bucket(&sched, cfg);

  legacy.src.Start();
  bucket.src.Start();
  sched.RunUntil(SimTime::Millis(300));
  EXPECT_EQ(legacy.send_times.size(), 100u);
  EXPECT_EQ(bucket.send_times.size(), 100u);
  // No single instant may release more than the cap.
  size_t same_instant = 1, worst = 1;
  for (size_t i = 1; i < bucket.send_times.size(); ++i) {
    same_instant =
        bucket.send_times[i] == bucket.send_times[i - 1] ? same_instant + 1
                                                         : 1;
    worst = std::max(worst, same_instant);
  }
  EXPECT_LE(worst, UdpCbrSource::kMaxBurstPackets);
}

// Scenario smoke: bucket-paced uplink sources under an AP outage. The fault
// engine Stop()s every source at the crash and Resume()s on recovery — the
// epoch machinery the unit tests above pin — and the cell must deliver
// traffic both overall and after the AP comes back.
TEST(TokenBucketTest, ApOutageScenarioRecoversWithBucketPacing) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = 5;
  c.proto = TransportProto::kUdp;
  c.hack = HackVariant::kOff;
  c.upload = true;
  c.udp_rate_bps = 5e7;
  c.udp_burst_window = SimTime::Millis(16);
  c.duration = SimTime::Millis(600);
  c.start_stagger = SimTime::Millis(5);
  c.seed = 7;
  c.fault_plan = FaultPlan::ApOutage(c.duration);
  ScenarioResult r = RunScenario(c);

  EXPECT_EQ(r.crc_failures, 0u);
  uint64_t bytes = 0;
  for (const auto& cl : r.clients) {
    bytes += cl.bytes_delivered;
  }
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(r.post_fault_goodput_mbps, 0.0)
      << "the cell must deliver again after the AP restart";
}

}  // namespace
}  // namespace hacksim
