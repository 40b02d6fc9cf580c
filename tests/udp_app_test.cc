// CBR pacing tests against the analytical tick grid (start + k * interval,
// for each tick before `stop`): a burst of one emits each tick at its
// instant, one event per packet; a longer window releases each tick less
// than one window late. Stop/Resume epochs cut and restart the grid, and
// nothing stays scheduled past a stop. Plus a scenario-level AP-outage
// smoke: bucket pacing under the fault engine must recover.
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

constexpr SimTime kInterval = SimTime::Millis(1);

UdpCbrSource::Config BaseCfg() {
  UdpCbrSource::Config cfg;
  cfg.rate_bps = 11'776'000;  // 1472 B payload every 1 ms
  cfg.payload_bytes = 1472;
  return cfg;
}

// `ticks` followed by the CBR ticks in [from, stop): from + k * interval.
std::vector<SimTime> TickGrid(SimTime from, SimTime stop,
                              std::vector<SimTime> ticks = {}) {
  for (SimTime t = from; t < stop; t += kInterval) {
    ticks.push_back(t);
  }
  return ticks;
}

// Packet k leaves at tick k, or later by less than `window` (a refill
// releases every tick accrued since the previous one); a zero window
// means exactly at tick k.
void ExpectFollowsGrid(const SourceUnderTest& s,
                       const std::vector<SimTime>& grid, SimTime window) {
  ASSERT_EQ(s.send_times.size(), grid.size());
  EXPECT_EQ(s.src.packets_sent(), grid.size());
  EXPECT_EQ(s.bytes, grid.size() * 1472u);
  for (size_t k = 0; k < grid.size(); ++k) {
    EXPECT_GE(s.send_times[k], grid[k]) << "packet " << k;
    EXPECT_LT(s.send_times[k] - grid[k], std::max(window, SimTime::Nanos(1)))
        << "packet " << k;
  }
}

// A finite stop flushes the tail exactly: every tick before the stop,
// including the last partial window, and not the tick after it.
TEST(CbrPacingTest, FollowsTickGridThroughConfiguredStop) {
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100) + SimTime::Micros(300);  // mid-tick
  for (SimTime window : {SimTime::Zero(), SimTime::Millis(16)}) {
    Scheduler sched;
    cfg.burst_window = window;
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(SimTime::Millis(200));
    // Ticks at 0..100 ms inclusive: 101 packets.
    ExpectFollowsGrid(s, TickGrid(SimTime::Zero(), cfg.stop), window);
  }
}

// Stop() mid-window releases the ticks accrued since the last refill, the
// stranded refill emits nothing in the dead window, and Resume() restarts
// the grid at its own instant on a fresh epoch.
TEST(CbrPacingTest, StopReleasesAccruedAndResumeRestartsGrid) {
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Seconds(10);  // run "forever"; Stop() cuts it
  for (SimTime window : {SimTime::Zero(), SimTime::Millis(16)}) {
    Scheduler sched;
    cfg.burst_window = window;
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    // Crash at t=50.5 ms, mid-tick and mid-window: ticks 0..50 ms happened.
    SimTime crash = SimTime::Millis(50) + SimTime::Micros(500);
    sched.RunUntil(crash);
    s.src.Stop();
    ExpectFollowsGrid(s, TickGrid(SimTime::Zero(), crash), window);
    sched.RunUntil(SimTime::Millis(70));
    EXPECT_EQ(s.send_times.size(), 51u);
    EXPECT_EQ(sched.pending_events(), 0u);

    // Rejoin at 80 ms, final stop at 120 ms: ticks 80..119 ms (the tick at
    // the stop instant dies).
    s.src.Resume(SimTime::Millis(80), SimTime::Millis(120));
    sched.RunUntil(SimTime::Millis(200));
    ExpectFollowsGrid(s,
                      TickGrid(SimTime::Millis(80), SimTime::Millis(120),
                               TickGrid(SimTime::Zero(), crash)),
                      window);
  }
}

// A window shorter than two intervals means a burst of one: every tick
// leaves at its own instant, and each packet costs exactly one event.
TEST(CbrPacingTest, SubIntervalWindowEmitsEachTickAtItsInstant) {
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(20);
  for (SimTime window : {SimTime::Zero(), SimTime::Micros(500), kInterval,
                         SimTime::Micros(1999)}) {
    Scheduler sched;
    cfg.burst_window = window;
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(SimTime::Millis(40));
    EXPECT_EQ(s.send_times, TickGrid(SimTime::Zero(), cfg.stop))
        << "window " << window;
    EXPECT_EQ(sched.events_executed(), 20u) << "window " << window;
  }
}

// The per-refill burst is capped: a huge window still releases at most
// kMaxBurstPackets per event, and every tick before the stop still leaves.
TEST(CbrPacingTest, BurstCapBoundsReleaseAndPreservesTotals) {
  Scheduler sched;
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(100);
  cfg.burst_window = SimTime::Millis(200);  // fits 200 ticks; cap is 64
  SourceUnderTest s(&sched, cfg);
  s.src.Start();
  sched.RunUntil(SimTime::Millis(300));
  ExpectFollowsGrid(s, TickGrid(SimTime::Zero(), cfg.stop),
                    kInterval * UdpCbrSource::kMaxBurstPackets);
  // No single instant may release more than the cap.
  size_t same_instant = 1, worst = 1;
  for (size_t i = 1; i < s.send_times.size(); ++i) {
    same_instant =
        s.send_times[i] == s.send_times[i - 1] ? same_instant + 1 : 1;
    worst = std::max(worst, same_instant);
  }
  EXPECT_LE(worst, UdpCbrSource::kMaxBurstPackets);
}

// Once the next tick reaches the configured stop the source arms nothing
// more: a run that ends at the stop leaves no event pending.
TEST(CbrPacingTest, NothingStaysScheduledPastStop) {
  UdpCbrSource::Config cfg = BaseCfg();
  cfg.stop = SimTime::Millis(10) + SimTime::Micros(300);
  for (SimTime window : {SimTime::Zero(), SimTime::Millis(16)}) {
    Scheduler sched;
    cfg.burst_window = window;
    SourceUnderTest s(&sched, cfg);
    s.src.Start();
    sched.RunUntil(cfg.stop);
    EXPECT_EQ(s.src.packets_sent(), 11u) << "window " << window;
    EXPECT_EQ(sched.pending_events(), 0u) << "window " << window;
  }
}

// Scenario smoke: bucket-paced uplink sources under an AP outage. The fault
// engine Stop()s every source at the crash and Resume()s on recovery — the
// epoch machinery the unit tests above pin — and the cell must deliver
// traffic both overall and after the AP comes back.
TEST(CbrPacingTest, ApOutageScenarioRecoversWithBucketPacing) {
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
