// Node / wired-link / routing / goodput-tracker / latency-recorder / UDP app
// tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/apps/udp_app.h"
#include "src/node/node.h"
#include "src/sim/random.h"
#include "src/stats/experiment_stats.h"

namespace hacksim {
namespace {

Packet MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t dport,
               uint32_t payload) {
  return Packet::MakeUdp(src, dst, 1111, dport, payload);
}

// The link is the paper's backhaul (§4.3): 500 Mb/s, so 16 ns per byte, a
// 1 ms one-way delay and 1000 packets of queue per direction.
TEST(PointToPointLinkTest, DeliversWithSerializationPlusDelay) {
  Scheduler sched;
  PointToPointLink link(&sched);
  SimTime arrival;
  link.deliver_to_1 = [&](Packet) { arrival = sched.Now(); };
  // 1000-byte payload -> 1028-byte datagram -> 16448 ns + 1 ms delay.
  link.SendFrom(0, MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 1000));
  sched.Run();
  EXPECT_EQ(arrival, SimTime::Nanos(16448) + SimTime::Millis(1));
}

TEST(PointToPointLinkTest, SerializesBackToBack) {
  Scheduler sched;
  PointToPointLink link(&sched);
  std::vector<SimTime> arrivals;
  link.deliver_to_1 = [&](Packet) { arrivals.push_back(sched.Now()); };
  for (int i = 0; i < 3; ++i) {
    link.SendFrom(0, MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 972));
  }
  sched.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1000-byte datagram takes 16 us on the wire, strictly serialized.
  EXPECT_EQ(arrivals[0], SimTime::Micros(1016));
  EXPECT_EQ(arrivals[1], SimTime::Micros(1032));
  EXPECT_EQ(arrivals[2], SimTime::Micros(1048));
}

TEST(PointToPointLinkTest, FullDuplexDirectionsIndependent) {
  Scheduler sched;
  PointToPointLink link(&sched);
  int at_0 = 0;
  int at_1 = 0;
  link.deliver_to_0 = [&](Packet) { ++at_0; };
  link.deliver_to_1 = [&](Packet) { ++at_1; };
  link.SendFrom(0, MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 100));
  link.SendFrom(1, MakeUdp(Ipv4Address(2), Ipv4Address(1), 9, 100));
  sched.Run();
  EXPECT_EQ(at_0, 1);
  EXPECT_EQ(at_1, 1);
}

TEST(PointToPointLinkTest, QueueLimitDrops) {
  Scheduler sched;
  PointToPointLink link(&sched);
  int delivered = 0;
  link.deliver_to_1 = [&](Packet) { ++delivered; };
  for (int i = 0; i < 1020; ++i) {
    link.SendFrom(0, MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 1000));
  }
  sched.Run();
  // One in flight + 1000 queued survive.
  EXPECT_EQ(delivered, 1001);
  EXPECT_EQ(link.drops(), 19u);
}

TEST(NodeTest, DeliversToRegisteredHandler) {
  Node node(Ipv4Address::FromOctets(10, 0, 2, 1));
  int hits = 0;
  node.RegisterHandler(6000, [&](const Packet&) { ++hits; });
  node.OnPacketReceived(MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                Ipv4Address::FromOctets(10, 0, 2, 1), 6000,
                                10));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(node.delivered(), 1u);
}

TEST(NodeTest, UnknownPortCountsAsDrop) {
  Node node(Ipv4Address::FromOctets(10, 0, 2, 1));
  node.OnPacketReceived(MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                Ipv4Address::FromOctets(10, 0, 2, 1), 7777,
                                10));
  EXPECT_EQ(node.routing_drops(), 1u);
}

TEST(NodeTest, ForwardsViaP2pRoute) {
  Scheduler sched;
  PointToPointLink link(&sched);
  Node ap(Ipv4Address::FromOctets(10, 0, 1, 1));
  ap.AttachP2p(&link, 1);
  ap.SetDefaultRoute(Node::Egress::kP2p, MacAddress());
  int upstream = 0;
  link.deliver_to_0 = [&](Packet) { ++upstream; };
  // Packet for someone else: forwarded upstream.
  ap.OnPacketReceived(MakeUdp(Ipv4Address::FromOctets(10, 0, 2, 1),
                              Ipv4Address::FromOctets(10, 0, 0, 1), 5000,
                              10));
  sched.Run();
  EXPECT_EQ(upstream, 1);
  EXPECT_EQ(ap.forwarded(), 1u);
}

TEST(GoodputTrackerTest, WindowedGoodput) {
  GoodputTracker t;
  // 1 MB delivered during each of seconds [0,1) and [1,2); samples are
  // appended in time order, as the simulator guarantees.
  for (int i = 0; i < 10; ++i) {
    t.OnBytesDelivered(SimTime::Millis(i * 100), 100'000);
  }
  for (int i = 0; i < 10; ++i) {
    t.OnBytesDelivered(SimTime::Millis(1000 + i * 100), 100'000);
  }
  EXPECT_EQ(t.total_bytes(), 2'000'000u);
  double all = t.GoodputMbps(SimTime::Zero(), SimTime::Seconds(2));
  EXPECT_NEAR(all, 8.0, 0.5);
  double second_half =
      t.GoodputMbps(SimTime::Seconds(1), SimTime::Seconds(2));
  EXPECT_NEAR(second_half, 8.0, 1.0);
}

TEST(GoodputTrackerTest, EmptyWindowIsZero) {
  GoodputTracker t;
  t.OnBytesDelivered(SimTime::Millis(100), 1000);
  EXPECT_DOUBLE_EQ(
      t.GoodputMbps(SimTime::Seconds(5), SimTime::Seconds(6)), 0.0);
}

// Summarize selects p50 and p99 instead of sorting; it must give exactly
// what a full sort gives, duplicates included.
TEST(LatencyRecorderTest, SummaryEqualsFullSortReference) {
  for (size_t n : {1u, 2u, 3u, 99u, 100u, 101u, 1000u}) {
    LatencyRecorder recorder;
    DelayChain chain;
    Random rng(n);
    std::vector<int64_t> delays;
    int64_t jitter_sum = 0;
    SimTime now = SimTime::Seconds(1);
    for (size_t i = 0; i < n; ++i) {
      // Few distinct values, so most ranks hold duplicates.
      int64_t delay_ns = 1'000'000 * static_cast<int64_t>(rng.NextBounded(9));
      Packet p = Packet::MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                                 Ipv4Address::FromOctets(10, 0, 0, 2), 1, 2,
                                 100);
      p.set_created_at(now - SimTime::Nanos(delay_ns));
      recorder.RecordDelivery(p, now, chain);
      if (!delays.empty()) {
        jitter_sum += std::abs(delay_ns - delays.back());
      }
      delays.push_back(delay_ns);
      now = now + SimTime::Millis(1);
    }
    std::vector<int64_t> sorted = delays;
    std::sort(sorted.begin(), sorted.end());
    auto nearest_rank = [&](double q) {
      size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
      return static_cast<double>(sorted[std::max<size_t>(rank, 1) - 1]) / 1e6;
    };
    int64_t sum = 0;
    for (int64_t d : delays) {
      sum += d;
    }
    LatencySummary got = recorder.Summarize(kAcBe);
    EXPECT_EQ(got.count, n);
    EXPECT_EQ(got.p50_ms, nearest_rank(0.50)) << "n=" << n;
    EXPECT_EQ(got.p99_ms, nearest_rank(0.99)) << "n=" << n;
    EXPECT_EQ(got.mean_ms,
              static_cast<double>(sum) / static_cast<double>(n) / 1e6)
        << "n=" << n;
    double jitter = n > 1 ? static_cast<double>(jitter_sum) /
                                static_cast<double>(n - 1) / 1e6
                          : 0.0;
    EXPECT_EQ(got.jitter_ms, jitter) << "n=" << n;
    EXPECT_EQ(recorder.Summarize(kAcVo), LatencySummary{});
  }
}

TEST(UdpAppTest, CbrSourcePacesCorrectly) {
  Scheduler sched;
  UdpCbrSource::Config cfg;
  cfg.rate_bps = 11'776'000;  // 1472 B payload every 1 ms
  cfg.payload_bytes = 1472;
  cfg.stop = SimTime::Millis(10);
  FiveTuple flow{Ipv4Address(1), Ipv4Address(2), 7, 9, kIpProtoUdp};
  std::vector<SimTime> sends;
  UdpCbrSource src(&sched, cfg, flow,
                   [&](Packet) { sends.push_back(sched.Now()); });
  src.Start();
  sched.RunUntil(SimTime::Millis(20));
  ASSERT_GE(sends.size(), 10u);
  EXPECT_EQ(sends[1] - sends[0], SimTime::Millis(1));
  EXPECT_EQ(sends[9] - sends[8], SimTime::Millis(1));
}

TEST(UdpAppTest, SinkCountsBytes) {
  Scheduler sched;
  UdpSink sink(&sched);
  sink.OnPacket(MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 1472));
  sink.OnPacket(MakeUdp(Ipv4Address(1), Ipv4Address(2), 9, 1472));
  EXPECT_EQ(sink.bytes_received(), 2944u);
}

}  // namespace
}  // namespace hacksim
