// TCP unit tests over an in-memory pipe with controllable loss, delay and
// reordering — no 802.11 involved. Covers the handshake, slow start,
// delayed ACKs (the 2:1 ratio every capacity figure assumes), fast
// retransmit, SACK recovery, RTO backoff, completion and the wire format.
#include <gtest/gtest.h>

#include <deque>

#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/stats/experiment_stats.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace hacksim {
namespace {

constexpr uint64_t kMss = 1460;

// Bidirectional pipe with per-direction delay and scripted or random loss.
class TcpPipe {
 public:
  explicit TcpPipe(uint64_t bytes, TcpConfig config = {})
      : flow_{Ipv4Address::FromOctets(10, 0, 0, 1),
              Ipv4Address::FromOctets(10, 0, 2, 1), 5000, 6000, kIpProtoTcp},
        sender(&sched, config, flow_,
               [this](Packet p) { Forward(std::move(p), /*to_receiver=*/true); },
               bytes),
        receiver(&sched, config, flow_, [this](Packet p) {
          Forward(std::move(p), /*to_receiver=*/false);
        }) {}

  void Forward(Packet p, bool to_receiver) {
    if (to_receiver) {
      ++data_sent;
      payload_sent += p.payload_bytes();
      if (drop_data && drop_data(p)) {
        return;
      }
    } else {
      ++acks_sent;
      if (drop_ack && drop_ack(p)) {
        return;
      }
    }
    sched.ScheduleIn(delay, [this, p = std::move(p), to_receiver]() {
      if (to_receiver) {
        receiver.OnPacket(p);
      } else {
        sender.OnPacket(p);
      }
    });
  }

  Scheduler sched;
  FiveTuple flow_;
  TcpSender sender;
  TcpReceiver receiver;
  SimTime delay = SimTime::Millis(5);
  std::function<bool(const Packet&)> drop_data;
  std::function<bool(const Packet&)> drop_ack;
  uint64_t data_sent = 0;
  uint64_t payload_sent = 0;
  uint64_t acks_sent = 0;
};

TEST(TcpTest, HandshakeEstablishesBothEnds) {
  TcpPipe pipe(0);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Millis(100));
  EXPECT_TRUE(pipe.sender.established());
  EXPECT_TRUE(pipe.receiver.established());
}

TEST(TcpTest, TransfersExactByteCount) {
  TcpPipe pipe(1'000'000);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  EXPECT_TRUE(pipe.sender.complete());
  EXPECT_EQ(pipe.receiver.total_delivered(), 1'000'000u);
}

TEST(TcpTest, NonMssAlignedTransfer) {
  TcpPipe pipe(12'345);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(pipe.sender.complete());
  EXPECT_EQ(pipe.receiver.total_delivered(), 12'345u);
}

TEST(TcpTest, CompletionCallbackFires) {
  TcpPipe pipe(100'000);
  bool done = false;
  pipe.sender.on_complete = [&] { done = true; };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(done);
}

TEST(TcpTest, DelayedAckRatioIsTwoToOne) {
  // The paper's capacity analysis hinges on one TCP ACK per two segments.
  TcpPipe pipe(2'000'000);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  ASSERT_TRUE(pipe.sender.complete());
  uint64_t segments = pipe.receiver.stats().segments_received;
  uint64_t acks = pipe.receiver.stats().acks_sent;
  EXPECT_NEAR(static_cast<double>(segments) / acks, 2.0, 0.1);
}

TEST(TcpTest, SlowStartDoublesWindow) {
  TcpPipe pipe(0);  // unbounded
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Millis(11));  // handshake done (~10 ms RTT)
  uint32_t w0 = pipe.sender.cwnd_bytes();
  pipe.sched.RunUntil(SimTime::Millis(21));  // one more RTT of ACKs
  uint32_t w1 = pipe.sender.cwnd_bytes();
  // With delayed ACKs, byte-counted slow start grows ~1.5x per RTT.
  EXPECT_GE(w1, w0 + w0 / 3);
}

TEST(TcpTest, SingleLossRecoversByFastRetransmit) {
  TcpPipe pipe(3'000'000);
  int dropped = 0;
  pipe.drop_data = [&](const Packet& p) {
    // Drop one specific segment once.
    if (dropped == 0 && p.tcp().seq > 200'000 && p.payload_bytes() > 0) {
      ++dropped;
      return true;
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(60));
  ASSERT_TRUE(pipe.sender.complete());
  EXPECT_EQ(pipe.sender.stats().fast_retransmits, 1u);
  EXPECT_EQ(pipe.sender.stats().timeouts, 0u);
  EXPECT_EQ(pipe.receiver.total_delivered(), 3'000'000u);
}

TEST(TcpTest, BurstLossRecoversWithoutTimeout) {
  // Drop a contiguous burst of 8 segments once; SACK-based recovery should
  // repair all holes without an RTO.
  TcpPipe pipe(3'000'000);
  int remaining = 8;
  bool armed = false;
  pipe.drop_data = [&](const Packet& p) {
    if (p.payload_bytes() == 0) {
      return false;
    }
    if (p.tcp().seq > 300'000 && !armed) {
      armed = true;
    }
    if (armed && remaining > 0 && p.tcp().seq > 300'000) {
      --remaining;
      return true;
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(60));
  ASSERT_TRUE(pipe.sender.complete());
  EXPECT_EQ(pipe.sender.stats().timeouts, 0u);
  EXPECT_EQ(pipe.receiver.total_delivered(), 3'000'000u);
}

TEST(TcpTest, TotalAckLossTriggersRtoAndRecovers) {
  // Blackout of the reverse path *after* the connection establishes: the
  // sender must RTO, then recover when ACKs flow again.
  TcpPipe pipe(200'000);
  bool blackout = false;
  pipe.sched.ScheduleAt(SimTime::Millis(15), [&] { blackout = true; });
  pipe.sched.ScheduleAt(SimTime::Millis(600), [&] { blackout = false; });
  pipe.drop_ack = [&](const Packet&) { return blackout; };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(60));
  EXPECT_TRUE(pipe.sender.complete());
  EXPECT_GE(pipe.sender.stats().timeouts, 1u);
}

TEST(TcpTest, RandomLossStillCompletes) {
  for (uint64_t seed : {11ull, 12ull, 13ull}) {
    TcpPipe pipe(1'000'000);
    Random rng(seed);
    pipe.drop_data = [&rng](const Packet& p) {
      return p.payload_bytes() > 0 && rng.NextBool(0.02);
    };
    pipe.sender.Start();
    pipe.sched.RunUntil(SimTime::Seconds(120));
    EXPECT_TRUE(pipe.sender.complete()) << "seed " << seed;
    EXPECT_EQ(pipe.receiver.total_delivered(), 1'000'000u);
  }
}

TEST(TcpTest, DupacksAreImmediateNotDelayed) {
  TcpPipe pipe(1'000'000);
  bool dropped_one = false;
  pipe.drop_data = [&](const Packet& p) {
    if (!dropped_one && p.payload_bytes() > 0 && p.tcp().seq > 100'000) {
      dropped_one = true;
      return true;
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  ASSERT_TRUE(pipe.sender.complete());
  // The receiver must have emitted out-of-order-triggered immediate ACKs.
  EXPECT_GT(pipe.receiver.stats().dupacks_sent, 0u);
  EXPECT_GT(pipe.sender.stats().dupacks_received, 0u);
}

TEST(TcpTest, ReceiverGeneratesSackBlocks) {
  TcpPipe pipe(1'000'000);
  bool dropped_one = false;
  bool saw_sack = false;
  pipe.drop_data = [&](const Packet& p) {
    if (!dropped_one && p.payload_bytes() > 0 && p.tcp().seq > 100'000) {
      dropped_one = true;
      return true;
    }
    return false;
  };
  pipe.drop_ack = [&](const Packet& p) {
    saw_sack = saw_sack || !p.tcp().sack_blocks.empty();
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  EXPECT_TRUE(saw_sack);
}

TEST(TcpTest, TimestampsEchoed) {
  TcpPipe pipe(100'000);
  bool checked = false;
  pipe.drop_ack = [&](const Packet& p) {
    if (p.tcp().timestamps.has_value() && p.tcp().timestamps->tsecr != 0) {
      checked = true;
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(checked);
  EXPECT_GT(pipe.sender.srtt().ns(), 0);
  // RTT estimate should reflect the 2x5 ms pipe.
  EXPECT_NEAR(pipe.sender.srtt().ToMillisF(), 10.0, 5.0);
}

// The wire format behind Table 2: both ends negotiate SACK and timestamps,
// every segment and ACK carries the timestamp option, and a pure ACK
// without SACK blocks is IPv4 20 + TCP 20 + timestamps 12 = 52 bytes, the
// size HackStats credits each compressed ACK with.
TEST(TcpTest, WireFormatCarriesTimestampsAndSackPermitted) {
  TcpPipe pipe(1'000'000);
  HackStats one_ack;
  one_ack.unique_compressed_acks = 1;
  uint64_t without_timestamps = 0;
  uint64_t syns_with_sack_ok = 0;
  uint64_t plain_acks = 0;
  uint64_t plain_acks_off_size = 0;
  uint64_t sack_acks = 0;
  auto inspect = [&](const Packet& p) {
    const TcpHeader& tcp = p.tcp();
    without_timestamps += tcp.timestamps.has_value() ? 0 : 1;
    if (tcp.flag_syn) {
      syns_with_sack_ok += tcp.sack_permitted ? 1 : 0;
    } else if (p.IsPureTcpAck() && !tcp.sack_blocks.empty()) {
      ++sack_acks;
    } else if (p.IsPureTcpAck()) {
      ++plain_acks;
      plain_acks_off_size +=
          p.SizeBytes() == one_ack.vanilla_ack_bytes_equivalent() ? 0 : 1;
    }
  };
  bool dropped_one = false;
  pipe.drop_data = [&](const Packet& p) {
    inspect(p);
    // One loss, so some ACKs carry SACK blocks.
    if (!dropped_one && p.payload_bytes() > 0 && p.tcp().seq > 100'000) {
      dropped_one = true;
      return true;
    }
    return false;
  };
  pipe.drop_ack = [&](const Packet& p) {
    inspect(p);
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  ASSERT_TRUE(pipe.sender.complete());

  EXPECT_EQ(without_timestamps, 0u);
  EXPECT_EQ(syns_with_sack_ok, 2u);  // the SYN and the SYN-ACK
  EXPECT_GT(plain_acks, 0u);
  EXPECT_EQ(plain_acks_off_size, 0u);
  EXPECT_EQ(one_ack.vanilla_ack_bytes_equivalent(), 52u);
  EXPECT_GT(sack_acks, 0u);
}

TEST(TcpTest, ReceiverWindowLimitsFlight) {
  TcpConfig config;
  config.receive_window_bytes = 16 * 1460;  // 16 segments
  TcpPipe pipe(0, config);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Millis(200));
  // cwnd may grow, but flight can never exceed the advertised window.
  uint64_t outstanding = pipe.payload_sent - pipe.receiver.total_delivered();
  EXPECT_LE(outstanding, 17 * kMss);  // one segment of slack
}

TEST(TcpTest, SynLossRecovered) {
  TcpPipe pipe(50'000);
  int drops = 1;
  pipe.drop_data = [&](const Packet& p) {
    if (p.tcp().flag_syn && drops > 0) {
      --drops;
      return true;
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  EXPECT_TRUE(pipe.sender.complete());
}

TEST(TcpTest, WindowOverrideChangesAdvertisedWindow) {
  TcpPipe pipe(500'000);
  std::set<uint16_t> windows;
  pipe.receiver.window_override = [](uint64_t idx) -> uint32_t {
    return idx % 2 == 0 ? 4 * 1024 * 1024 : 2 * 1024 * 1024;
  };
  pipe.drop_ack = [&](const Packet& p) {
    if (p.tcp().IsPureAckShape()) {
      windows.insert(p.tcp().window);
    }
    return false;
  };
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(30));
  EXPECT_GE(windows.size(), 2u);
}

// Parameterized sweep: transfers of many sizes complete exactly.
class TcpSizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcpSizeSweep, CompletesExactly) {
  TcpPipe pipe(GetParam());
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(60));
  EXPECT_TRUE(pipe.sender.complete());
  EXPECT_EQ(pipe.receiver.total_delivered(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpSizeSweep,
                         ::testing::Values(1, 1459, 1460, 1461, 14600,
                                           100'000, 1'000'000));

}  // namespace
}  // namespace hacksim
