// TCP unit tests over an in-memory pipe with controllable loss, delay and
// reordering — no 802.11 involved. Covers the handshake, slow start,
// delayed ACKs (the 2:1 ratio every capacity figure assumes), fast
// retransmit, SACK recovery, RTO backoff, completion and the wire format,
// plus golden hashes of the sender's loss-recovery traces.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/stats/experiment_stats.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace hacksim {
namespace {

constexpr uint64_t kMss = 1460;

// One segment as the sender emitted it.
struct EmittedSegment {
  int64_t at_ns;
  uint32_t seq;
  uint32_t len;
  bool retransmission;  // below the highest sequence sent so far
};

// Bidirectional pipe with per-direction delay and scripted or random loss.
// Records every segment the sender emits, before any drop.
class TcpPipe {
 public:
  explicit TcpPipe(uint64_t bytes)
      : flow_{Ipv4Address::FromOctets(10, 0, 0, 1),
              Ipv4Address::FromOctets(10, 0, 2, 1), 5000, 6000, kIpProtoTcp},
        sender(&sched, TcpConfig{}, flow_,
               [this](Packet p) { Forward(std::move(p), /*to_receiver=*/true); },
               bytes),
        receiver(&sched, TcpConfig{}, flow_, [this](Packet p) {
          Forward(std::move(p), /*to_receiver=*/false);
        }) {}

  void Forward(Packet p, bool to_receiver) {
    if (to_receiver) {
      ++data_sent;
      payload_sent += p.payload_bytes();
      Record(p);
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

  void Record(const Packet& p) {
    uint32_t seq = p.tcp().seq;
    uint32_t len = static_cast<uint32_t>(p.payload_bytes());
    bool retransmission = len > 0 && sent_any_data_ && Seq32Lt(seq, sent_end_);
    if (len > 0 && (!sent_any_data_ || Seq32Gt(seq + len, sent_end_))) {
      sent_end_ = seq + len;
      sent_any_data_ = true;
    }
    emitted.push_back(EmittedSegment{sched.Now().ns(), seq, len,
                                     retransmission});
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
  std::vector<EmittedSegment> emitted;

 private:
  uint32_t sent_end_ = 0;
  bool sent_any_data_ = false;
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
  TcpPipe pipe(0);
  pipe.receiver.window_override = [](uint64_t) -> uint32_t {
    return 16 * 1460;  // 16 segments
  };
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

// --- Golden loss-recovery traces ----------------------------------------------
//
// Each cell runs one transfer through the pipe under a loss pattern and
// hashes every segment the sender emits (time, seq, length, retransmission
// flag) plus its final TcpSenderStats. The hashes pin every recovery
// decision: which hole is resent and when, how much new data rides along,
// when an RTO fires. They were captured from the per-MSS scoreboard walk
// that the merged SACK scoreboard replaced, and hold unedited.

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct RecoveryTrace {
  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t off_grid = 0;  // data segments off the 1 + k*MSS grid
  uint64_t re_retransmissions = 0;  // resends of an already-resent seq
  TcpSenderStats stats;
  bool complete = false;
};

struct RecoveryCell {
  const char* name;
  uint64_t bytes;
  std::function<void(TcpPipe&)> arrange;
  uint64_t hash;
};

RecoveryTrace RunRecoveryCell(const RecoveryCell& cell) {
  TcpPipe pipe(cell.bytes);
  cell.arrange(pipe);
  pipe.sender.Start();
  pipe.sched.RunUntil(SimTime::Seconds(120));
  RecoveryTrace trace;
  std::map<uint32_t, int> resends;
  for (const EmittedSegment& s : pipe.emitted) {
    trace.hash = Fnv1a(trace.hash, static_cast<uint64_t>(s.at_ns));
    trace.hash = Fnv1a(trace.hash, s.seq);
    trace.hash = Fnv1a(trace.hash, s.len);
    trace.hash = Fnv1a(trace.hash, s.retransmission ? 1 : 0);
    if (s.len > 0 && (s.seq - 1) % kMss != 0) {
      ++trace.off_grid;
    }
    if (s.retransmission && ++resends[s.seq] >= 2) {
      ++trace.re_retransmissions;
    }
  }
  trace.stats = pipe.sender.stats();
  const TcpSenderStats& st = trace.stats;
  for (uint64_t v : {st.segments_sent, st.bytes_sent, st.retransmissions,
                     st.fast_retransmits, st.timeouts, st.dupacks_received,
                     st.acks_received}) {
    trace.hash = Fnv1a(trace.hash, v);
  }
  trace.complete = pipe.sender.complete();
  return trace;
}

// Drops each data segment with probability `p`, from `seed`'s stream.
std::function<void(TcpPipe&)> RandomDataLoss(double p, uint64_t seed) {
  return [p, seed](TcpPipe& pipe) {
    auto rng = std::make_shared<Random>(seed);
    pipe.drop_data = [p, rng](const Packet& pkt) {
      return pkt.payload_bytes() > 0 && rng->NextBool(p);
    };
  };
}

// Drops `count` consecutive first transmissions once the sender passes
// sequence `from`.
std::function<void(TcpPipe&)> BurstLoss(uint32_t from, int count) {
  return [from, count](TcpPipe& pipe) {
    auto remaining = std::make_shared<int>(count);
    pipe.drop_data = [from, remaining](const Packet& pkt) {
      if (pkt.payload_bytes() == 0 || pkt.tcp().seq <= from ||
          *remaining == 0) {
        return false;
      }
      --*remaining;
      return true;
    };
  };
}

// Drops the first data segment past `from` and its fast retransmission,
// and delays everything sent in the next RTT by 40 ms instead of 5: the
// next ACK arrives after the retransmission went stale (2 RTT, at least
// 20 ms), so recovery re-sends the hole instead of waiting for the RTO.
std::function<void(TcpPipe&)> StaleRetransmission(uint32_t from) {
  return [from](TcpPipe& pipe) {
    auto hole = std::make_shared<uint32_t>(0);
    auto drops = std::make_shared<int>(0);
    TcpPipe* p = &pipe;
    pipe.drop_data = [from, hole, drops, p](const Packet& pkt) {
      if (pkt.payload_bytes() == 0 || *drops == 2) {
        return false;
      }
      if (*drops == 0 && pkt.tcp().seq > from) {
        *hole = pkt.tcp().seq;
        ++*drops;
        return true;
      }
      if (*drops == 1 && pkt.tcp().seq == *hole) {
        ++*drops;
        p->delay = SimTime::Millis(40);
        p->sched.ScheduleIn(SimTime::Millis(10),
                            [p] { p->delay = SimTime::Millis(5); });
        return true;
      }
      return false;
    };
  };
}

// Drops two data segments past `from`, so recovery starts with SACK blocks
// on the scoreboard, then blacks out every ACK from 15 ms to 500 ms after
// the first drop: the RTO fires mid-recovery and clears the scoreboard.
std::function<void(TcpPipe&)> AckBlackoutInRecovery(uint32_t from) {
  return [from](TcpPipe& pipe) {
    auto dropped = std::make_shared<int>(0);
    auto blackout = std::make_shared<bool>(false);
    TcpPipe* p = &pipe;
    pipe.drop_data = [from, dropped, blackout, p](const Packet& pkt) {
      if (pkt.payload_bytes() == 0 || pkt.tcp().seq <= from) {
        return false;
      }
      ++*dropped;
      if (*dropped == 1) {
        SimTime now = p->sched.Now();
        p->sched.ScheduleAt(now + SimTime::Millis(15),
                            [blackout] { *blackout = true; });
        p->sched.ScheduleAt(now + SimTime::Millis(500),
                            [blackout] { *blackout = false; });
      }
      return *dropped == 1 || *dropped == 6;
    };
    pipe.drop_ack = [blackout](const Packet&) { return *blackout; };
  };
}

std::vector<RecoveryCell> RecoveryCells() {
  return {
      {"random1pct-seed1", 2'000'000, RandomDataLoss(0.01, 1),
       0x6c2a56f58aace042ull},
      {"random1pct-seed2", 2'000'000, RandomDataLoss(0.01, 2),
       0xac4f18ebe2ab534eull},
      {"random1pct-seed3", 2'000'000, RandomDataLoss(0.01, 3),
       0xcec1c5dd6f1ee85dull},
      {"random5pct-seed1", 1'000'000, RandomDataLoss(0.05, 1),
       0x8bfdf429a25ddf9eull},
      {"random5pct-seed2", 1'000'000, RandomDataLoss(0.05, 2),
       0x00b8f3d43d6b3d24ull},
      {"random5pct-seed3", 1'000'000, RandomDataLoss(0.05, 3),
       0x4da98ca3c2cee324ull},
      {"burst20", 3'000'000, BurstLoss(300'000, 20), 0x530ce1200e7e5f65ull},
      {"stale-retransmission", 2'000'000, StaleRetransmission(200'000),
       0xdf8d83448ca4e5d6ull},
      {"ack-blackout-rto", 2'000'000, AckBlackoutInRecovery(200'000),
       0xb91fafdda36f56f0ull},
  };
}

const RecoveryCell& CellNamed(const std::vector<RecoveryCell>& cells,
                              const std::string& name) {
  for (const RecoveryCell& cell : cells) {
    if (name == cell.name) {
      return cell;
    }
  }
  ADD_FAILURE() << "no cell " << name;
  return cells.front();
}

TEST(TcpRecoveryPin, TracesMatchGoldenHashes) {
  bool any_re_retransmission = false;
  for (const RecoveryCell& cell : RecoveryCells()) {
    RecoveryTrace trace = RunRecoveryCell(cell);
    EXPECT_TRUE(trace.complete) << cell.name;
    // Short segments (cwnd or the window not a multiple of the MSS) put
    // segment edges off the snd_una + k*MSS grid recovery walks.
    EXPECT_GT(trace.off_grid, 0u) << cell.name;
    EXPECT_EQ(trace.hash, cell.hash)
        << cell.name << ": 0x" << std::hex << trace.hash;
    any_re_retransmission =
        any_re_retransmission || trace.re_retransmissions > 0;
  }
  EXPECT_TRUE(any_re_retransmission);
}

TEST(TcpRecoveryPin, StaleRetransmissionIsResentBeforeTheRto) {
  std::vector<RecoveryCell> cells = RecoveryCells();
  RecoveryTrace trace =
      RunRecoveryCell(CellNamed(cells, "stale-retransmission"));
  EXPECT_EQ(trace.re_retransmissions, 1u);
  EXPECT_EQ(trace.stats.timeouts, 0u);
  EXPECT_EQ(trace.stats.fast_retransmits, 1u);
}

TEST(TcpRecoveryPin, AckBlackoutFiresTheRtoMidRecovery) {
  std::vector<RecoveryCell> cells = RecoveryCells();
  RecoveryTrace trace = RunRecoveryCell(CellNamed(cells, "ack-blackout-rto"));
  EXPECT_GE(trace.stats.timeouts, 1u);
  EXPECT_EQ(trace.stats.fast_retransmits, 1u);
}

// --- SACK scoreboard --------------------------------------------------------------

TEST(SackScoreboardTest, MergesDuplicateNestedDisjointAndUnorderedBlocks) {
  SackScoreboard board;
  board.Add({3000, 4000}, 1000);
  board.Add({3000, 4000}, 1000);  // duplicate
  EXPECT_EQ(board.ranges(), (std::vector<SackBlock>{{3000, 4000}}));
  board.Add({3000, 5000}, 1000);  // the same run, grown
  board.Add({3500, 4500}, 1000);  // an older, nested report
  EXPECT_EQ(board.ranges(), (std::vector<SackBlock>{{3000, 5000}}));
  // Most recent first, the rest in any order.
  board.Add({9000, 9500}, 1000);
  board.Add({6000, 7000}, 1000);
  board.Add({2000, 2500}, 1000);
  EXPECT_EQ(board.ranges(),
            (std::vector<SackBlock>{
                {2000, 2500}, {3000, 5000}, {6000, 7000}, {9000, 9500}}));
  // Runs that merged at the receiver merge here.
  board.Add({2000, 7000}, 1000);
  EXPECT_EQ(board.ranges(),
            (std::vector<SackBlock>{{2000, 7000}, {9000, 9500}}));
  // A block the cumulative ACK already covers carries nothing.
  board.Add({200, 900}, 1000);
  EXPECT_EQ(board.ranges().size(), 2u);
  EXPECT_EQ(board.Highest(1000), 9500u);
}

TEST(SackScoreboardTest, CoversOnlyRangesInsideOneBlock) {
  SackScoreboard board;
  EXPECT_EQ(board.Highest(1000), 1000u);
  board.Add({2000, 3000}, 1000);
  board.Add({3500, 5000}, 1000);
  EXPECT_TRUE(board.Covers(2000, 1000));
  EXPECT_TRUE(board.Covers(3600, 1400));
  EXPECT_FALSE(board.Covers(1500, 1000));  // starts in the hole below
  EXPECT_FALSE(board.Covers(2500, 1000));  // straddles the right edge
  EXPECT_FALSE(board.Covers(3000, 200));   // inside the gap
  EXPECT_EQ(board.Find(3000), nullptr);
  ASSERT_NE(board.Find(4999), nullptr);
  EXPECT_EQ(board.Find(4999)->start, 3500u);
  EXPECT_EQ(board.Find(5000), nullptr);
}

TEST(SackScoreboardTest, PrunesAtTheCumulativeAck) {
  SackScoreboard board;
  board.Add({2000, 3000}, 1000);
  board.Add({4000, 5000}, 1000);
  board.Prune(3000);
  EXPECT_EQ(board.ranges(), (std::vector<SackBlock>{{4000, 5000}}));
  board.Prune(5000);
  EXPECT_TRUE(board.ranges().empty());
  EXPECT_EQ(board.Highest(5000), 5000u);
}

// A sender fed hand-written ACKs: its scoreboard prunes at each cumulative
// ACK and is cleared when the RTO fires.
TEST(SackScoreboardTest, SenderPrunesAtCumulativeAckAndClearsAtRto) {
  Scheduler sched;
  FiveTuple flow{Ipv4Address::FromOctets(10, 0, 0, 1),
                 Ipv4Address::FromOctets(10, 0, 2, 1), 5000, 6000,
                 kIpProtoTcp};
  uint64_t sent = 0;
  TcpSender sender(&sched, TcpConfig{}, flow, [&](Packet) { ++sent; }, 0);
  auto ack = [&](bool syn, uint32_t cumulative, std::vector<SackBlock> sacks) {
    TcpHeader tcp;
    tcp.src_port = flow.dst_port;
    tcp.dst_port = flow.src_port;
    tcp.ack = cumulative;
    tcp.flag_ack = true;
    tcp.flag_syn = syn;
    tcp.window = 65535;
    if (syn) {
      tcp.window_scale = kTcpWindowScale;
    }
    for (const SackBlock& b : sacks) {
      tcp.sack_blocks.push_back(b);
    }
    sender.OnPacket(Packet::MakeTcp(flow.dst_ip, flow.src_ip, tcp, 0));
  };
  sender.Start();
  ack(/*syn=*/true, 1, {});
  ASSERT_TRUE(sender.established());
  ASSERT_EQ(sent, 11u);  // the SYN, then an initial window of ten segments
  uint32_t mss = 1460;
  ack(false, 1, {{1 + 2 * mss, 1 + 3 * mss}});
  ack(false, 1, {{1 + 5 * mss, 1 + 6 * mss}, {1 + 2 * mss, 1 + 4 * mss}});
  EXPECT_EQ(sender.scoreboard().ranges(),
            (std::vector<SackBlock>{{1 + 2 * mss, 1 + 4 * mss},
                                    {1 + 5 * mss, 1 + 6 * mss}}));
  // The first hole repaired: the cumulative ACK swallows the first block.
  ack(false, 1 + 4 * mss, {{1 + 5 * mss, 1 + 7 * mss}});
  EXPECT_EQ(sender.scoreboard().ranges(),
            (std::vector<SackBlock>{{1 + 5 * mss, 1 + 7 * mss}}));
  sched.RunUntil(SimTime::Seconds(5));
  EXPECT_GE(sender.stats().timeouts, 1u);
  EXPECT_TRUE(sender.scoreboard().ranges().empty());
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
