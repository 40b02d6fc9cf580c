// MAC-layer tests: two stations on a clean or lossy channel exercising
// stop-and-wait exchanges (802.11a), A-MPDU + Block ACK (802.11n), retry
// and BAR recovery, RTS/CTS virtual carrier sense (threshold boundary, CTS
// timeout -> backoff re-entry, NAV from overheard RTS), MORE DATA and SYNC
// bits, NAV, and in-order delivery.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/mac80211/wifi_mac.h"
#include "src/phy80211/wifi_phy.h"

namespace hacksim {
namespace {

Packet MakeUdpPacket(uint32_t payload, uint16_t dst_port = 9) {
  return Packet::MakeUdp(Ipv4Address::FromOctets(10, 0, 0, 1),
                         Ipv4Address::FromOctets(10, 0, 2, 1), 7, dst_port,
                         payload);
}

Packet MakeTcpAckPacket() {
  TcpHeader tcp;
  tcp.src_port = 6000;
  tcp.dst_port = 5000;
  tcp.flag_ack = true;
  tcp.window = 1000;
  tcp.timestamps = TcpTimestamps{1, 2};
  return Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                         Ipv4Address::FromOctets(10, 0, 0, 1), tcp, 0);
}

struct MacPair {
  explicit MacPair(WifiStandard standard, double rate_mbps,
                   double loss_at_b = 0.0)
      : channel(&sched) {
    WifiMacConfig cfg;
    cfg.standard = standard;
    cfg.data_mode = ModeForRate(standard == WifiStandard::k80211a
                                    ? Modes80211a()
                                    : Modes80211n(),
                                rate_mbps);
    phy_a = std::make_unique<WifiPhy>(&sched, Random(1));
    phy_b = std::make_unique<WifiPhy>(&sched, Random(2));
    phy_a->AttachTo(&channel);
    phy_b->AttachTo(&channel);
    phy_a->set_position({0, 0});
    phy_b->set_position({5, 0});
    if (loss_at_b > 0) {
      phy_b->set_loss_model(
          std::make_unique<BernoulliLossModel>(loss_at_b, 0.0));
    }
    mac_a = std::make_unique<WifiMac>(&sched, phy_a.get(),
                                      MacAddress::ForStation(0), cfg,
                                      Random(11));
    mac_b = std::make_unique<WifiMac>(&sched, phy_b.get(),
                                      MacAddress::ForStation(1), cfg,
                                      Random(12));
    mac_b->on_rx_packet = [this](Packet p, MacAddress) {
      received_at_b.push_back(std::move(p));
    };
    mac_a->on_rx_packet = [this](Packet p, MacAddress) {
      received_at_a.push_back(std::move(p));
    };
  }

  Scheduler sched;
  WirelessChannel channel;
  std::unique_ptr<WifiPhy> phy_a, phy_b;
  std::unique_ptr<WifiMac> mac_a, mac_b;
  std::vector<Packet> received_at_a, received_at_b;
};

TEST(MacTest, SingleFrameDelivery80211a) {
  MacPair pair(WifiStandard::k80211a, 54);
  pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(5));
  ASSERT_EQ(pair.received_at_b.size(), 1u);
  EXPECT_EQ(pair.received_at_b[0].payload_bytes(), 1000u);
  EXPECT_EQ(pair.mac_a->stats().mpdus_delivered_first_try, 1u);
  EXPECT_EQ(pair.mac_b->stats().acks_sent, 1u);
}

TEST(MacTest, ManyFramesInOrder80211a) {
  MacPair pair(WifiStandard::k80211a, 54);
  for (uint32_t i = 0; i < 50; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(100 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(100));
  ASSERT_EQ(pair.received_at_b.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(pair.received_at_b[i].payload_bytes(), 100 + i);
  }
}

TEST(MacTest, RetriesRecoverLoss80211a) {
  MacPair pair(WifiStandard::k80211a, 54, /*loss_at_b=*/0.3);
  for (uint32_t i = 0; i < 50; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(500), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(500));
  // With a 0.3 loss rate and 7 retries, essentially everything arrives.
  EXPECT_EQ(pair.received_at_b.size(), 50u);
  EXPECT_GT(pair.mac_a->stats().mpdus_delivered_retried, 0u);
  EXPECT_GT(pair.mac_a->stats().response_timeouts, 0u);
  // No duplicate deliveries despite retransmissions.
  EXPECT_EQ(pair.mac_b->stats().data_mpdus_received -
                pair.mac_b->stats().duplicate_mpdus_discarded,
            50u);
}

TEST(MacTest, AmpduAggregates80211n) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 42; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(pair.received_at_b.size(), 42u);
  // All 42 should fit one A-MPDU: a single PPDU and a single Block ACK.
  EXPECT_EQ(pair.mac_a->stats().ppdus_sent, 1u);
  EXPECT_EQ(pair.mac_b->stats().block_acks_sent, 1u);
}

TEST(MacTest, AmpduRespects64MpduLimitForSmallFrames) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 100; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(40), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(pair.received_at_b.size(), 100u);
  // 64-MPDU cap: at least two PPDUs needed.
  EXPECT_GE(pair.mac_a->stats().ppdus_sent, 2u);
}

TEST(MacTest, TxopLimitsAmpduAtLowRates) {
  // At 15 Mbps a 1460 B MPDU lasts ~840 us: only ~4 fit in a 4 ms TXOP.
  MacPair pair(WifiStandard::k80211n, 15);
  for (uint32_t i = 0; i < 12; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(50));
  EXPECT_EQ(pair.received_at_b.size(), 12u);
  EXPECT_GE(pair.mac_a->stats().ppdus_sent, 3u);
}

TEST(MacTest, PartialAmpduLossRetransmitsOnlyMissing) {
  MacPair pair(WifiStandard::k80211n, 150, /*loss_at_b=*/0.2);
  for (uint32_t i = 0; i < 42; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1000 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(200));
  ASSERT_EQ(pair.received_at_b.size(), 42u);
  // In-order delivery despite partial-batch losses (reorder buffer works).
  for (uint32_t i = 0; i < 42; ++i) {
    EXPECT_EQ(pair.received_at_b[i].payload_bytes(), 1000 + i);
  }
  EXPECT_GT(pair.mac_a->stats().mpdus_delivered_retried, 0u);
  uint64_t attempts = pair.mac_a->stats().mpdu_tx_attempts;
  // Selective retransmission: far fewer attempts than full-batch repeats.
  EXPECT_LT(attempts, 42u * 3);
}

TEST(MacTest, HeavyLossDropsAfterRetryLimit) {
  MacPair pair(WifiStandard::k80211n, 150, /*loss_at_b=*/0.95);
  for (uint32_t i = 0; i < 10; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Seconds(2));
  EXPECT_GT(pair.mac_a->stats().mpdus_dropped_retry_limit, 0u);
}

TEST(MacTest, QueueLimitDropsTail) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 200; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  }
  // Default per-dest limit is 126: the rest dropped at enqueue.
  EXPECT_EQ(pair.mac_a->stats().queue_drops, 200u - 126u);
}

TEST(MacTest, RemoveQueuedPullsMatchingPackets) {
  MacPair pair(WifiStandard::k80211n, 150);
  // Block the medium so nothing transmits while we manipulate the queue.
  Packet target = MakeUdpPacket(777);
  uint64_t uid = target.uid();
  pair.mac_a->Enqueue(MakeUdpPacket(1), MacAddress::ForStation(1));
  pair.mac_a->Enqueue(std::move(target), MacAddress::ForStation(1));
  pair.mac_a->Enqueue(MakeUdpPacket(3), MacAddress::ForStation(1));
  size_t removed = pair.mac_a->RemoveQueued(
      MacAddress::ForStation(1),
      [uid](const Packet& p) { return p.uid() == uid; });
  EXPECT_EQ(removed, 1u);
}

// Hook recorder for MORE DATA / SYNC observation.
class RecordingHooks : public HackHooks {
 public:
  void OnDataPpdu(MacAddress, bool aggregated, bool has_new, bool more_data,
                  bool sync) override {
    ppdus.push_back({aggregated, has_new, more_data, sync});
  }
  std::vector<uint8_t> BuildAckPayload(MacAddress) override {
    return payload_to_attach;
  }
  void OnAckPayload(MacAddress, std::span<const uint8_t> payload) override {
    received_payloads.emplace_back(payload.begin(), payload.end());
  }

  struct PpduInfo {
    bool aggregated;
    bool has_new;
    bool more_data;
    bool sync;
  };
  std::vector<PpduInfo> ppdus;
  std::vector<uint8_t> payload_to_attach;
  std::vector<std::vector<uint8_t>> received_payloads;
};

TEST(MacTest, MoreDataBitTracksQueueDepth) {
  MacPair pair(WifiStandard::k80211n, 150);
  RecordingHooks hooks;
  pair.mac_b->set_hack_hooks(&hooks);
  // 50 packets -> batch 1 of 42 (more data), batch 2 of 8 (no more data).
  for (uint32_t i = 0; i < 50; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(50));
  ASSERT_EQ(hooks.ppdus.size(), 2u);
  EXPECT_TRUE(hooks.ppdus[0].more_data);
  EXPECT_FALSE(hooks.ppdus[1].more_data);
  EXPECT_TRUE(hooks.ppdus[0].aggregated);
}

TEST(MacTest, MoreDataBitOnSingleMpdus) {
  MacPair pair(WifiStandard::k80211a, 54);
  RecordingHooks hooks;
  pair.mac_b->set_hack_hooks(&hooks);
  for (uint32_t i = 0; i < 3; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(100), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(10));
  ASSERT_EQ(hooks.ppdus.size(), 3u);
  EXPECT_TRUE(hooks.ppdus[0].more_data);
  EXPECT_TRUE(hooks.ppdus[1].more_data);
  EXPECT_FALSE(hooks.ppdus[2].more_data);
  EXPECT_FALSE(hooks.ppdus[0].aggregated);
  EXPECT_TRUE(hooks.ppdus[0].has_new);
}

TEST(MacTest, HackPayloadRidesBlockAck) {
  MacPair pair(WifiStandard::k80211n, 150);
  RecordingHooks client_hooks;
  RecordingHooks ap_hooks;
  pair.mac_b->set_hack_hooks(&client_hooks);
  pair.mac_a->set_hack_hooks(&ap_hooks);
  client_hooks.payload_to_attach = {0xDE, 0xAD, 0xBE, 0xEF};
  pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(10));
  ASSERT_EQ(ap_hooks.received_payloads.size(), 1u);
  EXPECT_EQ(ap_hooks.received_payloads[0],
            (std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_EQ(pair.mac_b->stats().hack_payloads_sent, 1u);
}

TEST(MacTest, HackPayloadRidesSingleAck80211a) {
  MacPair pair(WifiStandard::k80211a, 54);
  RecordingHooks client_hooks;
  RecordingHooks ap_hooks;
  pair.mac_b->set_hack_hooks(&client_hooks);
  pair.mac_a->set_hack_hooks(&ap_hooks);
  client_hooks.payload_to_attach = {1, 2, 3};
  pair.mac_a->Enqueue(MakeUdpPacket(100), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(10));
  ASSERT_EQ(ap_hooks.received_payloads.size(), 1u);
}

TEST(MacTest, SyncBitSetAfterBarGiveUp) {
  // Client fully deaf (data AND control 100% lost at B): the AP's batch
  // elicits no BA; BARs fail; after the BAR retry limit the AP gives up and
  // marks SYNC. Then we heal the channel and check the next batch carries
  // SYNC.
  MacPair pair(WifiStandard::k80211n, 150);
  pair.phy_b->set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  RecordingHooks hooks;
  pair.mac_b->set_hack_hooks(&hooks);
  pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(200));
  EXPECT_GT(pair.mac_a->stats().bars_sent, 0u);
  EXPECT_GT(pair.mac_a->stats().ba_agreement_give_ups, 0u);
  // Heal and send another packet: SYNC must be set on it.
  pair.phy_b->set_loss_model(nullptr);
  pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(400));
  ASSERT_FALSE(hooks.ppdus.empty());
  EXPECT_TRUE(hooks.ppdus.back().sync);
  EXPECT_GT(pair.mac_a->stats().batches_sent_with_sync, 0u);
  // The SYNC batch must also re-sync the reorder window: B's window was
  // still waiting on the dropped seq 0, and without the flush this (and
  // every following) in-window MPDU would be LL-acked but never delivered
  // upward. Pinned regression for the BAR give-up window-stall fix.
  EXPECT_EQ(pair.received_at_b.size(), 1u);
  // After the client's BA arrives, SYNC clears for subsequent batches.
  pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(600));
  EXPECT_FALSE(hooks.ppdus.back().sync);
  EXPECT_EQ(pair.received_at_b.size(), 2u);
}

TEST(MacTest, BidirectionalTrafficBothDeliver) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 30; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
    pair.mac_b->Enqueue(MakeTcpAckPacket(), MacAddress::ForStation(0));
  }
  pair.sched.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(pair.received_at_b.size(), 30u);
  EXPECT_EQ(pair.received_at_a.size(), 30u);
}

TEST(MacTest, TcpAckStatsAccounting) {
  MacPair pair(WifiStandard::k80211a, 54);
  pair.mac_b->Enqueue(MakeTcpAckPacket(), MacAddress::ForStation(0));
  pair.sched.RunUntil(SimTime::Millis(10));
  ASSERT_EQ(pair.received_at_a.size(), 1u);
  const MacStats& s = pair.mac_b->stats();
  EXPECT_EQ(s.tcp_ack_frames_sent, 1u);
  EXPECT_EQ(s.tcp_ack_bytes_sent, 52u);
  // Payload airtime: 52 B at 54 Mbps = 7.7 us (Table 3's per-ACK figure).
  EXPECT_NEAR(static_cast<double>(s.tcp_ack_payload_airtime_ns), 7703.0,
              10.0);
  EXPECT_GT(s.tcp_ack_channel_overhead_ns, 0);
  EXPECT_GT(s.tcp_ack_ll_ack_overhead_ns, 0);
}

TEST(MacTest, SequenceWrapWithSteadyFeedCrossesModulo) {
  // Steady feed below the queue limit so nothing drops: > 4096 MPDUs flow
  // through one TX state, forcing win_start/next_seq across the 12-bit
  // sequence modulo — the outstanding/reorder rings and received bitmap
  // must keep delivering exactly once, in order, across the wrap.
  MacPair pair(WifiStandard::k80211n, 150);
  constexpr uint32_t kPackets = 4300;
  uint32_t fed = 0;
  // Feed 40 packets per millisecond — below the drain rate at 150 Mbps for
  // 200-byte payloads, so the per-dest queue never overflows.
  std::function<void()> feed = [&]() {
    for (uint32_t i = 0; i < 40 && fed < kPackets; ++i, ++fed) {
      pair.mac_a->Enqueue(MakeUdpPacket(200), MacAddress::ForStation(1));
    }
    if (fed < kPackets) {
      pair.sched.ScheduleIn(SimTime::Millis(1), feed);
    }
  };
  feed();
  pair.sched.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(pair.mac_a->stats().queue_drops, 0u);
  EXPECT_EQ(pair.received_at_b.size(), kPackets);
}

TEST(MacTest, UnknownDestinationQueriesAreNoOps) {
  MacPair pair(WifiStandard::k80211n, 150);
  MacAddress stranger = MacAddress::ForStation(42);
  EXPECT_EQ(pair.mac_a->QueueDepth(stranger), 0u);
  EXPECT_EQ(pair.mac_a->RemoveQueued(stranger,
                                     [](const Packet&) { return true; }),
            0u);
}

TEST(MacTest, AssociatePreInternsWithoutCreatingWork) {
  MacPair pair(WifiStandard::k80211n, 150);
  pair.mac_a->Associate(MacAddress::ForStation(1));
  pair.mac_a->Associate(MacAddress::ForStation(9));
  EXPECT_EQ(pair.mac_a->station_count(), 2u);
  // Association alone must not schedule transmissions.
  pair.sched.RunUntil(SimTime::Millis(5));
  EXPECT_EQ(pair.mac_a->stats().ppdus_sent, 0u);
  // Traffic to an associated peer still flows.
  pair.mac_a->Enqueue(MakeUdpPacket(123), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(20));
  ASSERT_EQ(pair.received_at_b.size(), 1u);
  EXPECT_EQ(pair.mac_a->station_count(), 2u);
}

// A sender MAC restart at a small sequence number: the receiver's reorder
// window sits near the stream head, so the restarted peer's fresh seq 0
// lands in the duplicate-discard zone. Reassociation (the receiver's
// Associate toward the peer) must tear the stale window down so the new
// stream flows instead of blackholing.
TEST(MacTest, ReassociationAfterPeerRestartResetsRxWindow) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 100; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(200 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(50));
  ASSERT_EQ(pair.received_at_b.size(), 100u);

  // A's MAC "restarts": drop all state toward B, then re-associate both
  // ways (what the scenario layer does on an AP restart).
  pair.mac_a->Disassociate(MacAddress::ForStation(1));
  pair.mac_a->Associate(MacAddress::ForStation(1));
  pair.mac_b->Associate(MacAddress::ForStation(0));
  for (uint32_t i = 0; i < 50; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(500 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(100));
  // Everything after the restart is delivered in order from seq 0; no
  // hard-resync needed because reassociation already reset the window.
  ASSERT_EQ(pair.received_at_b.size(), 150u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(pair.received_at_b[100 + i].payload_bytes(), 500 + i);
  }
  EXPECT_EQ(pair.mac_b->stats().rx_window_resyncs, 0u);
  EXPECT_EQ(pair.mac_b->stats().duplicate_mpdus_discarded, 0u);
}

// The same restart *without* the receiver hearing about it, at a sequence
// number far past the window: the receiver must detect the impossible
// backward jump (> 4x the A-MPDU window) and hard-resync instead of
// discarding the restarted peer's stream as duplicates forever.
TEST(MacTest, SilentPeerRestartTriggersRxWindowResync) {
  MacPair pair(WifiStandard::k80211n, 150);
  // Paced batches: a single 300-deep burst would overflow the drop-tail
  // queue; what matters is only that B's window advances past 256.
  for (uint32_t batch = 0; batch < 6; ++batch) {
    for (uint32_t i = 0; i < 50; ++i) {
      pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
    }
    pair.sched.RunUntil(SimTime::Millis(20 * (batch + 1)));
  }
  ASSERT_EQ(pair.received_at_b.size(), 300u);

  // Silent restart: B keeps its reorder window at ~300 while A's fresh
  // TxState restarts the stream at seq 0 — 300 behind, far outside any
  // legitimate retransmission lag.
  pair.mac_a->Disassociate(MacAddress::ForStation(1));
  for (uint32_t i = 0; i < 50; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(700 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(200));
  ASSERT_EQ(pair.received_at_b.size(), 350u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(pair.received_at_b[300 + i].payload_bytes(), 700 + i);
  }
  EXPECT_EQ(pair.mac_b->stats().rx_window_resyncs, 1u);
}

// Disassociate returns the peer's dense id to the recycle pool; the next
// new peer takes it over. The recycled id must start from a clean TX seq
// ring and scoreboard — nothing of the departed station's stream may leak
// into the successor's.
TEST(MacTest, RecycledStationIdStartsWithFreshSeqState) {
  MacPair pair(WifiStandard::k80211n, 150);
  for (uint32_t i = 0; i < 100; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(50));
  ASSERT_EQ(pair.received_at_b.size(), 100u);
  ASSERT_EQ(pair.mac_a->station_count(), 1u);

  // B leaves and rejoins: the fresh association must take the recycled id
  // (station_count stays flat — the dense footprint tracks live members).
  pair.mac_a->Disassociate(MacAddress::ForStation(1));
  pair.mac_a->Associate(MacAddress::ForStation(1));
  EXPECT_EQ(pair.mac_a->station_count(), 1u);

  // The rejoined stream starts at seq 0 on the recycled id: B (fresh
  // window after its own reassociation) receives every frame exactly once,
  // which fails if the recycled TxState kept the old next-seq or a dirty
  // scoreboard held frames back.
  pair.mac_b->Associate(MacAddress::ForStation(0));
  for (uint32_t i = 0; i < 80; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(300 + i), MacAddress::ForStation(1));
  }
  pair.sched.RunUntil(SimTime::Millis(150));
  ASSERT_EQ(pair.received_at_b.size(), 180u);
  for (uint32_t i = 0; i < 80; ++i) {
    EXPECT_EQ(pair.received_at_b[100 + i].payload_bytes(), 300 + i);
  }
  EXPECT_EQ(pair.mac_b->stats().duplicate_mpdus_discarded, 0u);
  EXPECT_EQ(pair.mac_a->stats().mpdus_dropped_retry_limit, 0u);
}

// Passive PHY listener that records every decodable PPDU on the air —
// frame type and PHY rate — without ever transmitting. Used to pin
// over-the-air protocol properties (control-response rates, RTS/CTS
// sequencing) that the MACs' own counters can't see.
class SnifferListener : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu& ppdu, const std::vector<bool>&) override {
    frames.push_back({ppdu.first().type, ppdu.mode.rate_kbps,
                      ppdu.first().duration_field, ppdu.Duration()});
  }
  void OnRxCorrupted() override { ++corrupted; }
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}

  struct Seen {
    WifiFrameType type;
    uint32_t rate_kbps;
    SimTime duration_field;
    SimTime air_time;
  };
  std::vector<Seen> frames;
  int corrupted = 0;
};

// Two MACs plus a passive sniffer PHY on the same channel.
struct SniffedPair {
  explicit SniffedPair(WifiMacConfig cfg) : pair(WifiStandard::k80211n, 150) {
    // MacPair fixed the config; rebuild the MACs with the requested one.
    pair.mac_a = std::make_unique<WifiMac>(&pair.sched, pair.phy_a.get(),
                                           MacAddress::ForStation(0), cfg,
                                           Random(11));
    pair.mac_b = std::make_unique<WifiMac>(&pair.sched, pair.phy_b.get(),
                                           MacAddress::ForStation(1), cfg,
                                           Random(12));
    pair.mac_b->on_rx_packet = [this](Packet p, MacAddress) {
      pair.received_at_b.push_back(std::move(p));
    };
    sniffer_phy = std::make_unique<WifiPhy>(&pair.sched, Random(3));
    sniffer_phy->AttachTo(&pair.channel);
    sniffer_phy->set_position({0, 5});
    sniffer_phy->set_listener(&sniffer);
  }

  MacPair pair;
  std::unique_ptr<WifiPhy> sniffer_phy;
  SnifferListener sniffer;
};

TEST(MacRtsTest, ProtectedExchangeSequencesRtsCtsDataAck) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;
  SniffedPair s(cfg);

  s.pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  s.pair.sched.RunUntil(SimTime::Millis(10));

  ASSERT_EQ(s.pair.received_at_b.size(), 1u);
  EXPECT_EQ(s.pair.mac_a->stats().rts_sent, 1u);
  EXPECT_EQ(s.pair.mac_b->stats().cts_sent, 1u);
  EXPECT_EQ(s.pair.mac_a->stats().cts_timeouts, 0u);
  // Over the air: RTS, CTS, DATA, BA — in that order.
  std::vector<WifiFrameType> types;
  for (const auto& f : s.sniffer.frames) {
    types.push_back(f.type);
  }
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], WifiFrameType::kRts);
  EXPECT_EQ(types[1], WifiFrameType::kCts);
  EXPECT_EQ(types[2], WifiFrameType::kData);
  EXPECT_EQ(types[3], WifiFrameType::kBlockAck);
}

TEST(MacRtsTest, ThresholdBoundaryProtectsOnlyLargerPsdus) {
  // 802.11a single MPDU: PSDU = 26 (QoS hdr) + 8 (LLC) + packet + 4 (FCS).
  // A 1000-byte UDP payload gives a 1028 B datagram -> 1066 B PSDU.
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211a;
  cfg.data_mode = ModeForRate(Modes80211a(), 54);
  constexpr size_t kPsdu = 26 + 8 + (20 + 8 + 1000) + 4;
  {
    cfg.rts_threshold = kPsdu;  // "exceeds": equal size stays unprotected
    SniffedPair s(cfg);
    s.pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
    s.pair.sched.RunUntil(SimTime::Millis(10));
    ASSERT_EQ(s.pair.received_at_b.size(), 1u);
    EXPECT_EQ(s.pair.mac_a->stats().rts_sent, 0u);
  }
  {
    cfg.rts_threshold = kPsdu - 1;
    SniffedPair s(cfg);
    s.pair.mac_a->Enqueue(MakeUdpPacket(1000), MacAddress::ForStation(1));
    s.pair.sched.RunUntil(SimTime::Millis(10));
    ASSERT_EQ(s.pair.received_at_b.size(), 1u);
    EXPECT_EQ(s.pair.mac_a->stats().rts_sent, 1u);
  }
}

TEST(MacRtsTest, CtsTimeoutReentersBackoffThenBypassesAfterLimit) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;
  MacPair pair(WifiStandard::k80211n, 150);
  pair.mac_a = std::make_unique<WifiMac>(&pair.sched, pair.phy_a.get(),
                                         MacAddress::ForStation(0), cfg,
                                         Random(11));
  pair.mac_b = std::make_unique<WifiMac>(&pair.sched, pair.phy_b.get(),
                                         MacAddress::ForStation(1), cfg,
                                         Random(12));
  pair.mac_b->on_rx_packet = [&pair](Packet p, MacAddress) {
    pair.received_at_b.push_back(std::move(p));
  };
  // B hears nothing at all: every RTS times out. The RTS retry limit is 7,
  // so the 8th consecutive CTS timeout makes the next exchange go out
  // unprotected.
  pair.phy_b->set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  const MacStats& s = pair.mac_a->stats();
  while (s.rts_bypasses == 0 && pair.sched.Now() < SimTime::Millis(100) &&
         pair.sched.Run(1) > 0) {
  }
  EXPECT_EQ(s.rts_bypasses, 1u);
  EXPECT_EQ(s.cts_timeouts, 8u);
  EXPECT_EQ(s.rts_sent, 8u);
  pair.sched.RunUntil(SimTime::Millis(100));

  // Every CTS timeout re-entered backoff and re-contended: the RTS count
  // tracks the timeouts (plus bypass exchanges that also failed).
  EXPECT_GE(s.rts_sent, s.cts_timeouts);
  // The data itself never got through (the bypass exchange timed out on
  // its Block ACK instead, eventually dropping the MPDU via BAR give-up).
  EXPECT_TRUE(pair.received_at_b.empty());
  EXPECT_GT(s.response_timeouts, 0u);

  // Heal the channel: a fresh packet must deliver through a fully
  // protected exchange again (the bypass was one-shot).
  pair.phy_b->set_loss_model(nullptr);
  pair.mac_a->Enqueue(MakeUdpPacket(777), MacAddress::ForStation(1));
  pair.sched.RunUntil(SimTime::Millis(500));
  ASSERT_GE(pair.received_at_b.size(), 1u);
  EXPECT_EQ(pair.received_at_b.back().payload_bytes(), 777u);
  EXPECT_GT(pair.mac_b->stats().cts_sent, 0u);
}

// Pins the reservation arithmetic the NAV runs on: the RTS Duration must
// cover SIFS + CTS + SIFS + DATA + SIFS + BA exactly, the CTS must
// re-advertise the RTS reservation minus its own SIFS + airtime, and the
// data frame keeps its ordinary SIFS + response reservation.
TEST(MacRtsTest, RtsAndCtsDurationFieldsCoverTheExchange) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;
  SniffedPair s(cfg);
  s.pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  s.pair.sched.RunUntil(SimTime::Millis(10));

  ASSERT_EQ(s.sniffer.frames.size(), 4u);
  const auto& rts = s.sniffer.frames[0];
  const auto& cts = s.sniffer.frames[1];
  const auto& data = s.sniffer.frames[2];
  const auto& ba = s.sniffer.frames[3];
  ASSERT_EQ(rts.type, WifiFrameType::kRts);
  SimTime sifs = TimingsFor(WifiStandard::k80211n).sifs;
  EXPECT_EQ(rts.duration_field,
            sifs + cts.air_time + sifs + data.air_time + sifs + ba.air_time);
  EXPECT_EQ(cts.duration_field, rts.duration_field - sifs - cts.air_time);
  EXPECT_EQ(data.duration_field, sifs + ba.air_time);
}

// Virtual carrier sense at frame granularity, by injecting PPDUs straight
// into the MAC's listener interface: an overheard RTS sets the NAV; an RTS
// addressed to us inside that reservation is suppressed (no CTS); once the
// NAV-reset probe window passes in silence (the reserved exchange never
// started), the reservation is reclaimed and the next RTS is answered.
TEST(MacRtsTest, OverheardRtsSetsNavSuppressesCtsThenProbeReclaims) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiPhy phy(&sched, Random(1));
  phy.AttachTo(&channel);
  WifiMac mac(&sched, &phy, MacAddress::ForStation(2), cfg, Random(13));

  WifiMode rts_mode = ControlResponseMode(cfg.data_mode);
  auto make_rts = [&](uint32_t from, uint32_t to, SimTime duration) {
    Ppdu ppdu;
    ppdu.aggregated = false;
    ppdu.mode = rts_mode;
    WifiFrame rts;
    rts.type = WifiFrameType::kRts;
    rts.ta = MacAddress::ForStation(from);
    rts.ra = MacAddress::ForStation(to);
    rts.duration_field = duration;
    ppdu.mpdus.push_back(std::move(rts));
    return ppdu;
  };
  std::vector<bool> ok = {true};

  // t=0: overhear an RTS 0->1 reserving 500 us.
  mac.OnPpduReceived(make_rts(0, 1, SimTime::Micros(500)), ok);
  // t=20us: an RTS addressed to us, inside the reservation: suppressed.
  sched.RunUntil(SimTime::Micros(20));
  mac.OnPpduReceived(make_rts(3, 2, SimTime::Micros(200)), ok);
  EXPECT_EQ(mac.stats().rts_ignored_busy, 1u);
  sched.RunUntil(SimTime::Micros(150));
  EXPECT_EQ(mac.stats().cts_sent, 0u);
  // The probe window (2*SIFS + CTS + 2*slot ~ 78 us) passed with no PHY
  // activity: the dead reservation must read as reclaimed. (The default
  // coalesced probe resolves lazily — the effective NAV view collapses at
  // the deadline, and the nav_resets counter lands at the next state
  // read, here the RTS below.)
  EXPECT_LE(mac.nav_until(), SimTime::Micros(150));
  // ...so an RTS to us at t=150us (still inside the original 500 us
  // horizon) now gets its CTS.
  mac.OnPpduReceived(make_rts(3, 2, SimTime::Micros(200)), ok);
  EXPECT_EQ(mac.stats().nav_resets, 1u);
  sched.RunUntil(SimTime::Micros(400));
  EXPECT_EQ(mac.stats().rts_ignored_busy, 1u);
  EXPECT_EQ(mac.stats().cts_sent, 1u);
}

TEST(MacRtsTest, DeadRtsReservationIsReclaimedAcrossStations) {
  // A's RTS to (deaf) B reserves ~1 ms that no exchange will use. C
  // overhears and NAVs it; D (control-deaf, so never NAV-bound) keeps
  // offering protected traffic to C. The NAV-reset probe must reclaim the
  // dead reservation at C so D's handshake completes promptly instead of
  // C sitting silent until A's horizon.
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;

  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiPhy phy_a(&sched, Random(1));
  WifiPhy phy_b(&sched, Random(2));
  WifiPhy phy_c(&sched, Random(3));
  WifiPhy phy_d(&sched, Random(4));
  for (WifiPhy* phy : {&phy_a, &phy_b, &phy_c, &phy_d}) {
    phy->AttachTo(&channel);
  }
  phy_a.set_position({0, 0});
  phy_b.set_position({5, 0});
  phy_c.set_position({0, 5});
  phy_d.set_position({5, 5});
  // B hears nothing: A's RTS elicits no CTS — the reservation is dead air.
  phy_b.set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 1.0));
  // D loses control frames only (no NAV at D; its CTSes from C still count
  // at C).
  phy_d.set_loss_model(std::make_unique<BernoulliLossModel>(0.0, 1.0));
  WifiMac mac_a(&sched, &phy_a, MacAddress::ForStation(0), cfg, Random(11));
  WifiMac mac_b(&sched, &phy_b, MacAddress::ForStation(1), cfg, Random(12));
  WifiMac mac_c(&sched, &phy_c, MacAddress::ForStation(2), cfg, Random(13));
  WifiMac mac_d(&sched, &phy_d, MacAddress::ForStation(3), cfg, Random(14));

  // A: a ~10-MPDU protected batch toward B (reservation ~1 ms per RTS).
  for (int i = 0; i < 10; ++i) {
    mac_a.Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  }
  // D: steady protected offers toward C.
  for (int i = 0; i < 20; ++i) {
    sched.ScheduleIn(SimTime::Micros(60) + SimTime::Millis(2) * i, [&]() {
      mac_d.Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(2));
    });
  }
  sched.RunUntil(SimTime::Millis(50));

  EXPECT_GT(mac_a.stats().rts_sent, 0u);
  EXPECT_GT(mac_d.stats().rts_sent, 0u);
  EXPECT_GT(mac_c.stats().nav_resets, 0u)
      << "dead RTS reservations must be reclaimed";
  EXPECT_GT(mac_c.stats().cts_sent, 0u);
}

// The SYNC flush target must survive a corrupted lead subframe: it rides
// sync_start_seq on every MPDU, so losing the batch's first MPDU must not
// overshoot the window (which would falsely ack — and silently drop — the
// lost MPDU). Injected directly so the corruption pattern is exact.
TEST(MacRtsTest, SyncFlushWithCorruptedLeadDoesNotOvershoot) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiPhy phy(&sched, Random(1));
  phy.AttachTo(&channel);
  WifiMac mac(&sched, &phy, MacAddress::ForStation(1), cfg, Random(12));
  std::vector<uint32_t> delivered;
  mac.on_rx_packet = [&](Packet p, MacAddress) {
    delivered.push_back(p.payload_bytes());
  };

  // The receiver's window sits at 0 (stale: seqs 0..9 were dropped by the
  // originator's give-up). A SYNC batch {seq 10, seq 11} arrives with the
  // lead MPDU corrupted.
  auto make_sync_batch = [&](std::vector<uint16_t> seqs) {
    Ppdu ppdu;
    ppdu.aggregated = true;
    ppdu.mode = cfg.data_mode;
    for (uint16_t seq : seqs) {
      WifiFrame f;
      f.type = WifiFrameType::kData;
      f.ta = MacAddress::ForStation(0);
      f.ra = MacAddress::ForStation(1);
      f.seq = seq;
      f.sync = true;
      f.sync_start_seq = 10;
      f.packet = MakeUdpPacket(1000 + seq);
      ppdu.mpdus.push_back(std::move(f));
    }
    return ppdu;
  };
  std::vector<bool> lead_lost = {false, true};
  mac.OnPpduReceived(make_sync_batch({10, 11}), lead_lost);
  // Window flushed to 10 (the advertised start), not 11: seq 11 is
  // buffered, waiting for the retransmission of 10.
  EXPECT_TRUE(delivered.empty());
  // Retransmission arrives intact: both deliver, in order, exactly once.
  std::vector<bool> both_ok = {true, true};
  mac.OnPpduReceived(make_sync_batch({10, 11}), both_ok);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 1010u);
  EXPECT_EQ(delivered[1], 1011u);
}

// Pinned regression for the BAR control-response fix: a Block ACK elicited
// by a BAR must come back at the control-response rate of the BAR as
// received (12 Mbps for 15 Mbps data), not at a hardcoded 24 Mbps.
TEST(MacRtsTest, BarElicitsBlockAckAtBarsOwnControlRate) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 15);
  SniffedPair s(cfg);
  // A cannot hear control responses: the first Block ACK is lost, A
  // recovers via BAR. (Data toward B flows clean.)
  s.pair.phy_a->set_loss_model(
      std::make_unique<BernoulliLossModel>(0.0, 1.0));
  s.pair.mac_a->Enqueue(MakeUdpPacket(1460), MacAddress::ForStation(1));
  s.pair.sched.RunUntil(SimTime::Millis(50));

  ASSERT_GT(s.pair.mac_a->stats().bars_sent, 0u);
  int bars = 0;
  int block_acks = 0;
  for (const auto& f : s.sniffer.frames) {
    if (f.type == WifiFrameType::kBlockAckReq) {
      ++bars;
      EXPECT_EQ(f.rate_kbps, 12000u) << "BAR at the 15 Mbps control rate";
    }
    if (f.type == WifiFrameType::kBlockAck) {
      ++block_acks;
      EXPECT_EQ(f.rate_kbps, 12000u)
          << "BA must answer at the BAR's control-response rate, not 24M";
    }
  }
  EXPECT_GT(bars, 0);
  EXPECT_GT(block_acks, 1) << "both the batch BA and the BAR-elicited BA";
}

TEST(MacTest, ContendersEventuallyCollideAndRecover) {
  // Both stations saturated: backoff collisions must occur, but everything
  // is eventually delivered exactly once.
  MacPair pair(WifiStandard::k80211a, 54);
  for (uint32_t i = 0; i < 100; ++i) {
    pair.mac_a->Enqueue(MakeUdpPacket(800, 9), MacAddress::ForStation(1));
    pair.mac_b->Enqueue(MakeUdpPacket(800, 10), MacAddress::ForStation(0));
  }
  pair.sched.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(pair.received_at_b.size(), 100u);
  EXPECT_EQ(pair.received_at_a.size(), 100u);
  uint64_t timeouts = pair.mac_a->stats().response_timeouts +
                      pair.mac_b->stats().response_timeouts;
  EXPECT_GT(timeouts, 0u) << "saturated contenders should collide sometimes";
}

// Drives a legacy-probe MAC (one armed scheduler event per overheard RTS)
// and a default coalesced-probe MAC through the same scripted overhearer
// trace — decoded RTSes, raw CCA edges, a not-for-us data frame — and
// demands the same effective NAV view at every checkpoint plus identical
// stats at the end.
// This pick-for-pick contract is what lets the coalesced form be the
// default: same reclaim decisions, at the same instants, from zero events.
TEST(MacRtsTest, CoalescedProbeMatchesLegacyPickForPick) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = 500;
  WifiMacConfig legacy_cfg = cfg;
  legacy_cfg.legacy_nav_probe_events = true;

  Scheduler sched;
  // Separate channels: the scripted CCA edges below are injected directly
  // into each MAC and must not leak between the two stacks.
  WirelessChannel chan_l(&sched);
  WirelessChannel chan_c(&sched);
  WifiPhy phy_l(&sched, Random(1));
  WifiPhy phy_c(&sched, Random(1));
  phy_l.AttachTo(&chan_l);
  phy_c.AttachTo(&chan_c);
  WifiMac legacy(&sched, &phy_l, MacAddress::ForStation(9), legacy_cfg,
                 Random(7));
  WifiMac coalesced(&sched, &phy_c, MacAddress::ForStation(9), cfg,
                    Random(7));

  WifiMode rts_mode = ControlResponseMode(cfg.data_mode);
  auto make_frame = [&](WifiFrameType type, uint32_t from, uint32_t to,
                        SimTime duration) {
    Ppdu ppdu;
    ppdu.aggregated = false;
    ppdu.mode = rts_mode;
    WifiFrame f;
    f.type = type;
    f.ta = MacAddress::ForStation(from);
    f.ra = MacAddress::ForStation(to);
    f.duration_field = duration;
    ppdu.mpdus.push_back(std::move(f));
    return ppdu;
  };
  std::vector<bool> ok = {true};
  auto inject = [&](const Ppdu& p) {
    legacy.OnPpduReceived(p, ok);
    coalesced.OnPpduReceived(p, ok);
  };
  auto cca_pulse = [&]() {
    legacy.OnCcaBusy();
    coalesced.OnCcaBusy();
    legacy.OnCcaIdle();
    coalesced.OnCcaIdle();
  };
  auto check = [&](const char* what) {
    EXPECT_EQ(legacy.nav_until().ns(), coalesced.nav_until().ns()) << what;
    EXPECT_EQ(legacy.stats().nav_resets, coalesced.stats().nav_resets)
        << what;
  };

  // Phase 1 — activity confirms: a CCA pulse inside the probe window means
  // the reserved exchange is happening; NAV stands to the full horizon.
  inject(make_frame(WifiFrameType::kRts, 0, 1, SimTime::Micros(500)));
  sched.RunUntil(SimTime::Micros(30));
  cca_pulse();
  sched.RunUntil(SimTime::Micros(120));  // past the ~78 us probe deadline
  check("activity inside the window must confirm the reservation");
  EXPECT_EQ(coalesced.nav_until(), SimTime::Micros(500));
  sched.RunUntil(SimTime::Micros(600));
  check("NAV expired naturally");

  // Phase 2 — dead reservation: the window passes in silence, both reclaim
  // at the deadline (the coalesced one delivers the verdict at the next
  // state read; nav_until() reports the deadline either way).
  sched.RunUntil(SimTime::Millis(1));
  inject(make_frame(WifiFrameType::kRts, 0, 1, SimTime::Micros(400)));
  sched.RunUntil(SimTime::Millis(1) + SimTime::Micros(150));
  check("dead reservation reclaimed at the probe deadline");
  EXPECT_EQ(coalesced.stats().nav_resets, 1u);
  EXPECT_LT(coalesced.nav_until(), SimTime::Millis(1) + SimTime::Micros(100));

  // Phase 3 — NAV moved on: a later not-for-us data frame extends the NAV
  // past the RTS horizon. The probe (armed or provisional) reserved a
  // different value and must not reclaim what it does not own.
  sched.RunUntil(SimTime::Millis(2));
  inject(make_frame(WifiFrameType::kRts, 0, 1, SimTime::Micros(300)));
  sched.RunUntil(SimTime::Millis(2) + SimTime::Micros(40));
  inject(make_frame(WifiFrameType::kData, 3, 4, SimTime::Micros(600)));
  sched.RunUntil(SimTime::Millis(2) + SimTime::Micros(200));
  check("probe must not reclaim a NAV another frame moved");
  EXPECT_EQ(coalesced.nav_until(),
            SimTime::Millis(2) + SimTime::Micros(640));
  EXPECT_EQ(coalesced.stats().nav_resets, 1u);
  sched.RunUntil(SimTime::Millis(3));

  EXPECT_TRUE(legacy.stats() == coalesced.stats())
      << "full stats must match after the scripted trace";
}

// --- Recovery branches ---------------------------------------------------------
// A peer removed mid-exchange, the 802.11a single-MPDU retry limit, and
// radio resets inside a SIFS gap. Each test pins exact counters, then has
// the MAC serve another peer.

// Originator A (station 0) and peers B (1) and C (2), all in range on a
// clean channel, plus a passive sniffer that marks the instants a test acts
// at.
struct MacTrio {
  explicit MacTrio(const WifiMacConfig& cfg) : channel(&sched) {
    for (uint32_t i = 0; i < 3; ++i) {
      phy[i] = std::make_unique<WifiPhy>(&sched, Random(i + 1));
      phy[i]->AttachTo(&channel);
      phy[i]->set_position({5.0 * i, 0});
      mac[i] = std::make_unique<WifiMac>(&sched, phy[i].get(),
                                         MacAddress::ForStation(i), cfg,
                                         Random(11 + i));
      mac[i]->on_rx_packet = [this, i](Packet p, MacAddress) {
        received[i].push_back(std::move(p));
      };
    }
    sniffer_phy = std::make_unique<WifiPhy>(&sched, Random(9));
    sniffer_phy->AttachTo(&channel);
    sniffer_phy->set_position({0, 5});
    sniffer_phy->set_listener(&sniffer);
  }

  // Runs one event at a time until `done()` holds; false if it never does
  // within 10 ms.
  template <typename F>
  bool StepUntil(F done) {
    while (!done() && sched.Now() < SimTime::Millis(10) && sched.Run(1) > 0) {
    }
    return done();
  }

  void RunFor(SimTime d) { sched.RunUntil(sched.Now() + d); }

  // Power-cycles station i's radio the way the fault engine's reset does.
  void ResetRadio(uint32_t i) {
    phy[i]->SetRadioOn(false);
    mac[i]->ResetRadioState();
    phy[i]->SetRadioOn(true);
  }

  Scheduler sched;
  WirelessChannel channel;
  std::array<std::unique_ptr<WifiPhy>, 3> phy;
  std::array<std::unique_ptr<WifiMac>, 3> mac;
  std::array<std::vector<Packet>, 3> received;
  std::unique_ptr<WifiPhy> sniffer_phy;
  SnifferListener sniffer;
};

constexpr MacAddress kPeerB = MacAddress::ForStation(1);
constexpr MacAddress kPeerC = MacAddress::ForStation(2);

WifiMacConfig Mac11nConfig(size_t rts_threshold) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211n;
  cfg.data_mode = ModeForRate(Modes80211n(), 150);
  cfg.rts_threshold = rts_threshold;
  return cfg;
}

TEST(MacRecoveryTest, PeerLeavingWhileRtsAwaitsCtsAbandonsExchange) {
  MacTrio t(Mac11nConfig(/*rts_threshold=*/500));
  const MacStats& a = t.mac[0]->stats();
  t.mac[0]->Enqueue(MakeUdpPacket(1460), kPeerB);
  // B's CTS is on the air, so A's RTS went out and A awaits the CTS.
  ASSERT_TRUE(t.StepUntil([&] { return t.mac[1]->stats().cts_sent == 1; }));
  t.mac[0]->Disassociate(kPeerB);
  t.RunFor(SimTime::Millis(1));
  // A ignores the departed peer's CTS; the CTS timeout ends the exchange.
  EXPECT_EQ(a.rts_sent, 1u);
  EXPECT_EQ(a.cts_timeouts, 1u);
  EXPECT_EQ(a.disassociation_flushes, 1u);
  EXPECT_EQ(a.ppdus_sent, 0u);
  EXPECT_FALSE(t.mac[0]->HasBacklog());

  t.mac[0]->Enqueue(MakeUdpPacket(1460), kPeerC);
  t.RunFor(SimTime::Millis(10));
  ASSERT_EQ(t.received[2].size(), 1u);
  EXPECT_TRUE(t.received[1].empty());
  EXPECT_EQ(a.rts_sent, 2u);
  EXPECT_EQ(a.cts_timeouts, 1u);
  EXPECT_EQ(a.ppdus_sent, 1u);
  EXPECT_EQ(a.mpdus_delivered_first_try, 1u);
}

TEST(MacRecoveryTest, PeerLeavingBeforeItsResponseArrivesEndsExchange) {
  MacTrio t(Mac11nConfig(/*rts_threshold=*/500));
  const MacStats& a = t.mac[0]->stats();
  // 100 B stays below the RTS threshold: the data goes out unprotected.
  t.mac[0]->Enqueue(MakeUdpPacket(100), kPeerB);
  // B decoded the data and holds its Block ACK in the SIFS gap.
  ASSERT_TRUE(t.StepUntil(
      [&] { return t.mac[1]->stats().data_mpdus_received == 1; }));
  t.mac[0]->Disassociate(kPeerB);
  t.RunFor(SimTime::Millis(1));
  // The Block ACK ends the exchange; it releases nothing, because the
  // departed peer's state is gone.
  EXPECT_EQ(t.mac[1]->stats().block_acks_sent, 1u);
  EXPECT_EQ(a.response_timeouts, 0u);
  EXPECT_EQ(a.disassociation_flushes, 1u);
  EXPECT_EQ(a.mpdus_delivered_first_try, 0u);
  EXPECT_FALSE(t.mac[0]->HasBacklog());

  // 1460 B to C goes out behind an RTS/CTS.
  t.mac[0]->Enqueue(MakeUdpPacket(1460), kPeerC);
  t.RunFor(SimTime::Millis(10));
  ASSERT_EQ(t.received[2].size(), 1u);
  EXPECT_EQ(a.rts_sent, 1u);
  EXPECT_EQ(a.cts_timeouts, 0u);
  EXPECT_EQ(a.response_timeouts, 0u);
  EXPECT_EQ(a.mpdus_delivered_first_try, 1u);
}

TEST(MacRecoveryTest, SingleMpduDropsAtRetryLimit80211a) {
  WifiMacConfig cfg;
  cfg.standard = WifiStandard::k80211a;
  cfg.data_mode = ModeForRate(Modes80211a(), 54);
  MacTrio t(cfg);
  const MacStats& a = t.mac[0]->stats();
  // B decodes no data frame: every attempt times out.
  t.phy[1]->set_loss_model(std::make_unique<BernoulliLossModel>(1.0, 0.0));
  t.mac[0]->Enqueue(MakeUdpPacket(1000), kPeerB);
  t.RunFor(SimTime::Millis(100));
  // The first attempt plus the 7 retries the limit allows, then a drop.
  EXPECT_EQ(a.mpdu_tx_attempts, 8u);
  EXPECT_EQ(a.response_timeouts, 8u);
  EXPECT_EQ(a.mpdus_dropped_retry_limit, 1u);
  EXPECT_FALSE(t.mac[0]->HasBacklog());

  t.mac[0]->Enqueue(MakeUdpPacket(1000), kPeerC);
  t.RunFor(SimTime::Millis(10));
  ASSERT_EQ(t.received[2].size(), 1u);
  EXPECT_TRUE(t.received[1].empty());
  EXPECT_EQ(a.mpdu_tx_attempts, 9u);
  EXPECT_EQ(a.mpdus_delivered_first_try, 1u);
  EXPECT_EQ(a.mpdus_dropped_retry_limit, 1u);
}

TEST(MacRecoveryTest, ResetDuringSifsResponseGapStrandsTheResponse) {
  MacTrio t(Mac11nConfig(/*rts_threshold=*/0));
  const MacStats& b = t.mac[1]->stats();
  t.mac[0]->Enqueue(MakeUdpPacket(1000), kPeerB);
  // B decoded A's data; its Block ACK waits out SIFS.
  ASSERT_TRUE(t.StepUntil([&] { return b.data_mpdus_received == 1; }));
  t.ResetRadio(1);
  t.RunFor(SimTime::Micros(20));
  // The response died with the reset.
  EXPECT_EQ(b.block_acks_sent, 0u);
  EXPECT_EQ(t.sniffer.frames.size(), 1u);

  // The reset MAC serves C.
  t.mac[1]->Enqueue(MakeUdpPacket(1000), kPeerC);
  t.RunFor(SimTime::Millis(10));
  ASSERT_EQ(t.received[2].size(), 1u);
  EXPECT_EQ(b.ppdus_sent, 1u);
  EXPECT_EQ(b.mpdus_delivered_first_try, 1u);
  EXPECT_EQ(b.response_timeouts, 0u);
  EXPECT_EQ(t.mac[0]->stats().response_timeouts, 1u);
}

TEST(MacRecoveryTest, ResetBetweenCtsAndDataStrandsTheDataHop) {
  MacTrio t(Mac11nConfig(/*rts_threshold=*/500));
  const MacStats& a = t.mac[0]->stats();
  t.mac[0]->Enqueue(MakeUdpPacket(1460), kPeerB);
  // The sniffer (farther from B than A is) decoded B's CTS, so A did too:
  // A's data PPDU waits out SIFS.
  ASSERT_TRUE(t.StepUntil([&] { return t.sniffer.frames.size() == 2; }));
  ASSERT_EQ(t.sniffer.frames[1].type, WifiFrameType::kCts);
  t.ResetRadio(0);
  t.RunFor(SimTime::Millis(1));
  // No data PPDU followed the CTS.
  EXPECT_EQ(t.sniffer.frames.size(), 2u);
  EXPECT_EQ(a.rts_sent, 1u);
  EXPECT_EQ(a.cts_timeouts, 0u);
  EXPECT_EQ(a.ppdus_sent, 0u);
  EXPECT_TRUE(t.received[1].empty());

  t.mac[0]->Enqueue(MakeUdpPacket(1460), kPeerC);
  t.RunFor(SimTime::Millis(10));
  ASSERT_EQ(t.received[2].size(), 1u);
  EXPECT_TRUE(t.received[1].empty());
  EXPECT_EQ(a.rts_sent, 2u);
  EXPECT_EQ(a.ppdus_sent, 1u);
  EXPECT_EQ(a.mpdus_delivered_first_try, 1u);
}

}  // namespace
}  // namespace hacksim
