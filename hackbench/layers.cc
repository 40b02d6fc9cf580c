#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "src/hack/hack_agent.h"
#include "src/node/wifi_net_device.h"
#include "src/packet/packet.h"
#include "src/rohc/compressed_ack.h"
#include "src/rohc/rohc.h"
#include "src/sim/scheduler.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/util/logging.h"

namespace hackbench {

using namespace hacksim;

std::vector<double> Tracer::SelfTimes(std::string_view name) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
      out.push_back((self - overhead_ns_) / s.units);
    }
  }
  return out;
}

uint64_t Tracer::Calls(std::string_view name) const {
  uint64_t calls = 0;
  for (const Span& s : spans_) {
    calls += name == s.name ? s.units : 0;
  }
  return calls;
}

namespace {

double Percentile(std::vector<double> v, double q) {
  CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.5);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

}  // namespace

void Tracer::Calibrate(int samples) {
  overhead_ns_ = 0.0;
  for (int i = 0; i < samples; ++i) {
    End(Begin("trace.empty"));
  }
  overhead_ns_ = Median(SelfTimes("trace.empty"));
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tparent\tname\tunits\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%u\t%lld\t%lld\n", i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.name, s.units, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

// Keeps bench results observable so the optimiser cannot drop the calls.
volatile uint64_t g_sink = 0;

const Ipv4Address kServerIp = Ipv4Address::FromOctets(10, 0, 0, 1);
const Ipv4Address kClientIp = Ipv4Address::FromOctets(10, 0, 2, 1);
constexpr uint16_t kServerPort = 5000;
constexpr uint16_t kClientPort = 6000;
constexpr uint32_t kMss = 1460;
// Delayed ACKs (one per two segments) over a full 42-MPDU A-MPDU: the ACKs
// one Block ACK carries in the paper cell.
constexpr int kAcksPerBlockAck = 21;
constexpr int kMpdusPerAmpdu = 42;
// Calls per span for the cheapest entry points.
constexpr int kBatch = 64;

Packet DataSegment(uint32_t seq) {
  TcpHeader tcp;
  tcp.src_port = kServerPort;
  tcp.dst_port = kClientPort;
  tcp.seq = seq;
  tcp.flag_ack = true;
  tcp.window = 1000;
  tcp.timestamps = TcpTimestamps{10, 20};
  return Packet::MakeTcp(kServerIp, kClientIp, tcp, kMss);
}

// The client's pure TCP ACK number `i` of a flow advancing two segments per
// ACK, with a millisecond timestamp clock ticking every eight ACKs.
Packet PureAck(uint32_t i) {
  TcpHeader tcp;
  tcp.src_port = kClientPort;
  tcp.dst_port = kServerPort;
  tcp.seq = 1;
  tcp.ack = 1 + i * 2 * kMss;
  tcp.flag_ack = true;
  tcp.window = 2048;
  tcp.timestamps = TcpTimestamps{100 + i / 8, 200 + i / 8};
  return Packet::MakeTcp(kClientIp, kServerIp, tcp, 0);
}

WifiMode DataMode() { return ModeForRate(Modes80211n(), 150.0); }

Ppdu BlockAckPpdu(MacAddress ta, MacAddress ra) {
  Ppdu ppdu;
  ppdu.mode = ControlResponseMode(DataMode());
  WifiFrame f;
  f.type = WifiFrameType::kBlockAck;
  f.ta = ta;
  f.ra = ra;
  f.ba = BlockAckInfo{};
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

// A data PPDU from `ta` to `ra`: one full-size UDP datagram, or an A-MPDU
// of `mpdus` TCP segments. Its Duration field reserves the medium for the
// Block ACK, as a real data frame's does.
Ppdu DataPpdu(MacAddress ta, MacAddress ra, int mpdus) {
  Ppdu ppdu;
  ppdu.mode = DataMode();
  ppdu.aggregated = true;
  SimTime reserve =
      TimingsFor(WifiStandard::k80211n).sifs + BlockAckPpdu(ra, ta).Duration();
  for (int i = 0; i < mpdus; ++i) {
    WifiFrame f;
    f.type = WifiFrameType::kData;
    f.ta = ta;
    f.ra = ra;
    f.seq = static_cast<uint16_t>(i);
    f.duration_field = reserve;
    f.packet = mpdus == 1 ? Packet::MakeUdp(kClientIp, kServerIp, kClientPort,
                                            kServerPort, 1472)
                          : DataSegment(1 + static_cast<uint32_t>(i) * kMss);
    ppdu.mpdus.push_back(std::move(f));
  }
  return ppdu;
}

class StubListener final : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {}
  void OnRxCorrupted() override {}
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}
};

// --- sim --------------------------------------------------------------------
// One call: arm the next event, re-arm one of `armed` standing timers (the
// DCF/transport re-arm pattern: Cancel + ScheduleAt), and RunUntil the
// event's time, which fires exactly that event. The standing timers sit
// beyond the re-arm window, so they never fire. kBatch calls per span.
void SimBench(Tracer& t, int armed, int spans) {
  Scheduler s;
  const int64_t horizon_ns = 2'000 * int64_t{armed} + 1'000'000;
  auto standing = [horizon_ns](SimTime now, int k) {
    return now + SimTime::Nanos(horizon_ns + (int64_t{k} * 7919) % horizon_ns);
  };
  std::vector<EventId> timers(static_cast<size_t>(armed));
  for (int k = 0; k < armed; ++k) {
    timers[static_cast<size_t>(k)] = s.ScheduleAt(standing(s.Now(), k), [] {});
  }
  uint32_t root = t.Begin("bench.sim");
  size_t k = 0;
  for (int c = 0; c < spans; ++c) {
    uint32_t id = t.Begin("sim.event", kBatch);
    for (int b = 0; b < kBatch; ++b) {
      SimTime now = s.Now();
      SimTime fire = now + SimTime::Micros(1);
      s.ScheduleAt(fire, [] {});
      s.Cancel(timers[k]);
      timers[k] = s.ScheduleAt(standing(now, static_cast<int>(k)), [] {});
      s.RunUntil(fire);
      k = k + 1 == timers.size() ? 0 : k + 1;
    }
    t.End(id);
  }
  t.End(root);
  CHECK_EQ(s.events_executed(), static_cast<uint64_t>(spans) * kBatch);
}

// --- packet -----------------------------------------------------------------
// One call: build a data segment, copy it (the MAC retransmission copy),
// release both. kBatch calls per span.
void PacketBench(Tracer& t, int spans) {
  TcpHeader tcp;
  tcp.src_port = kServerPort;
  tcp.dst_port = kClientPort;
  tcp.flag_ack = true;
  uint32_t root = t.Begin("bench.packet");
  for (int c = 0; c < spans; ++c) {
    uint32_t id = t.Begin("packet.tcp_packet", kBatch);
    for (int b = 0; b < kBatch; ++b) {
      tcp.seq += kMss;
      tcp.timestamps = TcpTimestamps{tcp.seq, 0};
      Packet p = Packet::MakeTcp(kServerIp, kClientIp, tcp, kMss);
      Packet copy = p;
      g_sink = g_sink + copy.uid();
    }
    t.End(id);
  }
  t.End(root);
}

// --- phy80211 ---------------------------------------------------------------
// Radios at `positions` with stub listeners; radio 0 transmits.
struct PhyCell {
  PhyCell(const std::vector<Position>& positions, bool geometric)
      : channel(&sched) {
    for (size_t i = 0; i < positions.size(); ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(1000 + i)));
      phys.back()->set_position(positions[i]);
      phys.back()->set_listener(&stub);
      phys.back()->AttachTo(&channel);
    }
    if (geometric) {
      channel.set_propagation(std::make_unique<LogDistancePropagation>());
    }
  }
  Scheduler sched;
  WirelessChannel channel;
  StubListener stub;
  std::vector<std::unique_ptr<WifiPhy>> phys;
};

// Sends `ppdu` from `sender` and runs the scheduler past its last arrival
// edge (1 us covers the propagation delay across any cell here, and stays
// below DIFS, so no DCF grant can fire inside the call).
void SendOne(Tracer& t, const char* span, Scheduler& sched, WifiPhy& sender,
             const Ppdu& ppdu) {
  Ppdu copy = ppdu;
  SimTime end = sched.Now() + ppdu.Duration() + SimTime::Micros(1);
  uint32_t id = t.Begin(span);
  CHECK(sender.Send(std::move(copy)));
  sched.RunUntil(end);
  t.End(id);
}

// Returns the arrivals each call delivered (receivers within energy-detect
// range of the sender).
std::vector<double> PhyBench(Tracer& t, const char* span,
                              const std::vector<Position>& positions,
                              bool geometric, const Ppdu& ppdu, int calls) {
  PhyCell cell(positions, geometric);
  std::vector<double> arrivals;
  uint32_t root = t.Begin("bench.phy80211");
  for (int c = 0; c < calls; ++c) {
    uint64_t pruned = cell.channel.airtime().out_of_range;
    SendOne(t, span, cell.sched, *cell.phys[0], ppdu);
    pruned = cell.channel.airtime().out_of_range - pruned;
    arrivals.push_back(static_cast<double>(positions.size() - 1 - pruned));
  }
  t.End(root);
  return arrivals;
}

// --- mac80211 ---------------------------------------------------------------
// One call: `stations` backlogged devices overhear one data PPDU addressed
// to nobody in the cell. The sender is a bare PHY at the AP's position, so
// the only MAC work is the bystanders'.
void BystanderBench(Tracer& t, const Workload& w,
                     const std::vector<Position>& positions, int calls) {
  Scheduler sched;
  WirelessChannel channel(&sched);
  StubListener stub;
  WifiPhy sender(&sched, Random(1));
  sender.set_position(positions[0]);
  sender.set_listener(&stub);
  sender.AttachTo(&channel);
  WifiMacConfig cfg = ClientMacConfig(w);
  std::vector<std::unique_ptr<WifiNetDevice>> devices;
  MacAddress ap = MacAddress::ForStation(0);
  for (size_t i = 1; i < positions.size(); ++i) {
    devices.push_back(std::make_unique<WifiNetDevice>(
        &sched, &channel, MacAddress::ForStation(static_cast<uint32_t>(i)),
        cfg, Random(2000 + i)));
    devices.back()->phy().set_position(positions[i]);
    devices.back()->mac().Associate(ap);
  }
  if (Geometric(w)) {
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
  }
  for (auto& d : devices) {
    d->mac().Enqueue(Packet::MakeUdp(kClientIp, kServerIp, kClientPort,
                                     kServerPort, 1472),
                     ap);
  }
  uint32_t n = static_cast<uint32_t>(positions.size());
  Ppdu ppdu = DataPpdu(MacAddress::ForStation(n + 100),
                       MacAddress::ForStation(n + 101), 1);
  uint32_t root = t.Begin("bench.mac80211.bystander");
  for (int c = 0; c < calls; ++c) {
    SendOne(t, "mac80211.bystander_ppdu", sched, sender, ppdu);
  }
  t.End(root);
  // Every PPDU on the air was the bench's: no bystander won access.
  CHECK_EQ(channel.airtime().ppdus, static_cast<uint64_t>(calls));
}

// One call: the AP enqueues one A-MPDU's worth of data segments for a
// station and the pair runs the exchange through its Block ACK. Returns
// the PPDUs each call put on the air.
std::vector<double> ExchangeBench(Tracer& t, const Workload& w,
                                   const std::vector<Position>& pair,
                                   int calls) {
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiMacConfig cfg = ClientMacConfig(w);
  MacAddress ap_addr = MacAddress::ForStation(0);
  MacAddress sta_addr = MacAddress::ForStation(1);
  WifiNetDevice ap(&sched, &channel, ap_addr, cfg, Random(11));
  WifiNetDevice sta(&sched, &channel, sta_addr, cfg, Random(12));
  ap.phy().set_position(pair[0]);
  sta.phy().set_position(pair[1]);
  ap.mac().Associate(sta_addr);
  sta.mac().Associate(ap_addr);
  if (Geometric(w)) {
    channel.set_propagation(std::make_unique<LogDistancePropagation>());
  }
  uint64_t delivered = 0;
  sta.on_receive = [&delivered](Packet, MacAddress) { ++delivered; };
  std::vector<double> ppdus;
  uint32_t seq = 1;
  uint32_t root = t.Begin("bench.mac80211.exchange");
  for (int c = 0; c < calls; ++c) {
    std::vector<Packet> batch;
    for (int i = 0; i < kMpdusPerAmpdu; ++i, seq += kMss) {
      batch.push_back(DataSegment(seq));
    }
    uint64_t before = channel.airtime().ppdus;
    uint64_t delivered_before = delivered;
    // Long enough for contention, RTS/CTS, the A-MPDU and its Block ACK.
    SimTime end = sched.Now() + SimTime::Millis(10);
    uint32_t id = t.Begin("mac80211.exchange");
    for (Packet& p : batch) {
      ap.mac().Enqueue(std::move(p), sta_addr);
    }
    sched.RunUntil(end);
    t.End(id);
    CHECK_EQ(delivered - delivered_before, static_cast<uint64_t>(kMpdusPerAmpdu));
    CHECK_EQ(ap.mac().QueueDepth(sta_addr), 0u);
    ppdus.push_back(static_cast<double>(channel.airtime().ppdus - before));
  }
  t.End(root);
  return ppdus;
}

// --- rohc -------------------------------------------------------------------
// One span compresses a Block ACK's worth of consecutive pure ACKs; the
// next decompresses the records.
void RohcBench(Tracer& t, int spans) {
  RohcCompressor compressor;
  RohcDecompressor decompressor;
  decompressor.NoteVanillaAck(PureAck(0));
  uint32_t next = 1;
  std::vector<Packet> acks;
  std::vector<RohcCompressor::Result> compressed(kAcksPerBlockAck);
  std::vector<CompressedAckRecord> records;
  uint32_t root = t.Begin("bench.rohc");
  for (int c = 0; c < spans; ++c) {
    acks.clear();
    records.clear();
    for (int i = 0; i < kAcksPerBlockAck; ++i) {
      acks.push_back(PureAck(next++));
    }
    uint32_t id = t.Begin("rohc.compress", kAcksPerBlockAck);
    for (int i = 0; i < kAcksPerBlockAck; ++i) {
      compressed[static_cast<size_t>(i)] = compressor.Compress(acks[static_cast<size_t>(i)]);
    }
    t.End(id);
    for (const RohcCompressor::Result& r : compressed) {
      ByteReader reader(r.bytes);
      std::optional<CompressedAckRecord> record =
          CompressedAckRecord::Deserialize(reader);
      CHECK(record.has_value());
      records.push_back(*record);
    }
    bool ok = true;
    id = t.Begin("rohc.decompress", kAcksPerBlockAck);
    for (const CompressedAckRecord& record : records) {
      ok = ok && decompressor.Decompress(record).status ==
                     RohcDecompressor::Status::kOk;
    }
    t.End(id);
    CHECK(ok);
  }
  t.End(root);
}

// --- hack -------------------------------------------------------------------
// One call: the client's agent takes one Block ACK's worth of pure ACKs
// (OfferOutgoingPacket), the staging latency passes, BuildAckPayload packs
// them, and the AP's agent unpacks them (OnAckPayload). Agents are driven
// directly; their devices exist only because an agent needs a MAC.
void HackBench(Tracer& t, int calls) {
  Scheduler sched;
  WirelessChannel channel(&sched);
  WifiMacConfig cfg;
  cfg.data_mode = DataMode();
  cfg.max_hack_payload_bytes = HackAgentConfig{}.max_payload_bytes;
  MacAddress ap_addr = MacAddress::ForStation(0);
  MacAddress sta_addr = MacAddress::ForStation(1);
  WifiNetDevice ap(&sched, &channel, ap_addr, cfg, Random(21));
  WifiNetDevice sta(&sched, &channel, sta_addr, cfg, Random(22));
  ap.phy().set_position({0, 0});
  sta.phy().set_position({5, 0});
  HackAgentConfig hc;
  ap.EnableHack(hc);
  sta.EnableHack(hc);
  uint64_t forwarded = 0;
  ap.on_receive = [&forwarded](Packet p, MacAddress) {
    forwarded += p.IsPureTcpAck() ? 1 : 0;
  };
  // The flow's context exists at both ends (a vanilla ACK was delivered).
  Packet anchor = PureAck(0);
  sta.hack()->OnMpduDelivered(anchor, ap_addr);
  ap.hack()->NoteReceivedVanillaAck(anchor, sta_addr);
  uint32_t next = 1;
  uint32_t root = t.Begin("bench.hack");
  for (int c = 0; c < calls; ++c) {
    std::vector<Packet> acks;
    for (int i = 0; i < kAcksPerBlockAck; ++i) {
      acks.push_back(PureAck(next++));
    }
    uint64_t before = forwarded;
    SimTime ready = sched.Now() + hc.staging_latency + SimTime::Micros(1);
    uint32_t id = t.Begin("hack.ack_batch", kAcksPerBlockAck);
    // A new A-MPDU with MORE DATA set: confirms the previous batch and
    // keeps the latch that lets ACKs ride.
    sta.hack()->OnDataPpdu(ap_addr, true, true, true, false);
    for (Packet& a : acks) {
      CHECK(sta.hack()->OfferOutgoingPacket(std::move(a), ap_addr));
    }
    sched.RunUntil(ready);
    std::vector<uint8_t> payload = sta.hack()->BuildAckPayload(ap_addr);
    ap.hack()->OnAckPayload(sta_addr, payload);
    t.End(id);
    CHECK_EQ(forwarded - before, static_cast<uint64_t>(kAcksPerBlockAck));
  }
  t.End(root);
  CHECK_EQ(ap.hack()->stats().crc_failures_at_ap, 0u);
}

// --- tcp --------------------------------------------------------------------
// A sender and a receiver joined by an instant link that drops one new data
// segment in every kDropEvery, so the sender's SACK scoreboard and recovery
// state stay busy. Flight is bounded by the paper cell's 256 KB receive
// window. Time advances 500 us per round trip. Each span covers one round's
// segments at the receiver, or one run of same-kind ACKs at the sender.
void TcpBench(Tracer& t, int sack_calls, int segment_calls) {
  constexpr uint64_t kDropEvery = 100;
  Scheduler sched;
  TcpConfig cfg;
  FiveTuple flow{kServerIp, kClientIp, kServerPort, kClientPort, kIpProtoTcp};
  std::deque<Packet> to_receiver, to_sender;
  TcpSender sender(&sched, cfg, flow,
                   [&to_receiver](Packet p) { to_receiver.push_back(std::move(p)); },
                   0);
  TcpReceiver receiver(&sched, cfg, flow, [&to_sender](Packet p) {
    to_sender.push_back(std::move(p));
  });
  sender.Start();
  uint32_t highest_end = 0;
  bool have_highest = false;
  uint64_t new_segments = 0;
  int sacks = 0, segments = 0;
  std::vector<Packet> batch;
  uint32_t root = t.Begin("bench.tcp");
  for (int round = 0; sacks < sack_calls || segments < segment_calls; ++round) {
    CHECK_LT(round, 1'000'000) << "tcp bench stalled";
    while (!to_receiver.empty()) {
      Packet p = std::move(to_receiver.front());
      to_receiver.pop_front();
      if (p.payload_bytes() == 0) {
        receiver.OnPacket(p);  // handshake
        continue;
      }
      uint32_t end = p.tcp().seq + p.payload_bytes();
      bool fresh = !have_highest || Seq32Gt(end, highest_end);
      if (fresh) {
        highest_end = end;
        have_highest = true;
        if (++new_segments % kDropEvery == 0) {
          continue;
        }
      }
      batch.push_back(std::move(p));
    }
    if (!batch.empty()) {
      uint32_t id = t.Begin("tcp.receiver", static_cast<uint32_t>(batch.size()));
      for (const Packet& p : batch) {
        receiver.OnPacket(p);
      }
      t.End(id);
      segments += static_cast<int>(batch.size());
      batch.clear();
    }
    // ACKs reach the sender in runs of one kind: SACK-bearing or not.
    while (!to_sender.empty()) {
      bool sack = !to_sender.front().tcp().sack_blocks.empty();
      while (!to_sender.empty() &&
             sack == !to_sender.front().tcp().sack_blocks.empty()) {
        batch.push_back(std::move(to_sender.front()));
        to_sender.pop_front();
      }
      uint32_t n = static_cast<uint32_t>(batch.size());
      uint32_t id = t.Begin(sack ? "tcp.sender.sack_ack" : "tcp.sender.ack", n);
      for (const Packet& a : batch) {
        sender.OnPacket(a);  // may queue more data, never more ACKs
      }
      t.End(id);
      sacks += sack ? static_cast<int>(n) : 0;
      batch.clear();
    }
    sched.RunUntil(sched.Now() + SimTime::Micros(500));
  }
  t.End(root);
}

std::vector<double> Minus(std::vector<double> v, double x) {
  for (double& e : v) {
    e -= x;
  }
  return v;
}

}  // namespace

std::vector<LayerResult> RunLayerBenches(const Workload& w, uint64_t seed,
                                         Tracer& t) {
  t.Calibrate(20000);
  const std::vector<Position> positions = RadioPositions(w, seed);
  const bool geometric = Geometric(w);
  std::vector<LayerResult> out;
  auto add = [&out, &t](const char* metric, const char* span,
                        const std::vector<double>& per_call) {
    out.push_back(
        LayerResult{metric, Median(per_call), Percentile(per_call, 0.99),
                    t.Calls(span)});
  };

  SimBench(t, w.stations, 2000);
  add("sim.ns_per_event", "sim.event", t.SelfTimes("sim.event"));

  PacketBench(t, 2000);
  add("packet.ns_per_tcp_packet", "packet.tcp_packet",
      t.SelfTimes("packet.tcp_packet"));

  // PHY at the workload's shape, one single-MPDU data PPDU per call.
  MacAddress ap = MacAddress::ForStation(0);
  MacAddress sta = MacAddress::ForStation(1);
  const int cell_calls = w.stations >= 1000 ? 1500 : 20000;
  std::vector<double> arrivals = PhyBench(t, "phy80211.ppdu", positions,
                                           geometric, DataPpdu(ap, sta, 1),
                                           cell_calls);
  std::vector<double> phy = t.SelfTimes("phy80211.ppdu");
  add("phy80211.ns_per_ppdu", "phy80211.ppdu", phy);
  std::vector<double> per_arrival = phy;
  for (size_t i = 0; i < per_arrival.size(); ++i) {
    per_arrival[i] /= std::max(1.0, arrivals[i]);
  }
  add("phy80211.ns_per_arrival", "phy80211.ppdu", per_arrival);
  const double phy_cell_ns = Median(phy);

  // PHY at the MAC exchange's shape: two radios, the exchange's A-MPDU and
  // its control frames.
  std::vector<Position> pair = {positions[0], Position{5.0, 0.0}};
  PhyBench(t, "phy80211.pair_ampdu", pair, geometric,
            DataPpdu(ap, sta, kMpdusPerAmpdu), 5000);
  PhyBench(t, "phy80211.pair_control", pair, geometric, BlockAckPpdu(sta, ap),
            5000);
  const double pair_ampdu_ns = Median(t.SelfTimes("phy80211.pair_ampdu"));
  const double pair_control_ns = Median(t.SelfTimes("phy80211.pair_control"));

  std::vector<double> exchange_ppdus = ExchangeBench(t, w, pair, 5000);
  std::vector<double> exchange = t.SelfTimes("mac80211.exchange");
  for (size_t i = 0; i < exchange.size(); ++i) {
    exchange[i] -= pair_ampdu_ns + (exchange_ppdus[i] - 1) * pair_control_ns;
  }
  add("mac80211.ns_per_exchange", "mac80211.exchange", exchange);

  BystanderBench(t, w, positions, cell_calls);
  add("mac80211.ns_per_bystander_ppdu", "mac80211.bystander_ppdu",
      Minus(t.SelfTimes("mac80211.bystander_ppdu"), phy_cell_ns));

  RohcBench(t, 2500);
  std::vector<double> compress = t.SelfTimes("rohc.compress");
  std::vector<double> decompress = t.SelfTimes("rohc.decompress");
  add("rohc.compress_ns", "rohc.compress", compress);
  add("rohc.decompress_ns", "rohc.decompress", decompress);

  HackBench(t, 3000);
  add("hack.ns_per_ack", "hack.ack_batch",
      Minus(t.SelfTimes("hack.ack_batch"),
            Median(compress) + Median(decompress)));

  TcpBench(t, 20000, 100000);
  add("tcp.sender_ns_per_ack", "tcp.sender.sack_ack",
      t.SelfTimes("tcp.sender.sack_ack"));
  add("tcp.receiver_ns_per_segment", "tcp.receiver",
      t.SelfTimes("tcp.receiver"));
  return out;
}

}  // namespace hackbench
