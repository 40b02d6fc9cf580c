// Microbenchmarks (google-benchmark) for the hot paths a NIC/driver would
// care about: ROHC compression/decompression, MD5 CID derivation, the
// discrete-event scheduler, the PHY/channel arrival path, and DCF
// contention.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/mac80211/dcf.h"
#include "src/net/address.h"
#include "src/phy80211/frame.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_mode.h"
#include "src/phy80211/wifi_phy.h"
#include "src/rohc/rohc.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"
#include "src/util/md5.h"

namespace hacksim {
namespace {

Packet MakeAck(uint32_t ack) {
  TcpHeader tcp;
  tcp.src_port = 6000;
  tcp.dst_port = 5000;
  tcp.seq = 1;
  tcp.ack = ack;
  tcp.flag_ack = true;
  tcp.window = 32768;
  tcp.timestamps = TcpTimestamps{100, 200};
  return Packet::MakeTcp(Ipv4Address::FromOctets(10, 0, 2, 1),
                         Ipv4Address::FromOctets(10, 0, 0, 1), tcp, 0);
}

void BM_RohcCompressSteadyStream(benchmark::State& state) {
  RohcCompressor comp;
  uint32_t ack = 1000;
  (void)comp.Compress(MakeAck(ack));
  for (auto _ : state) {
    ack += 2920;
    benchmark::DoNotOptimize(comp.Compress(MakeAck(ack)));
  }
}
BENCHMARK(BM_RohcCompressSteadyStream);

void BM_RohcRoundTrip(benchmark::State& state) {
  RohcCompressor comp;
  RohcDecompressor decomp;
  uint32_t ack = 1000;
  decomp.NoteVanillaAck(MakeAck(ack));
  for (auto _ : state) {
    ack += 2920;
    auto r = comp.Compress(MakeAck(ack));
    ByteReader reader(r.bytes);
    auto rec = CompressedAckRecord::Deserialize(reader);
    benchmark::DoNotOptimize(decomp.Decompress(*rec));
  }
}
BENCHMARK(BM_RohcRoundTrip);

void BM_Md5Cid(benchmark::State& state) {
  // Fresh tuple each iteration: RohcCid() memoises per object, and this
  // bench measures the cold MD5 derivation.
  uint16_t port = 6000;
  for (auto _ : state) {
    FiveTuple t{Ipv4Address::FromOctets(10, 0, 2, 1),
                Ipv4Address::FromOctets(10, 0, 0, 1), ++port, 5000, 6};
    benchmark::DoNotOptimize(t.RohcCid());
  }
}
BENCHMARK(BM_Md5Cid);

void BM_Md5CidMemoised(benchmark::State& state) {
  FiveTuple t{Ipv4Address::FromOctets(10, 0, 2, 1),
              Ipv4Address::FromOctets(10, 0, 0, 1), 6000, 5000, 6};
  (void)t.RohcCid();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.RohcCid());
  }
}
BENCHMARK(BM_Md5CidMemoised);

void BM_Md5Hash1K(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Md5Hash1K);

void BM_SchedulerChurn(benchmark::State& state) {
  Scheduler sched;
  uint64_t n = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sched.ScheduleIn(SimTime::Micros(1 + i % 7), [&n]() { ++n; });
    }
    sched.Run();
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_SchedulerChurn);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  Scheduler sched;
  for (auto _ : state) {
    std::vector<EventId> ids;
    ids.reserve(64);
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sched.ScheduleIn(SimTime::Micros(5), []() {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      sched.Cancel(ids[i]);
    }
    sched.Run();
  }
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_HeaderSerializeTcpAck(benchmark::State& state) {
  Packet p = MakeAck(123456);
  for (auto _ : state) {
    ByteWriter w;
    p.ip().Serialize(w);
    p.tcp().Serialize(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
}
BENCHMARK(BM_HeaderSerializeTcpAck);

// --- PHY / channel -----------------------------------------------------------

class StubListener final : public WifiPhyListener {
 public:
  void OnPpduReceived(const Ppdu&, const std::vector<bool>&) override {}
  void OnRxCorrupted() override {}
  void OnTxEnd(const Ppdu&) override {}
  void OnCcaBusy() override {}
  void OnCcaIdle() override {}
};

// One 1460 B data MPDU at 802.11n 150 Mb/s (about 120 us of airtime).
Ppdu DataPpdu() {
  TcpHeader tcp;
  tcp.flag_ack = true;
  WifiFrame f;
  f.type = WifiFrameType::kData;
  f.ta = MacAddress::ForStation(1);
  f.ra = MacAddress::ForStation(0);
  f.packet = Packet::MakeTcp(Ipv4Address(1), Ipv4Address(2), tcp, 1460);
  Ppdu ppdu;
  ppdu.mode = ModeForRate(Modes80211n(), 150);
  ppdu.mpdus.push_back(std::move(f));
  return ppdu;
}

// Stub-listener radios at `positions` on one channel.
struct StubCell {
  StubCell(const std::vector<Position>& positions, bool log_distance)
      : channel(&sched) {
    for (size_t i = 0; i < positions.size(); ++i) {
      phys.push_back(std::make_unique<WifiPhy>(&sched, Random(100 + i)));
      phys.back()->set_position(positions[i]);
      phys.back()->set_listener(&stub);
      phys.back()->AttachTo(&channel);
    }
    if (log_distance) {
      channel.set_propagation(std::make_unique<LogDistancePropagation>());
    }
  }
  Scheduler sched;
  WirelessChannel channel;
  StubListener stub;
  std::vector<std::unique_ptr<WifiPhy>> phys;
};

// Reports `per_iteration` units of work as a time per unit.
benchmark::Counter TimePer(double per_iteration) {
  return benchmark::Counter(per_iteration,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

// k of 33 co-located radios send at the same instant on the fixed-loss
// channel, so every receiver holds k frames in flight (k - 1 at a sender).
// Each PPDU reaches the same 32 receivers in one start and one end event
// at every k, so the channel and scheduler cost per arrival does not
// depend on k; ns_per_arrival grows with k only through per-arrival PHY
// work that scales with the depth.
void BM_PhyOverlap(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  constexpr size_t kRadios = 33;
  StubCell cell(std::vector<Position>(kRadios, Position{1.0, 1.0}),
                /*log_distance=*/false);
  const Ppdu ppdu = DataPpdu();
  for (auto _ : state) {
    for (size_t s = 1; s <= k; ++s) {
      benchmark::DoNotOptimize(cell.phys[s]->Send(ppdu));
    }
    cell.sched.Run();
  }
  state.counters["ns_per_arrival"] =
      TimePer(static_cast<double>(k * (kRadios - 1)));
}
BENCHMARK(BM_PhyOverlap)->Arg(1)->Arg(8)->Arg(32);

// The log-distance form: k senders and 32 listening radios, all
// co-located, on the geometric channel. Every listener holds k frames in
// flight; each arrival adds its power to the others' interference as it
// starts, so every listener arrival ends in a capture verdict (equal
// powers: all lose). The senders' arrivals from each other die half
// duplex without one. ns_per_arrival divides by all k * (k + 31)
// arrivals, so it counts the SINR accumulation, whose walk grows with k,
// and one verdict per listener arrival.
void BM_PhyOverlapLogDistance(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  constexpr size_t kListeners = 32;
  StubCell cell(std::vector<Position>(k + kListeners, Position{1.0, 1.0}),
                /*log_distance=*/true);
  const Ppdu ppdu = DataPpdu();
  for (auto _ : state) {
    for (size_t s = 0; s < k; ++s) {
      benchmark::DoNotOptimize(cell.phys[s]->Send(ppdu));
    }
    cell.sched.Run();
  }
  state.counters["ns_per_arrival"] =
      TimePer(static_cast<double>(k * (k + kListeners - 1)));
}
BENCHMARK(BM_PhyOverlapLogDistance)->Arg(2)->Arg(8)->Arg(32);

// One PPDU to n receivers, then every delivery event: the channel's fan-out
// plus one clean decode per receiver. Two geometries, sorted differently by
// the channel's receiver ordering:
//   ring:0 — the sender at the centre of a 20 m disk, the receivers placed
//            uniformly on it (all within energy-detect range on the
//            log-distance channel), as in disk-uplink-rts-1000;
//   ring:1 — the dense workload's cell: n stations evenly spaced by angle
//            on a 5 m ring around one at the centre; the first ring
//            station sends. Its delays span only 1-33 ns and arrive in
//            mirrored pairs, so nearly every delay ties.
void BM_ChannelFanout(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const bool ring = state.range(2) != 0;
  constexpr double kPi = 3.14159265358979;
  std::vector<Position> cell = {{0.0, 0.0}};
  if (ring) {
    for (size_t i = 0; i < n; ++i) {
      double angle = 2.0 * kPi * static_cast<double>(i) / static_cast<double>(n);
      cell.push_back({5.0 * std::cos(angle), 5.0 * std::sin(angle)});
    }
  } else {
    Random rng(7);
    for (size_t i = 0; i < n; ++i) {
      double r = std::max(1.0, 20.0 * std::sqrt(rng.NextDouble()));
      double theta = 2.0 * kPi * rng.NextDouble();
      cell.push_back({r * std::cos(theta), r * std::sin(theta)});
    }
  }
  StubCell stubs(cell, /*log_distance=*/state.range(1) != 0);
  WifiPhy& sender = *stubs.phys[ring ? 1 : 0];
  const Ppdu ppdu = DataPpdu();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.Send(ppdu));
    stubs.sched.Run();
  }
  state.counters["ns_per_arrival"] = TimePer(static_cast<double>(n));
}
BENCHMARK(BM_ChannelFanout)
    ->ArgsProduct({{10, 100, 1000}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "log_distance", "ring"});

// --- DCF contention ----------------------------------------------------------

// n backlogged 802.11n best-effort DcfEngines on one scheduler, in the dense
// cell's pattern: every PPDU is one busy edge and one idle edge at every
// engine. The idle edge arms each engine's grant timer; the earliest grant
// fires and its engine transmits; the busy edge cancels every other armed
// grant, and the sender requeues with a post-transmission backoff while the
// medium is busy. ns_per_edge divides by the 2n engine edges per PPDU.
void BM_DcfGrantChurn(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const PhyTimings timings = TimingsFor(WifiStandard::k80211n);
  const DcfEngine::Config config{timings.slot, timings.difs, timings.cw_min,
                                 timings.cw_max, SimTime::Zero()};
  const SimTime airtime = SimTime::Micros(200);
  Scheduler sched;
  std::vector<std::unique_ptr<DcfEngine>> engines;
  DcfEngine* sender = nullptr;
  for (size_t i = 0; i < n; ++i) {
    engines.push_back(
        std::make_unique<DcfEngine>(&sched, Random(1000 + i), config));
    DcfEngine* engine = engines.back().get();
    engine->on_grant = [&sender, engine]() { sender = engine; };
    engine->NotifyMediumBusy();
    engine->RequestAccess();
  }
  for (auto _ : state) {
    for (auto& engine : engines) {
      engine->NotifyMediumIdle();
    }
    sched.Run(1);
    for (auto& engine : engines) {
      engine->NotifyMediumBusy();
    }
    sender->DrawPostTxBackoff();
    sender->RequestAccess();
    sched.RunUntil(sched.Now() + airtime);
    benchmark::DoNotOptimize(sender);
  }
  state.counters["ns_per_edge"] = TimePer(2.0 * static_cast<double>(n));
}
BENCHMARK(BM_DcfGrantChurn)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hacksim

BENCHMARK_MAIN();
