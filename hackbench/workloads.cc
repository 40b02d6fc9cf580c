#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/sim/random.h"

namespace hackbench {

using namespace hacksim;

const std::vector<Workload>& AllWorkloads() {
  // 802.11n at 150 Mb/s throughout. One pass over a cell's distinct seeds
  // takes 10-18 s on a 3.3 GHz AMD EPYC core, well inside a 30 s run.
  static const std::vector<Workload> kWorkloads = {
      {.name = "paper-tcp-hack-10",
       .stations = 10,
       .duration = SimTime::Seconds(60),
       .scale_duration = SimTime::Seconds(2),
       .seeds_per_run = 16,
       .proto = TransportProto::kTcp,
       .hack = HackVariant::kMoreData,
       .upload = false,
       .rts_threshold = 0,
       .rate_adaptation = false,
       .udp_rate_bps = 0.0,
       .topology = Topology::kRing},
      {.name = "dense-uplink-rts-1000",
       .stations = 1000,
       .duration = SimTime::Millis(500),
       .scale_duration = SimTime::Millis(500),
       .seeds_per_run = 12,
       .proto = TransportProto::kUdp,
       .hack = HackVariant::kOff,
       .upload = true,
       .rts_threshold = 500,
       .rate_adaptation = true,
       .udp_rate_bps = 2.5e9,
       .topology = Topology::kRing},
      {.name = "disk-uplink-rts-1000",
       .stations = 1000,
       .duration = SimTime::Millis(500),
       .scale_duration = SimTime::Millis(500),
       .seeds_per_run = 12,
       .proto = TransportProto::kUdp,
       .hack = HackVariant::kOff,
       .upload = true,
       .rts_threshold = 500,
       .rate_adaptation = true,
       .udp_rate_bps = 2.5e9,
       .topology = Topology::kUniformDisk},
  };
  return kWorkloads;
}

const Workload& FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) {
      return w;
    }
  }
  std::fprintf(stderr, "unknown workload '%.*s'; known:",
               static_cast<int>(name.size()), name.data());
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

ScenarioConfig MakeConfig(const Workload& w, SimTime duration, uint64_t seed) {
  // The same knobs bench_scale's RunOne sets for its rows.
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = w.stations;
  c.proto = w.proto;
  c.hack = w.hack;
  c.upload = w.upload;
  c.rts_threshold = w.rts_threshold;
  c.rate_adaptation = w.rate_adaptation;
  if (w.udp_rate_bps > 0.0) {
    c.udp_rate_bps = w.udp_rate_bps;
  }
  if (w.proto == TransportProto::kUdp && w.upload) {
    c.udp_burst_window = SimTime::Millis(16);
  }
  c.topology = w.topology;
  if (Geometric(w)) {
    c.propagation = LogDistancePropagation::Params{};
  }
  // bench_scale packs every start into the first fifth of its run.
  c.start_stagger =
      SimTime::Nanos(w.scale_duration.ns() / (5 * int64_t{w.stations}));
  c.duration = duration;
  c.seed = seed;
  return c;
}

WifiMacConfig ClientMacConfig(const Workload& w) {
  ScenarioConfig c = MakeConfig(w, w.duration, 1);
  WifiMacConfig m;
  m.standard = c.standard;
  m.data_mode = ModeForRate(Modes80211n(), c.data_rate_mbps);
  m.enable_ampdu = true;
  m.per_dest_queue_limit = std::max<size_t>(c.ap_queue_per_client, 1000);
  m.txop_limit = c.txop_limit;
  m.rts_threshold = c.rts_threshold;
  m.enable_rate_adaptation = c.rate_adaptation;
  m.rate_adapt = c.rate_adapt;
  if (c.hack != HackVariant::kOff) {
    m.max_hack_payload_bytes = c.hack_config.max_payload_bytes;
  }
  return m;
}

std::vector<Position> RadioPositions(const Workload& w, uint64_t seed) {
  constexpr double kPi = 3.14159265358979;
  ScenarioConfig c = MakeConfig(w, w.duration, seed);
  std::vector<Position> out;
  out.push_back(Position{0.0, 0.0});
  // RunScenario forks the AP's stream first, then the placement stream.
  Random root(seed);
  root.Fork();
  Random placement = root.Fork();
  double ring_m = ClientSpec{}.distance_m;
  for (int i = 0; i < w.stations; ++i) {
    if (w.topology == Topology::kUniformDisk) {
      double r = std::max(1.0, c.cell_radius_m * std::sqrt(placement.NextDouble()));
      double theta = 2.0 * kPi * placement.NextDouble();
      out.push_back(Position{r * std::cos(theta), r * std::sin(theta)});
    } else {
      double angle = 2.0 * kPi * i / w.stations;
      out.push_back(Position{ring_m * std::cos(angle), ring_m * std::sin(angle)});
    }
  }
  return out;
}

}  // namespace hackbench
