// hacksim_run: command-line scenario runner.
//
// Runs one download/upload scenario with every knob exposed as a flag and
// prints a machine-readable summary (key=value lines) plus a human table.
//
//   hacksim_run --standard=n --rate=150 --clients=4 --hack=more-data --seconds=5 --seed=7
//   hacksim_run --standard=a --hack=off --sora --loss=0.02
//
// Exit code 0 on success; 2 on flag errors (an unknown flag or enum value,
// a rate missing from the standard's mode table, or a number that does not
// parse completely or is out of range), each reported on one line.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>

#include "src/scenario/download_scenario.h"
#include "tools/cli_flags.h"

using namespace hacksim;

namespace {

struct Flags {
  std::string standard = "n";
  double rate = 0.0;  // 0: the standard's top rate
  int clients = 1;
  std::string hack = "more-data";
  // ACK-aggregation policy (HackAckPolicy): hold compressed ACKs and flush
  // them as one hierarchical ACK frame per window/count/MORE-DATA edge.
  // window=0 (default) keeps the policy structurally absent.
  int64_t hack_ack_window_us = 0;
  uint64_t hack_ack_count = 0;
  std::string proto = "tcp";
  double seconds = 4.0;
  double stagger_ms = 250.0;
  uint64_t file_mb = 0;
  uint64_t seed = 1;
  bool upload = false;
  bool sora = false;
  double loss = 0.0;
  double snr_distance = 0.0;  // >0 enables the SNR model at this distance
  size_t queue = 126;
  int txop_ms = 4;
  size_t rts_threshold = 0;  // >0 enables RTS/CTS above this PSDU size
  bool rate_adapt = false;
  // 802.11e QoS (docs/qos.md): four EDCA access categories at every MAC
  // instead of the single legacy DCF, and a station→model traffic mix like
  // "voice:0.1,web:0.9" (UDP only; models: voice, video, web, iot).
  bool edca = false;
  std::string traffic_mix;
  double traffic_rate_scale = 1.0;
  // "ring" (legacy fixed-loss broadcast), or the geometric-channel layouts
  // "disk" / "hidden" (log-distance propagation + SINR capture).
  std::string topology = "ring";
  // Fault injection + liveness auditing (docs/robustness.md).
  std::string fault_plan;
  int watchdog_ms = 0;
  bool watchdog_no_abort = false;
  bool verbose = false;
};

void Usage() {
  std::fprintf(stdout,
               "usage: hacksim_run [flags]\n"
               "  --standard=a|n        PHY (default n)\n"
               "  --rate=<mbps>         data rate (default 150; 802.11a: 54)\n"
               "  --clients=<n>         number of stations (default 1)\n"
               "  --hack=off|more-data|opportunistic|timer|ts-echo\n"
               "  --hack-ack-window=<us>\n"
               "                        batch compressed ACKs for up to this\n"
               "                        window before flushing them as one\n"
               "                        hierarchical ACK (0=off; requires a\n"
               "                        HACK variant)\n"
               "  --hack-ack-count=<n>  flush a held batch early once it\n"
               "                        reaches n ACKs (requires\n"
               "                        --hack-ack-window)\n"
               "  --proto=tcp|udp       workload (default tcp)\n"
               "  --seconds=<s>         run length in seconds (default 4)\n"
               "  --stagger-ms=<ms>     per-station flow start stagger in "
               "ms (default 250)\n"
               "  --file-mb=<mb>        transfer size in MB instead of "
               "duration\n"
               "  --seed=<n>            RNG seed (default 1)\n"
               "  --upload              reverse the transfer direction\n"
               "  --sora                apply SoRa LL-ACK quirks (37us)\n"
               "  --loss=<p>            per-MPDU data loss probability [0,1]\n"
               "  --snr-distance=<m>    use the SNR model at this distance "
               "in meters\n"
               "  --queue=<pkts>        AP queue per client in packets "
               "(default 126)\n"
               "  --txop-ms=<ms>        TXOP limit in ms (default 4)\n"
               "  --rts-threshold=<B>   RTS/CTS above this PSDU size in "
               "bytes (0=off)\n"
               "  --rate-adapt          per-station ARF rate adaptation\n"
               "  --edca                802.11e EDCA: four per-AC queues +\n"
               "                        contention engines at every MAC\n"
               "  --traffic-mix=<mix>   station→model mix, e.g.\n"
               "                        'voice:0.1,web:0.9' (models: voice,\n"
               "                        video, web, iot; fractions of the\n"
               "                        station count, assigned by index).\n"
               "                        UDP: replaces the CBR sources; TCP\n"
               "                        download: adds background flows\n"
               "                        alongside the TCP transfers\n"
               "  --traffic-rate-scale=<x>\n"
               "                        multiply each mixed flow's mean rate "
               "by x\n"
               "  --topology=ring|disk|hidden\n"
               "                        ring: legacy broadcast medium;\n"
               "                        disk/hidden: geometric channel with\n"
               "                        range-limited decode + SINR capture\n"
               "  --fault-plan=<plan>   timed fault events, e.g.\n"
               "                        'crash@120000us:3;join@250000us:3;"
               "ap-down@300000us;ap-up@350000us'\n"
               "  --watchdog-ms=<ms>    liveness audit cadence (0=off)\n"
               "  --watchdog-no-abort   record watchdog trips instead of\n"
               "                        aborting\n"
               "  --verbose             print per-client counters\n");
}

bool Parse(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "standard", &value)) {
      flags->standard = value;
    } else if (ParseFlag(argv[i], "rate", &value)) {
      ok = ParseNumber(value, 1.0, 1e6, &flags->rate);
    } else if (ParseFlag(argv[i], "clients", &value)) {
      ok = ParseNumber(value, 1, 100'000, &flags->clients);
    } else if (ParseFlag(argv[i], "hack", &value)) {
      flags->hack = value;
    } else if (ParseFlag(argv[i], "hack-ack-window", &value)) {
      ok = ParseNumber(value, 0, 1'000'000'000, &flags->hack_ack_window_us);
    } else if (ParseFlag(argv[i], "hack-ack-count", &value)) {
      ok = ParseNumber(value, 0, 1'000'000'000, &flags->hack_ack_count);
    } else if (ParseFlag(argv[i], "proto", &value)) {
      flags->proto = value;
    } else if (ParseFlag(argv[i], "seconds", &value)) {
      ok = ParseNumber(value, 1e-3, 1e6, &flags->seconds);
    } else if (ParseFlag(argv[i], "stagger-ms", &value)) {
      ok = ParseNumber(value, 0.0, 1e9, &flags->stagger_ms);
    } else if (ParseFlag(argv[i], "file-mb", &value)) {
      ok = ParseNumber(value, 0, 1'000'000, &flags->file_mb);
    } else if (ParseFlag(argv[i], "seed", &value)) {
      ok = ParseNumber(value, 0, UINT64_MAX, &flags->seed);
    } else if (ParseFlag(argv[i], "loss", &value)) {
      ok = ParseNumber(value, 0.0, 1.0, &flags->loss);
    } else if (ParseFlag(argv[i], "snr-distance", &value)) {
      ok = ParseNumber(value, 0.0, 1e6, &flags->snr_distance);
    } else if (ParseFlag(argv[i], "queue", &value)) {
      ok = ParseNumber(value, 1, 1'000'000, &flags->queue);
    } else if (ParseFlag(argv[i], "txop-ms", &value)) {
      ok = ParseNumber(value, 1, 1000, &flags->txop_ms);
    } else if (ParseFlag(argv[i], "rts-threshold", &value)) {
      ok = ParseNumber(value, 0, 1'000'000, &flags->rts_threshold);
    } else if (ParseFlag(argv[i], "topology", &value)) {
      flags->topology = value;
    } else if (ParseFlag(argv[i], "fault-plan", &value)) {
      flags->fault_plan = value;
    } else if (ParseFlag(argv[i], "watchdog-ms", &value)) {
      ok = ParseNumber(value, 0, 1'000'000, &flags->watchdog_ms);
    } else if (std::strcmp(argv[i], "--watchdog-no-abort") == 0) {
      flags->watchdog_no_abort = true;
    } else if (ParseFlag(argv[i], "traffic-mix", &value)) {
      flags->traffic_mix = value;
    } else if (ParseFlag(argv[i], "traffic-rate-scale", &value)) {
      ok = ParseNumber(value, 1e-3, 1e6, &flags->traffic_rate_scale);
    } else if (std::strcmp(argv[i], "--edca") == 0) {
      flags->edca = true;
    } else if (std::strcmp(argv[i], "--rate-adapt") == 0) {
      flags->rate_adapt = true;
    } else if (std::strcmp(argv[i], "--upload") == 0) {
      flags->upload = true;
    } else if (std::strcmp(argv[i], "--sora") == 0) {
      flags->sora = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      flags->verbose = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag (see --help): %s\n", argv[i]);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value (not a number in range): %s\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return true;
}

// Parses "voice:0.1,web:0.9" into mix rows; false on malformed input.
bool ParseTrafficMix(const std::string& text,
                     std::vector<TrafficMixEntry>* mix) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    std::string entry = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    auto model = ParseTrafficModel(entry.substr(0, colon));
    if (!model.has_value()) {
      return false;
    }
    double fraction = 0.0;
    if (!ParseNumber(entry.substr(colon + 1), 0.0, 1.0, &fraction) ||
        fraction == 0.0) {
      return false;
    }
    mix->push_back({*model, fraction});
    pos = comma == std::string::npos ? text.size() : comma + 1;
  }
  return !mix->empty();
}

HackVariant VariantFromName(const std::string& name) {
  if (name == "off") {
    return HackVariant::kOff;
  }
  if (name == "more-data") {
    return HackVariant::kMoreData;
  }
  if (name == "opportunistic") {
    return HackVariant::kOpportunistic;
  }
  if (name == "timer") {
    return HackVariant::kExplicitTimer;
  }
  if (name == "ts-echo") {
    return HackVariant::kTimestampEcho;
  }
  std::fprintf(stderr, "unknown --hack value: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!Parse(argc, argv, &flags)) {
    return 2;
  }

  if (flags.standard != "a" && flags.standard != "n") {
    std::fprintf(stderr, "unknown --standard value: %s\n",
                 flags.standard.c_str());
    return 2;
  }
  if (flags.proto != "tcp" && flags.proto != "udp") {
    std::fprintf(stderr, "unknown --proto value: %s\n", flags.proto.c_str());
    return 2;
  }
  ScenarioConfig config;
  config.standard = flags.standard == "a" ? WifiStandard::k80211a
                                          : WifiStandard::k80211n;
  std::span<const WifiMode> modes = config.standard == WifiStandard::k80211a
                                        ? Modes80211a()
                                        : Modes80211n();
  config.data_rate_mbps =
      flags.rate > 0 ? flags.rate : modes.back().rate_mbps();
  auto rate_kbps = static_cast<uint32_t>(config.data_rate_mbps * 1000 + 0.5);
  if (std::none_of(modes.begin(), modes.end(), [&](const WifiMode& m) {
        return m.rate_kbps == rate_kbps;
      })) {
    std::fprintf(stderr, "--rate=%g is not an 802.11%s rate\n",
                 config.data_rate_mbps, flags.standard.c_str());
    return 2;
  }
  config.n_clients = flags.clients;
  config.hack = VariantFromName(flags.hack);
  if (config.hack == HackVariant::kOff &&
      (flags.hack_ack_window_us > 0 || flags.hack_ack_count > 0)) {
    std::fprintf(stderr,
                 "--hack-ack-window/--hack-ack-count require a HACK variant "
                 "(--hack != off)\n");
    return 2;
  }
  if (flags.hack_ack_count > 0 && flags.hack_ack_window_us == 0) {
    std::fprintf(stderr,
                 "--hack-ack-count without --hack-ack-window would be "
                 "inert; set a window\n");
    return 2;
  }
  config.hack_config.ack_policy.flush_window =
      SimTime::Micros(flags.hack_ack_window_us);
  config.hack_config.ack_policy.flush_count =
      static_cast<size_t>(flags.hack_ack_count);
  config.proto =
      flags.proto == "udp" ? TransportProto::kUdp : TransportProto::kTcp;
  config.duration = SimTime::FromSecondsF(flags.seconds);
  config.start_stagger = SimTime::FromSecondsF(flags.stagger_ms / 1000.0);
  config.file_bytes = flags.file_mb * 1'000'000;
  config.seed = flags.seed;
  config.upload = flags.upload;
  config.ap_queue_per_client = flags.queue;
  config.txop_limit = SimTime::Millis(flags.txop_ms);
  config.rts_threshold = flags.rts_threshold;
  config.rate_adaptation = flags.rate_adapt;
  config.edca_enabled = flags.edca;
  config.traffic_rate_scale = flags.traffic_rate_scale;
  if (!flags.traffic_mix.empty()) {
    if (config.proto == TransportProto::kTcp && flags.upload) {
      std::fprintf(stderr,
                   "--traffic-mix supports --proto=udp or TCP download "
                   "(not TCP --upload)\n");
      return 2;
    }
    if (!ParseTrafficMix(flags.traffic_mix, &config.traffic_mix)) {
      std::fprintf(stderr, "malformed --traffic-mix: %s\n",
                   flags.traffic_mix.c_str());
      return 2;
    }
  }
  if (flags.topology == "disk") {
    config.topology = Topology::kUniformDisk;
    config.propagation = LogDistancePropagation::Params{};
  } else if (flags.topology == "hidden") {
    config.topology = Topology::kTwoClusterHidden;
    config.propagation = LogDistancePropagation::Params{};
  } else if (flags.topology != "ring") {
    std::fprintf(stderr, "unknown --topology value: %s\n",
                 flags.topology.c_str());
    return 2;
  }
  if (config.standard == WifiStandard::k80211a) {
    config.tcp.mss = 1448;
  }
  if (flags.sora) {
    config.extra_ack_delay = SimTime::Micros(37);
    config.extra_ack_timeout = SimTime::Micros(80);
  }
  config.clients.resize(flags.clients);
  for (auto& spec : config.clients) {
    spec.bernoulli_data_loss = flags.loss;
    if (flags.snr_distance > 0) {
      spec.distance_m = flags.snr_distance;
    }
  }
  if (flags.snr_distance > 0) {
    config.snr = SnrLossModel::Params{};
  }
  if (!flags.fault_plan.empty()) {
    auto plan = FaultPlan::Parse(flags.fault_plan);
    if (!plan.has_value()) {
      std::fprintf(stderr, "malformed --fault-plan: %s\n",
                   flags.fault_plan.c_str());
      return 2;
    }
    if (plan->MaxStation() >= flags.clients) {
      std::fprintf(stderr, "--fault-plan names a station beyond --clients\n");
      return 2;
    }
    config.fault_plan = *plan;
  }
  config.watchdog_interval = SimTime::Millis(flags.watchdog_ms);
  config.watchdog_abort_on_trip = !flags.watchdog_no_abort;

  ScenarioResult r = RunScenario(config);

  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("aggregate_goodput_mbps=%.2f\n", r.aggregate_goodput_mbps);
  std::printf("steady_goodput_mbps=%.2f\n",
              r.steady_aggregate_goodput_mbps);
  std::printf("tcp_timeouts=%llu\n", u(r.tcp_timeouts));
  std::printf("crc_failures=%llu\n", u(r.crc_failures));
  if (config.hack != HackVariant::kOff) {
    // ACK-aggregation counters, summed over every HackAgent in the cell
    // (all-zero unless --hack-ack-window engaged the policy).
    uint64_t ack_batches = r.ap_hack.ack_batches;
    uint64_t batched_acks = r.ap_hack.batched_acks;
    for (const ClientResult& cr : r.clients) {
      ack_batches += cr.hack.ack_batches;
      batched_acks += cr.hack.batched_acks;
    }
    std::printf("ack_batches=%llu\n", u(ack_batches));
    std::printf("acks_per_flush=%.2f\n",
                ack_batches == 0
                    ? 0.0
                    : static_cast<double>(batched_acks) /
                          static_cast<double>(ack_batches));
  }
  std::printf("ap_first_try_fraction=%.4f\n", r.ap_mac.FirstTryFraction());
  std::printf("airtime_data_ms=%.2f\n", r.airtime.data_ns / 1e6);
  std::printf("airtime_ack_ms=%.2f\n", r.airtime.ack_ns / 1e6);
  std::printf("airtime_rts_cts_ms=%.2f\n", r.airtime.rts_cts_ns / 1e6);
  std::printf("airtime_collision_ms=%.2f\n", r.airtime.collision_ns / 1e6);
  std::printf("ap_rts_sent=%llu\n", u(r.ap_mac.rts_sent));
  std::printf("ap_cts_timeouts=%llu\n", u(r.ap_mac.cts_timeouts));
  std::printf("ap_captures=%llu\n", u(r.ap_phy.captures));
  std::printf("ap_overlap_losses=%llu\n", u(r.ap_phy.overlap_losses));
  std::printf("out_of_range_pairs=%llu\n", u(r.airtime.out_of_range));
  std::printf("ap_rate_moves=%llu/%llu\n", u(r.ap_mac.rate_up_moves),
              u(r.ap_mac.rate_down_moves));
  if (!config.fault_plan.empty()) {
    std::printf("fault_crashes=%llu\n", u(r.fault.crashes));
    std::printf("fault_leaves=%llu\n", u(r.fault.leaves));
    std::printf("fault_joins=%llu\n", u(r.fault.joins));
    std::printf("fault_radio_resets=%llu\n", u(r.fault.radio_resets));
    std::printf("fault_ap_outages=%llu\n", u(r.fault.ap_outages));
    std::printf("fault_ap_restarts=%llu\n", u(r.fault.ap_restarts));
    std::printf("fault_bursts=%llu\n", u(r.fault.bursts));
    std::printf("post_fault_goodput_mbps=%.2f\n", r.post_fault_goodput_mbps);
  }
  if (flags.edca || !config.traffic_mix.empty()) {
    uint64_t virtual_collisions = r.ap_mac.virtual_collisions;
    for (const ClientResult& cr : r.clients) {
      virtual_collisions += cr.mac.virtual_collisions;
    }
    std::printf("virtual_collisions=%llu\n", u(virtual_collisions));
    static const char* kAcKeys[kNumAcs] = {"vo", "vi", "be", "bk"};
    for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
      const LatencySummary& s = r.ac_latency[ac];
      if (s.count == 0) {
        continue;
      }
      std::printf("lat_%s_count=%llu\n", kAcKeys[ac], u(s.count));
      std::printf("lat_%s_p50_ms=%.3f\n", kAcKeys[ac], s.p50_ms);
      std::printf("lat_%s_p99_ms=%.3f\n", kAcKeys[ac], s.p99_ms);
      std::printf("lat_%s_jitter_ms=%.3f\n", kAcKeys[ac], s.jitter_ms);
    }
  }
  if (!config.watchdog_interval.IsZero()) {
    std::printf("watchdog_checks=%llu\n", u(r.watchdog.checks));
    std::printf("watchdog_trips=%llu\n", u(r.watchdog.trips));
    std::printf("final_pending_events=%llu\n", u(r.final_pending_events));
  }
  for (size_t i = 0; i < r.clients.size(); ++i) {
    std::printf("client%zu_goodput_mbps=%.2f\n", i + 1,
                r.clients[i].goodput_mbps);
  }
  if (flags.verbose) {
    for (size_t i = 0; i < r.clients.size(); ++i) {
      const HackStats& h = r.clients[i].hack;
      std::printf("client%zu_compressed_acks=%llu\n", i + 1,
                  u(h.unique_compressed_acks));
      std::printf("client%zu_vanilla_acks=%llu\n", i + 1,
                  u(h.vanilla_acks_sent));
      std::printf("client%zu_compression_ratio=%.2f\n", i + 1,
                  h.CompressionRatio());
    }
    std::printf("ap_recovered_acks=%llu\n",
                u(r.ap_hack.acks_recovered_at_ap));
    std::printf("ap_duplicates_discarded=%llu\n",
                u(r.ap_hack.duplicates_discarded_at_ap));
  }
  return 0;
}
