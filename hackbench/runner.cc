// hackbench_runner: the benchmark's single-threaded measuring process.
// run.py starts one per workload and reads its stdout, one JSON object per
// line; the runner measures and reports raw facts, run.py judges them.
//
//   hackbench_runner timed --workload W --seed S --seconds T
//     timed RunScenario runs cycling over the workload's K seeds until T
//     seconds have passed and every seed has run, the first seed twice in
//     a row, each followed by a batch of set-up runs (the cell at a 1 us
//     duration); then the cell at bench_scale's length and seed 1 for the
//     cross-check; then the process's peak RSS as it stood after the first
//     pass over the seeds.
//   hackbench_runner trace --workload W --seed S --spans PATH
//     the K untraced runs that give the per-layer counts, then every layer
//     bench (layers.h) under spans, which it writes to PATH.
//   hackbench_runner info
//     build facts only (compiler, build type, sanitizers).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "src/sim/random.h"
#include "workloads.h"

using namespace hacksim;
using namespace hackbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

void PrintInfo() {
  std::printf(
      "{\"kind\": \"info\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"sanitize\": \"%s\", \"sanitized\": %s}\n",
      HACKBENCH_COMPILER, HACKBENCH_BUILD_TYPE, HACKBENCH_SANITIZE,
      kSanitized ? "true" : "false");
}

// FNV-1a over an explicit list of simulated counters. A perf-only change
// must leave every one of them, and so the digest, unchanged.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void AddDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

void AddMac(Digest& d, const MacStats& m) {
  for (uint64_t v :
       {m.mpdus_delivered_first_try, m.mpdus_delivered_retried,
        m.mpdus_dropped_retry_limit, m.mpdu_tx_attempts, m.ppdus_sent,
        m.response_timeouts, m.bars_sent, m.ba_agreement_give_ups,
        m.queue_drops, m.rts_sent, m.cts_sent, m.cts_timeouts,
        m.rts_ignored_busy, m.nav_resets, m.rate_up_moves, m.rate_down_moves,
        m.tcp_ack_frames_sent, m.hack_payloads_sent, m.hack_payload_records,
        m.data_mpdus_received, m.duplicate_mpdus_discarded,
        m.rx_corrupted_events, m.acks_sent, m.block_acks_sent}) {
    d.Add(v);
  }
}

void AddHack(Digest& d, const HackStats& h) {
  for (uint64_t v :
       {h.vanilla_acks_sent, h.compressed_acks_sent, h.unique_compressed_acks,
        h.unique_compressed_bytes, h.acks_recovered_at_ap,
        h.duplicates_discarded_at_ap, h.crc_failures_at_ap,
        h.retained_resends, h.flushed_to_vanilla, h.stale_context_drops,
        h.ready_race_fallbacks}) {
    d.Add(v);
  }
}

void AddPhy(Digest& d, const PhyStats& p) {
  d.Add(p.tx_dropped_busy);
  d.Add(p.captures);
  d.Add(p.overlap_losses);
}

uint64_t DigestOf(const ScenarioResult& r) {
  Digest d;
  d.AddDouble(r.aggregate_goodput_mbps);
  d.AddDouble(r.steady_aggregate_goodput_mbps);
  d.Add(static_cast<uint64_t>(r.sim_end.ns()));
  d.Add(r.crc_failures);
  d.Add(r.tcp_timeouts);
  d.Add(r.events_executed);
  for (uint64_t v : r.events_by_class) {
    d.Add(v);
  }
  const ChannelAirtime& a = r.airtime;
  for (int64_t v : {a.data_ns, a.ack_ns, a.bar_ns, a.rts_cts_ns,
                    a.collision_ns}) {
    d.Add(static_cast<uint64_t>(v));
  }
  d.Add(a.ppdus);
  d.Add(a.collisions);
  d.Add(a.out_of_range);
  AddMac(d, r.ap_mac);
  AddPhy(d, r.ap_phy);
  AddHack(d, r.ap_hack);
  for (const ClientResult& c : r.clients) {
    d.AddDouble(c.goodput_mbps);
    d.Add(c.bytes_delivered);
    AddMac(d, c.mac);
    AddPhy(d, c.phy);
    AddHack(d, c.hack);
    for (uint64_t v : {c.tcp_rx.segments_received, c.tcp_rx.bytes_delivered,
                       c.tcp_rx.acks_sent, c.tcp_rx.dupacks_sent,
                       c.tcp_rx.out_of_order_segments, c.tcp_tx.segments_sent,
                       c.tcp_tx.retransmissions, c.tcp_tx.timeouts,
                       c.tcp_tx.acks_received}) {
      d.Add(v);
    }
  }
  for (const LatencySummary& l : r.ac_latency) {
    d.Add(l.count);
    d.AddDouble(l.p50_ms);
    d.AddDouble(l.p99_ms);
  }
  return d.value();
}

double WallNs(std::chrono::steady_clock::time_point t0,
              std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// One line per RunScenario: the timing and every counter run.py turns into
// metrics. "repeat_ok" is null on a seed's first run; on a repeat it says
// whether the run was BehaviourEquals (and event-count equal) to the first.
void PrintRun(const char* kind, int index, int seed_index, uint64_t seed,
              double wall_ns, const ScenarioResult& r, const char* repeat_ok) {
  MacStats mac;
  uint64_t captures = r.ap_phy.captures;
  uint64_t overlap_losses = r.ap_phy.overlap_losses;
  HackStats hack = r.ap_hack;
  uint64_t bytes = 0, served = 0;
  // Receiver-side TCP counters: a download's senders sit at the server,
  // whose stats ScenarioResult does not carry (only their timeouts).
  uint64_t tcp_seg_rx = 0, tcp_acks_sent = 0, tcp_dupacks = 0;
  // Data PPDUs (ppdus_sent also counts Block ACK Requests).
  uint64_t data_ppdus = 0;
  auto add_mac = [&mac, &data_ppdus](const MacStats& m) {
    mac.mpdus_delivered_first_try += m.mpdus_delivered_first_try;
    mac.mpdus_delivered_retried += m.mpdus_delivered_retried;
    mac.mpdus_dropped_retry_limit += m.mpdus_dropped_retry_limit;
    mac.mpdu_tx_attempts += m.mpdu_tx_attempts;
    mac.rts_sent += m.rts_sent;
    mac.cts_timeouts += m.cts_timeouts;
    for (uint64_t n : m.data_ppdus_by_mode_index) {
      data_ppdus += n;
    }
  };
  auto add_hack = [&hack](const HackStats& h) {
    hack.vanilla_acks_sent += h.vanilla_acks_sent;
    hack.unique_compressed_acks += h.unique_compressed_acks;
    hack.unique_compressed_bytes += h.unique_compressed_bytes;
    hack.acks_recovered_at_ap += h.acks_recovered_at_ap;
    hack.flushed_to_vanilla += h.flushed_to_vanilla;
  };
  add_mac(r.ap_mac);
  for (const ClientResult& c : r.clients) {
    add_mac(c.mac);
    add_hack(c.hack);
    captures += c.phy.captures;
    overlap_losses += c.phy.overlap_losses;
    bytes += c.bytes_delivered;
    served += c.bytes_delivered > 0 ? 1 : 0;
    tcp_seg_rx += c.tcp_rx.segments_received;
    tcp_acks_sent += c.tcp_rx.acks_sent;
    tcp_dupacks += c.tcp_rx.dupacks_sent;
  }
  const LatencySummary& be = r.ac_latency[kAcBe];
  const auto& ev = r.events_by_class;
  auto cls = [&ev](EventClass c) {
    return static_cast<unsigned long long>(ev[static_cast<size_t>(c)]);
  };
  std::printf(
      "{\"kind\": \"%s\", \"index\": %d, \"seed_index\": %d, \"seed\": %llu, "
      "\"wall_ns\": %.0f, \"sim_s\": %.9f, \"ppdus\": %llu, "
      "\"goodput_mbps\": %.17g, \"bytes\": %llu, \"crc_failures\": %llu, "
      "\"digest\": \"%016llx\", \"repeat_ok\": %s, "
      "\"events\": %llu, \"ev_channel\": %llu, \"ev_dcf\": %llu, "
      "\"ev_mac\": %llu, \"ev_transport\": %llu, "
      "\"out_of_range\": %llu, \"collision_ns\": %lld, \"busy_ns\": %lld, "
      "\"captures\": %llu, \"overlap_losses\": %llu, "
      "\"first_try\": %llu, \"retried\": %llu, \"retry_drops\": %llu, "
      "\"mpdu_attempts\": %llu, \"data_ppdus\": %llu, \"rts_sent\": %llu, "
      "\"cts_timeouts\": %llu, \"stations\": %zu, \"served_stations\": %llu, "
      "\"delay_p50_ms\": %.17g, \"delay_p99_ms\": %.17g, "
      "\"delay_samples\": %llu, "
      "\"hack_unique\": %llu, \"hack_unique_bytes\": %llu, "
      "\"hack_vanilla\": %llu, \"hack_demotions\": %llu, "
      "\"hack_recovered\": %llu, "
      "\"tcp_segments_received\": %llu, \"tcp_acks_sent\": %llu, "
      "\"tcp_dupacks_sent\": %llu, \"tcp_timeouts\": %llu}\n",
      kind, index, seed_index, static_cast<unsigned long long>(seed), wall_ns,
      r.sim_end.ToSecondsF(), static_cast<unsigned long long>(r.airtime.ppdus),
      r.aggregate_goodput_mbps, static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(r.crc_failures),
      static_cast<unsigned long long>(DigestOf(r)), repeat_ok,
      static_cast<unsigned long long>(r.events_executed),
      cls(EventClass::kChannel), cls(EventClass::kDcfTimer),
      cls(EventClass::kMacTimer), cls(EventClass::kTransportTimer),
      static_cast<unsigned long long>(r.airtime.out_of_range),
      static_cast<long long>(r.airtime.collision_ns),
      static_cast<long long>(r.airtime.TotalBusyNs()),
      static_cast<unsigned long long>(captures),
      static_cast<unsigned long long>(overlap_losses),
      static_cast<unsigned long long>(mac.mpdus_delivered_first_try),
      static_cast<unsigned long long>(mac.mpdus_delivered_retried),
      static_cast<unsigned long long>(mac.mpdus_dropped_retry_limit),
      static_cast<unsigned long long>(mac.mpdu_tx_attempts),
      static_cast<unsigned long long>(data_ppdus),
      static_cast<unsigned long long>(mac.rts_sent),
      static_cast<unsigned long long>(mac.cts_timeouts), r.clients.size(),
      static_cast<unsigned long long>(served), be.p50_ms, be.p99_ms,
      static_cast<unsigned long long>(be.count),
      static_cast<unsigned long long>(hack.unique_compressed_acks),
      static_cast<unsigned long long>(hack.unique_compressed_bytes),
      static_cast<unsigned long long>(hack.vanilla_acks_sent),
      static_cast<unsigned long long>(hack.flushed_to_vanilla),
      static_cast<unsigned long long>(hack.acks_recovered_at_ap),
      static_cast<unsigned long long>(tcp_seg_rx),
      static_cast<unsigned long long>(tcp_acks_sent),
      static_cast<unsigned long long>(tcp_dupacks),
      static_cast<unsigned long long>(r.tcp_timeouts));
  std::fflush(stdout);
}

struct Timed {
  ScenarioResult result;
  double wall_ns;
};

Timed TimeRun(const ScenarioConfig& c) {
  auto t0 = std::chrono::steady_clock::now();
  ScenarioResult r = RunScenario(c);
  auto t1 = std::chrono::steady_clock::now();
  return Timed{std::move(r), WallNs(t0, t1)};
}

// Announces a run before it starts, so run.py can count a run that aborts
// the process as attempted and failed.
void PrintBegin(const char* kind, int index) {
  std::printf("{\"kind\": \"begin\", \"of\": \"%s\", \"index\": %d}\n", kind,
              index);
  std::fflush(stdout);
}

// The cell's set-up and tear-down: the full config run for 1 us.
void SetupRun(const Workload& w, uint64_t seed, int index) {
  PrintBegin("setup", index);
  Timed t = TimeRun(MakeConfig(w, SimTime::Micros(1), seed));
  std::printf(
      "{\"kind\": \"setup\", \"index\": %d, \"wall_ns\": %.0f, "
      "\"crc_failures\": %llu}\n",
      index, t.wall_ns, static_cast<unsigned long long>(t.result.crc_failures));
  std::fflush(stdout);
}

int RunTimed(const Workload& w, uint64_t seed, double seconds) {
  const int k = w.seeds_per_run;
  // Set-up is cheap (about 12 us at 10 stations, 1 ms at 1000): a batch of
  // it lasts 0.2-20 ms, short enough for one burst of other tenants' work
  // on a shared host to slow all of it by half. A batch after every timed
  // run spreads the samples over the whole measured period, so run.py's
  // fastest set-up of the run comes from a quiet moment.
  constexpr int kSetupsPerRun = 16;
  int setups = 0;
  // Run 0 and run 1 both simulate seed index 0, and run 1 must be
  // BehaviourEquals to run 0; run i >= 1 simulates seed index (i - 1) % K,
  // so later repeats of a seed are checked by digest in run.py.
  ScenarioResult first;
  long peak_rss_kb = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    double elapsed_s = WallNs(start, std::chrono::steady_clock::now()) / 1e9;
    if (i > k && elapsed_s >= seconds) {
      break;
    }
    int si = i == 0 ? 0 : (i - 1) % k;
    uint64_t run_seed = DeriveRunSeed(seed, static_cast<uint64_t>(si));
    PrintBegin("run", i);
    Timed t = TimeRun(MakeConfig(w, w.duration, run_seed));
    const char* repeat_ok = "null";
    if (i == 0) {
      first = t.result;
    } else if (i == 1) {
      repeat_ok = t.result.BehaviourEquals(first) &&
                          t.result.events_executed == first.events_executed
                      ? "true"
                      : "false";
      first = ScenarioResult{};
    }
    PrintRun("run", i, si, run_seed, t.wall_ns, t.result, repeat_ok);
    for (int b = 0; b < kSetupsPerRun; ++b, ++setups) {
      SetupRun(w, DeriveRunSeed(seed, static_cast<uint64_t>(setups % k)),
               setups);
    }
    if (i == k) {
      // After the first pass over the seeds, which is the same work in the
      // same order on every machine; later repeats depend on its speed.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_kb = ru.ru_maxrss;
    }
  }
  PrintBegin("xcheck", 0);
  Timed x = TimeRun(MakeConfig(w, w.scale_duration, 1));
  PrintRun("xcheck", 0, -1, 1, x.wall_ns, x.result, "null");
  std::printf("{\"kind\": \"end\", \"peak_rss_kb\": %ld}\n", peak_rss_kb);
  return 0;
}

int RunTrace(const Workload& w, uint64_t seed, const std::string& spans_path) {
  const int k = w.seeds_per_run;
  for (int i = 0; i < k; ++i) {
    uint64_t run_seed = DeriveRunSeed(seed, static_cast<uint64_t>(i));
    PrintBegin("run", i);
    Timed t = TimeRun(MakeConfig(w, w.duration, run_seed));
    PrintRun("run", i, i, run_seed, t.wall_ns, t.result, "null");
  }
  Tracer tracer;
  std::vector<LayerResult> layers =
      RunLayerBenches(w, DeriveRunSeed(seed, 0), tracer);
  for (const LayerResult& l : layers) {
    std::printf(
        "{\"kind\": \"layer\", \"name\": \"%s\", \"median_ns\": %.3f, "
        "\"p99_ns\": %.3f, \"calls\": %llu}\n",
        l.name.c_str(), l.median_ns, l.p99_ns,
        static_cast<unsigned long long>(l.calls));
  }
  if (!tracer.Write(spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("{\"kind\": \"end\", \"spans\": %zu}\n", tracer.size());
  return 0;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: hackbench_runner info\n"
               "       hackbench_runner timed --workload W --seed S "
               "--seconds T\n"
               "       hackbench_runner trace --workload W --seed S "
               "--spans PATH\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  std::string mode = argv[1];
  if (mode == "info") {
    PrintInfo();
    return 0;
  }
  std::string workload, spans_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage();
    }
  }
  if (workload.empty() || !have_seed) {
    Usage();
  }
  const Workload& w = FindWorkload(workload);
  if (mode == "timed" && seconds > 0.0) {
    return RunTimed(w, seed, seconds);
  }
  if (mode == "trace" && !spans_path.empty()) {
    return RunTrace(w, seed, spans_path);
  }
  Usage();
}
