// fault_fuzz: randomized fault-plan campaign driver.
//
// Each iteration derives a scenario (topology x transport x HACK variant x
// cell size) and a random FaultPlan from one meta-seed, then runs it with
// the liveness watchdog armed in abort mode. A wedged cell (stalled queue,
// NAV leak) aborts the process with a one-line repro recipe; the driver
// additionally asserts zero CRC failures, zero recorded trips and a bounded
// scheduler arena at sim end. Exit 0 means every plan survived.
//
// Plans fan out across a worker pool (--jobs=N, default all hardware
// threads; --jobs=1 is the legacy serial path). Every plan's scenario and
// fault plan derive purely from (base_seed + plan index), and the repro
// line is built from that derivation — so a FAIL line names the exact plan
// seed regardless of which worker ran it, and per-plan results (and the
// output text, streamed in plan order) are identical at any --jobs level.
//
//   fault_fuzz --plans=24 --base-seed=1              # CI quick gate
//   fault_fuzz --plans=240 --base-seed=1000 --jobs=8 # weekly campaign
//
// Exit code 2 on flag errors (an unknown flag, or a number that does not
// parse completely or is out of range), each reported on one line. --help
// prints the usage and runs nothing.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/scenario/campaign.h"
#include "src/scenario/fault_plan.h"
#include "src/sim/random.h"
#include "tools/cli_flags.h"

using namespace hacksim;

int main(int argc, char** argv) {
  int plans = 24;
  int jobs = 0;  // 0 = hardware_concurrency
  uint64_t base_seed = 1;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "plans", &value)) {
      ok = ParseNumber(value, 1, 1'000'000, &plans);
    } else if (ParseFlag(argv[i], "base-seed", &value)) {
      ok = ParseNumber(value, 0, UINT64_MAX, &base_seed);
    } else if (ParseFlag(argv[i], "jobs", &value)) {
      ok = ParseNumber(value, 0, 256, &jobs);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: fault_fuzz [--plans=N] [--base-seed=S] "
                  "[--jobs=N]\n");
      return 0;
    } else {
      std::fprintf(stderr, "fault_fuzz: unknown flag (see --help): %s\n",
                   argv[i]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "fault_fuzz: bad value (not a number in range): %s\n",
                   argv[i]);
      return 2;
    }
  }

  // Derive every plan's scenario up front, on the main thread, in plan
  // order: the derivation itself draws from the per-plan meta RNG, and
  // doing it here keeps the worker pool a pure RunScenario executor.
  struct Plan {
    ScenarioConfig config;
    const char* topo_name = "ring";
    const char* workload = "udp";
  };
  std::vector<Plan> specs(static_cast<size_t>(plans));
  for (int i = 0; i < plans; ++i) {
    Plan& p = specs[static_cast<size_t>(i)];
    Random meta(base_seed + static_cast<uint64_t>(i));

    ScenarioConfig& c = p.config;
    c.standard = WifiStandard::k80211n;
    c.data_rate_mbps = 150.0;
    c.n_clients = static_cast<int>(4 + meta.NextBounded(13));  // 4..16
    c.duration = SimTime::Millis(static_cast<int64_t>(
        250 + meta.NextBounded(250)));
    c.start_stagger = SimTime::Millis(2);
    c.seed = meta.NextU64();

    switch (meta.NextBounded(3)) {
      case 0:
        break;  // legacy ring / fixed-loss broadcast medium
      case 1:
        p.topo_name = "disk";
        c.topology = Topology::kUniformDisk;
        c.propagation = LogDistancePropagation::Params{};
        break;
      default:
        p.topo_name = "hidden";
        c.topology = Topology::kTwoClusterHidden;
        c.propagation = LogDistancePropagation::Params{};
        c.rts_threshold = meta.NextBool(0.5) ? 500 : 0;
        break;
    }

    switch (meta.NextBounded(3)) {
      case 0:
        c.proto = TransportProto::kUdp;
        c.upload = meta.NextBool(0.5);
        c.udp_rate_bps = 1.2e8;
        break;
      case 1:
        p.workload = "tcp";
        c.proto = TransportProto::kTcp;
        break;
      default:
        p.workload = "tcp+hack";
        c.proto = TransportProto::kTcp;
        c.hack = HackVariant::kMoreData;
        break;
    }

    uint64_t plan_seed = meta.NextU64();
    c.fault_plan = FaultPlan::Generate(plan_seed, c.n_clients, c.duration);
    c.watchdog_interval = SimTime::Millis(10);
    c.watchdog_abort_on_trip = true;  // a wedge aborts with the repro line
  }

  int failures = 0;
  std::vector<ScenarioResult> results(specs.size());
  ParallelForOrdered(
      specs.size(), jobs,
      [&](size_t i) { results[i] = RunScenario(specs[i].config); },
      [&](size_t idx) {
        int i = static_cast<int>(idx);
        const Plan& p = specs[idx];
        const ScenarioConfig& c = p.config;
        const ScenarioResult& r = results[idx];
        // A stopped flow strands at most a few timers per client; anything
        // beyond this bound means some subsystem leaks scheduler slots.
        uint64_t pending_bound =
            64 + 32 * static_cast<uint64_t>(c.n_clients);
        bool ok = r.watchdog.trips == 0 && r.crc_failures == 0 &&
                  r.final_pending_events <= pending_bound;
        if (!ok) {
          ++failures;
          std::fprintf(stderr,
                       "FAIL plan %d: trips=%llu crc=%llu pending=%llu "
                       "(bound %llu)\n  repro: seed=%llu topo=%s proto=%s "
                       "n=%d dur_us=%lld plan=\"%s\"\n",
                       i, static_cast<unsigned long long>(r.watchdog.trips),
                       static_cast<unsigned long long>(r.crc_failures),
                       static_cast<unsigned long long>(
                           r.final_pending_events),
                       static_cast<unsigned long long>(pending_bound),
                       static_cast<unsigned long long>(c.seed), p.topo_name,
                       p.workload, c.n_clients,
                       static_cast<long long>(c.duration.ns() / 1000),
                       c.fault_plan.ToString().c_str());
          return;
        }
        std::printf("ok plan %3d/%d  topo=%-6s proto=%-8s n=%2d  "
                    "faults=%llu checks=%llu goodput=%.1f\n",
                    i + 1, plans, p.topo_name, p.workload, c.n_clients,
                    static_cast<unsigned long long>(
                        c.fault_plan.events.size()),
                    static_cast<unsigned long long>(r.watchdog.checks),
                    r.aggregate_goodput_mbps);
        std::fflush(stdout);
      });

  if (failures != 0) {
    std::fprintf(stderr, "fault_fuzz: %d/%d plans FAILED\n", failures, plans);
    return 1;
  }
  std::printf("fault_fuzz: all %d plans survived (zero watchdog trips, zero "
              "CRC failures, bounded arena)\n",
              plans);
  return 0;
}
