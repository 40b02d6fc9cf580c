// campaign: multicore seed x topology x workload fan-out driver.
//
// Expands a matrix of independent simulation runs — every combination of
// topology (ring / disk / hidden), workload (udp / udp-up / tcp / tcp+hack)
// and `--seeds=K` replicate seeds — and fans it across a worker pool. Every
// run's seed is DeriveRunSeed(base_seed, matrix_index): a pure function of
// the matrix position, so the campaign produces bit-identical per-run
// results at any --jobs level (tests/campaign_test.cc pins this). Per-run
// lines stream in matrix order while later runs are still executing; the
// per-cell summary reports goodput mean / stddev / 95% CI across seeds.
//
//   campaign --jobs=8 --seeds=5 --stations=20           # saturate the box
//   campaign --jobs=1 ...                               # serial reference
//   campaign --json=/tmp/campaign.json ...              # machine-readable
//
// Exit code 0 on success; 2 on flag errors (an unknown flag, a number that
// does not parse completely or is out of range, or --json= without a
// path), each reported on one line. --help prints the usage and runs
// nothing.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/scenario/campaign.h"
#include "src/sim/random.h"
#include "src/util/stats.h"
#include "tools/cli_flags.h"

using namespace hacksim;

namespace {

struct TopoSpec {
  const char* name;
  Topology topology;
  bool geometric;       // install log-distance propagation
  size_t rts_threshold; // hidden cells need protection to deliver
};

struct WorkloadSpec {
  const char* name;
  TransportProto proto;
  HackVariant hack;
  bool upload;
};

constexpr TopoSpec kTopos[] = {
    {"ring", Topology::kRing, false, 0},
    {"disk", Topology::kUniformDisk, true, 0},
    {"hidden", Topology::kTwoClusterHidden, true, 500},
};

constexpr WorkloadSpec kWorkloads[] = {
    {"udp", TransportProto::kUdp, HackVariant::kOff, false},
    {"udp-up", TransportProto::kUdp, HackVariant::kOff, true},
    {"tcp", TransportProto::kTcp, HackVariant::kOff, false},
    {"tcp+hack", TransportProto::kTcp, HackVariant::kMoreData, false},
};

struct Cell {
  const TopoSpec* topo;
  const WorkloadSpec* workload;
  RunningStats goodput;
};

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = hardware_concurrency
  int seeds = 5;
  int stations = 20;
  int64_t duration_ms = 500;
  uint64_t base_seed = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "jobs", &value)) {
      ok = ParseNumber(value, 0, 256, &jobs);
    } else if (ParseFlag(argv[i], "seeds", &value)) {
      ok = ParseNumber(value, 1, 10'000, &seeds);
    } else if (ParseFlag(argv[i], "stations", &value)) {
      ok = ParseNumber(value, 1, 100'000, &stations);
    } else if (ParseFlag(argv[i], "duration-ms", &value)) {
      ok = ParseNumber(value, 1, 1'000'000'000, &duration_ms);
    } else if (ParseFlag(argv[i], "base-seed", &value)) {
      ok = ParseNumber(value, 0, UINT64_MAX, &base_seed);
    } else if (ParseFlag(argv[i], "json", &json_path)) {
      ok = !json_path.empty();
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: campaign [--jobs=N] [--seeds=K] [--stations=N] "
                  "[--duration-ms=D] [--base-seed=S] [--json=PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "campaign: unknown flag (see --help): %s\n",
                   argv[i]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "campaign: bad value (not a number in range, or "
                   "an empty path): %s\n", argv[i]);
      return 2;
    }
  }

  // Matrix expansion, in a fixed order: cell-major, seed-minor. The flat
  // index is the run's identity — its seed derives from it and nothing
  // else, so adding workers never moves a run's RNG streams.
  std::vector<Cell> cells;
  for (const TopoSpec& t : kTopos) {
    for (const WorkloadSpec& w : kWorkloads) {
      cells.push_back(Cell{&t, &w, {}});
    }
  }
  struct Run {
    size_t cell;
    int replicate;
    uint64_t seed;
    ScenarioConfig config;
  };
  std::vector<Run> runs;
  for (size_t c = 0; c < cells.size(); ++c) {
    for (int k = 0; k < seeds; ++k) {
      Run r;
      r.cell = c;
      r.replicate = k;
      r.seed = DeriveRunSeed(base_seed, runs.size());
      ScenarioConfig& cfg = r.config;
      cfg.standard = WifiStandard::k80211n;
      cfg.data_rate_mbps = 150.0;
      cfg.n_clients = stations;
      cfg.duration = SimTime::Millis(duration_ms);
      cfg.start_stagger =
          SimTime::Nanos(duration_ms * 1'000'000 / (5 * stations));
      cfg.seed = r.seed;
      const TopoSpec& t = *cells[c].topo;
      const WorkloadSpec& w = *cells[c].workload;
      cfg.topology = t.topology;
      if (t.geometric) {
        cfg.propagation = LogDistancePropagation::Params{};
      }
      cfg.rts_threshold = t.rts_threshold;
      cfg.proto = w.proto;
      cfg.hack = w.hack;
      cfg.upload = w.upload;
      if (w.proto == TransportProto::kUdp && w.upload) {
        cfg.udp_rate_bps = 2.5e9;  // saturated uplink contention
      }
      runs.push_back(std::move(r));
    }
  }

  std::printf("campaign: %zu runs (%zu cells x %d seeds), jobs=%d\n\n",
              runs.size(), cells.size(), seeds, ResolveJobs(jobs));

  std::vector<ScenarioResult> results(runs.size());
  uint64_t crc_failures = 0;
  ParallelForOrdered(
      runs.size(), jobs,
      [&](size_t i) { results[i] = RunScenario(runs[i].config); },
      [&](size_t i) {
        const Run& r = runs[i];
        const ScenarioResult& res = results[i];
        cells[r.cell].goodput.Add(res.aggregate_goodput_mbps);
        crc_failures += res.crc_failures;
        std::printf("run %3zu/%zu  %-6s %-8s seed=%-20llu goodput=%7.1f "
                    "events=%llu\n",
                    i + 1, runs.size(), cells[r.cell].topo->name,
                    cells[r.cell].workload->name,
                    static_cast<unsigned long long>(r.seed),
                    res.aggregate_goodput_mbps,
                    static_cast<unsigned long long>(res.events_executed));
        std::fflush(stdout);
      });

  std::printf("\n%-8s %-10s %5s %9s %9s %9s %9s %9s\n", "topo", "workload",
              "runs", "mean", "stddev", "ci95", "min", "max");
  for (const Cell& cell : cells) {
    std::printf("%-8s %-10s %5lld %9.1f %9.2f %9.2f %9.1f %9.1f\n",
                cell.topo->name, cell.workload->name,
                static_cast<long long>(cell.goodput.count()),
                cell.goodput.mean(), cell.goodput.stddev(),
                cell.goodput.Ci95HalfWidth(), cell.goodput.min(),
                cell.goodput.max());
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "campaign: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"campaign\",\n  \"base_seed\": "
                 "%llu,\n  \"cells\": [\n",
                 static_cast<unsigned long long>(base_seed));
    for (size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      std::fprintf(
          f,
          "    {\"topo\": \"%s\", \"workload\": \"%s\", \"stations\": %d, "
          "\"runs\": %lld, \"goodput_mean_mbps\": %.3f, "
          "\"goodput_stddev_mbps\": %.3f, \"goodput_ci95_mbps\": %.3f}%s\n",
          cell.topo->name, cell.workload->name, stations,
          static_cast<long long>(cell.goodput.count()), cell.goodput.mean(),
          cell.goodput.stddev(), cell.goodput.Ci95HalfWidth(),
          c + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (crc_failures != 0) {
    std::fprintf(stderr, "campaign: %llu decompression CRC failures\n",
                 static_cast<unsigned long long>(crc_failures));
    return 1;
  }
  return 0;
}
