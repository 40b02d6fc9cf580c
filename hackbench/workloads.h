// The benchmark's three named cells (README.md says why each was chosen).
// Every cell is built through the public ScenarioConfig; the benchmark
// only chooses parameters and never reaches into the simulator.
#ifndef HACKBENCH_WORKLOADS_H_
#define HACKBENCH_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/phy80211/wifi_phy.h"
#include "src/scenario/download_scenario.h"

namespace hackbench {

struct Workload {
  const char* name;
  int stations;
  // Simulated length of one timed run.
  hacksim::SimTime duration;
  // bench_scale's length for this cell (it sets the start stagger too); the
  // cross-check runs the cell at this length and seed 1, and run.py
  // compares it with the committed BENCH_scale.json row.
  hacksim::SimTime scale_duration;
  // Distinct seeds per benchmark run, DeriveRunSeed(seed, 0..K-1). The
  // simulated metrics come from each seed's first run; later runs repeat
  // seeds and must reproduce them exactly.
  int seeds_per_run;
  hacksim::TransportProto proto;
  hacksim::HackVariant hack;
  bool upload;
  size_t rts_threshold;
  bool rate_adaptation;
  double udp_rate_bps;  // 0 = the scenario default
  hacksim::Topology topology;
};

const std::vector<Workload>& AllWorkloads();
// Aborts with a message listing the known names.
const Workload& FindWorkload(std::string_view name);

// The cell at `duration` (the start stagger stays bench_scale's, so only
// the run length differs from the committed row's cell).
hacksim::ScenarioConfig MakeConfig(const Workload& w, hacksim::SimTime duration,
                                   uint64_t seed);

// Per-station MAC configuration RunScenario gives every client of the cell.
hacksim::WifiMacConfig ClientMacConfig(const Workload& w);

// Radio positions of the cell at `seed`: index 0 is the AP, then the
// stations. Mirrors RunScenario's placement stream for the disk layout.
std::vector<hacksim::Position> RadioPositions(const Workload& w, uint64_t seed);

// True when the cell runs the geometric (log-distance) channel.
inline bool Geometric(const Workload& w) {
  return w.topology != hacksim::Topology::kRing;
}

}  // namespace hackbench

#endif  // HACKBENCH_WORKLOADS_H_
