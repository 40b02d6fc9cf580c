// Figure 10: aggregate steady-state TCP goodput at 150 Mbps for 1/2/4/10
// clients, comparing UDP, TCP/HACK (MORE DATA), TCP/opportunistic-HACK and
// stock TCP/802.11n.
// Paper: UDP ~flat at ~135 Mbps; MORE DATA best (gains 15% at 1 client to
// 22% at 10); opportunistic ~= stock; stock declines slightly with clients.
#include "bench/bench_util.h"

using namespace hacksim;

namespace {

double Run(int n_clients, TransportProto proto, HackVariant hack,
           uint64_t seed) {
  ScenarioConfig c;
  c.standard = WifiStandard::k80211n;
  c.data_rate_mbps = 150.0;
  c.n_clients = n_clients;
  c.proto = proto;
  c.hack = hack;
  c.duration = RunSeconds(5);
  c.seed = seed;
  return RunScenario(c).steady_aggregate_goodput_mbps;
}

}  // namespace

int main() {
  PrintHeader("bench_fig10_goodput",
              "Figure 10 (aggregate goodput vs client count, 150 Mbps)");
  std::printf("%-9s %10s %14s %12s %12s %9s\n", "clients", "UDP",
              "HACK(MoreData)", "HACK(Opp)", "TCP/802.11", "gain%");
  for (int n : {1, 2, 4, 10}) {
    Series udp, more_data, opp, stock;
    for (int seed = 1; seed <= Seeds(); ++seed) {
      udp.Add(Run(n, TransportProto::kUdp, HackVariant::kOff, seed));
      more_data.Add(
          Run(n, TransportProto::kTcp, HackVariant::kMoreData, seed));
      opp.Add(
          Run(n, TransportProto::kTcp, HackVariant::kOpportunistic, seed));
      stock.Add(Run(n, TransportProto::kTcp, HackVariant::kOff, seed));
    }
    std::printf("%-9d %10.1f %14.1f %12.1f %12.1f %8.1f%%\n", n, udp.mean(),
                more_data.mean(), opp.mean(), stock.mean(),
                100.0 * (more_data.mean() / stock.mean() - 1.0));
  }
  std::printf("\npaper: UDP ~135 flat; MoreData gains 15%% (1 client) to "
              "22%% (10); opportunistic ~= stock\n");
  std::printf("gap: our 802.11n MoreData gains (gain%% column) sit below "
              "the paper's 15-22%% band; the cause is not yet isolated\n");
  return 0;
}
