// Scenario harness: builds the paper's topologies (remote server — wired
// backhaul — AP — WLAN clients), runs them, and returns every statistic the
// evaluation section reports. Used by the integration tests, the examples
// and every bench binary.
//
// Topology (download):
//   server(10.0.0.1) ==500 Mbps/1 ms== AP(10.0.1.1) ~~802.11~~ client_i(10.0.2.i)
// Upload scenarios reverse the TCP direction; HACK's symmetry (§3.1) means
// the AP then plays the compressing role automatically.
#ifndef SRC_SCENARIO_DOWNLOAD_SCENARIO_H_
#define SRC_SCENARIO_DOWNLOAD_SCENARIO_H_

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "src/hack/hack_agent.h"
#include "src/mac80211/station_table.h"
#include "src/phy80211/loss_model.h"
#include "src/phy80211/propagation.h"
#include "src/phy80211/wifi_phy.h"
#include "src/scenario/fault_plan.h"
#include "src/scenario/traffic_model.h"
#include "src/sim/sim_watchdog.h"
#include "src/stats/experiment_stats.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace hacksim {

enum class TransportProto { kTcp, kUdp };

// Station placement. kRing is the legacy layout (clients on a circle of
// their ClientSpec::distance_m — on the fixed-loss channel only propagation
// *delay* ever depended on it). The other two exist for the geometric
// channel (ScenarioConfig::propagation):
//   kUniformDisk      — clients uniform over a disk of cell_radius_m around
//                       the AP; random hidden pairs and capture asymmetry.
//   kTwoClusterHidden — the classic hidden-terminal topology: two dense
//                       clusters 20 m either side of the AP, each in range
//                       of the AP, out of range of each other. Client i
//                       joins cluster i % 2, on a deterministic 4 m grid.
enum class Topology { kRing, kUniformDisk, kTwoClusterHidden };

struct ClientSpec {
  double distance_m = 5.0;
  // Per-MPDU data-frame loss seen by this client's radio (SoRa emulation);
  // ignored when the SNR model is active.
  double bernoulli_data_loss = 0.0;
  double bernoulli_control_loss = 0.0;
};

struct ScenarioConfig {
  WifiStandard standard = WifiStandard::k80211n;
  double data_rate_mbps = 150.0;
  int n_clients = 1;
  TransportProto proto = TransportProto::kTcp;
  HackVariant hack = HackVariant::kOff;
  // Reverse the transfer direction (TCP: clients send the file; UDP: every
  // client runs a CBR source toward the server — the contention-heavy
  // dense-cell workload).
  bool upload = false;

  // RTS/CTS virtual carrier sense on every MAC: data PPDUs whose PSDU
  // exceeds this many bytes are protected by the handshake. 0 (default)
  // disables it and keeps legacy scenarios bit-identical.
  size_t rts_threshold = 0;
  // Per-station ARF rate adaptation on every MAC; data_rate_mbps becomes
  // the starting rate.
  bool rate_adaptation = false;
  RateAdaptConfig rate_adapt;

  // 0 = time-bounded run; otherwise run until every sender completes.
  uint64_t file_bytes = 0;
  SimTime duration = SimTime::Seconds(20);
  // Stagger between consecutive clients' flow starts (mitigates phase
  // effects, §4.3).
  SimTime start_stagger = SimTime::Millis(250);

  // Paper §4.3: 126-packet AP queue per flow.
  size_t ap_queue_per_client = 126;
  SimTime txop_limit = SimTime::Millis(4);

  // Per-client overrides; padded with defaults to n_clients.
  std::vector<ClientSpec> clients;
  // SNR-driven loss (Figure 11); distances come from ClientSpec.
  std::optional<SnrLossModel::Params> snr;

  // Geometric channel: installing log-distance propagation engages
  // range-limited decode and SINR capture (see docs/channel.md). Unset
  // (default) keeps the legacy fixed-loss broadcast medium bit-identical.
  std::optional<LogDistancePropagation::Params> propagation;
  Topology topology = Topology::kRing;
  double cell_radius_m = 20.0;  // kUniformDisk

  // SoRa quirks (§4.1).
  SimTime extra_ack_delay;
  SimTime extra_ack_timeout;

  // 802.11e EDCA on every MAC: four access categories (VO/VI/BE/BK) with
  // per-AC contention parameters and queues, DSCP-classified at enqueue
  // (docs/qos.md). False (default) keeps the single-DCF legacy MAC
  // bit-identical.
  bool edca_enabled = false;
  // Mixed-workload traffic zoo. Empty (default) keeps the classic setup.
  // UDP scenarios: non-empty replaces every client's CBR source with a
  // TrafficSource whose model comes from ModelForStation over these
  // fractions. TCP download scenarios: non-empty keeps the TCP flows AND
  // adds one background TrafficSource per station (AP -> client, its own
  // port/seed namespace) — the HACK-vs-EDCA interaction workload. Each flow
  // owns a DeriveRunSeed-derived RNG stream.
  std::vector<TrafficMixEntry> traffic_mix;
  // Scales every traffic-model flow's offered load (TrafficSource::Config::
  // rate_scale); 1.0 = the models' natural rates.
  double traffic_rate_scale = 1.0;

  TcpConfig tcp;
  uint32_t udp_payload_bytes = 1472;
  double udp_rate_bps = 250e6;
  // Token-bucket pacing window for the UDP CBR sources: one refill event
  // per window releases every tick accrued (UdpCbrSource::Config). Zero
  // (default) means one refill event per packet, at its tick.
  SimTime udp_burst_window;

  // NAV-reset probes as armed per-overhearer events (the historical form)
  // instead of the default coalesced provisional deadline. Only the
  // equivalence tests should turn this on — see WifiMacConfig.
  bool legacy_nav_probe_events = false;

  HackAgentConfig hack_config;  // variant is overwritten from `hack`
  uint64_t seed = 1;

  // Fault injection (docs/robustness.md). Empty plan = no fault engine at
  // all: no extra events, no extra RNG draws, legacy outputs bit-identical.
  FaultPlan fault_plan;
  // Liveness watchdog audit cadence; zero (default) disables the watchdog
  // entirely (no events scheduled).
  SimTime watchdog_interval;
  // Abort with a repro recipe on a watchdog trip (production/fuzz mode);
  // false records the trip in WatchdogStats and continues (unit tests).
  bool watchdog_abort_on_trip = true;

  // Channel arrival scheduling. kBatched (one event per distinct arrival
  // nanosecond per PPDU) is the production path; kPerPhyEvent keeps the
  // historical one-event-per-PHY semantics for equivalence testing.
  ChannelDeliveryMode channel_delivery = ChannelDeliveryMode::kBatched;
};

struct ClientResult {
  double goodput_mbps = 0.0;         // full-run goodput
  double steady_goodput_mbps = 0.0;  // post-slow-start window
  uint64_t bytes_delivered = 0;
  MacStats mac;
  PhyStats phy;
  HackStats hack;
  TcpReceiverStats tcp_rx;
  TcpSenderStats tcp_tx;
  SimTime completion_time;  // file transfers only

  // Exact comparison backs the batched-delivery equivalence tests.
  friend bool operator==(const ClientResult&, const ClientResult&) = default;
};

struct ScenarioResult {
  std::vector<ClientResult> clients;
  MacStats ap_mac;
  PhyStats ap_phy;
  HackStats ap_hack;
  ChannelAirtime airtime;  // medium occupancy breakdown
  double aggregate_goodput_mbps = 0.0;
  double steady_aggregate_goodput_mbps = 0.0;
  SimTime sim_end;
  uint64_t crc_failures = 0;  // decompression CRC failures (must be 0)
  uint64_t tcp_timeouts = 0;  // summed over senders
  // Scheduler events fired over the whole run — the scale benches divide
  // this by airtime.ppdus to watch per-PPDU event cost.
  uint64_t events_executed = 0;
  // Same total, split by EventClass (indexed by static_cast<size_t>), so
  // ev/PPDU movement can be attributed to a subsystem without re-profiling.
  std::array<uint64_t, kEventClassCount> events_by_class{};

  // Fault-injection bookkeeping (all-zero when fault_plan is empty).
  FaultStats fault;
  WatchdogStats watchdog;
  // Aggregate goodput measured strictly after the plan's last recovery
  // event (ap-up or final join); 0 when the plan has no recovery events.
  // The churn/outage bench gates on this recovering vs the fault-free row.
  double post_fault_goodput_mbps = 0.0;
  // Scheduler slots still live at sim end — the leak audit the fuzz
  // driver bounds (stopped flows retain O(clients) stranded timers only).
  uint64_t final_pending_events = 0;

  // Per-AC enqueue→delivery latency over every UDP sink (indexed by the
  // kAcVo..kAcBk constants; all-zero counts on TCP scenarios). Legacy CBR
  // traffic is untagged and lands entirely in [kAcBe].
  std::array<LatencySummary, kNumAcs> ac_latency{};

  // Exact comparison backs the batched-delivery equivalence tests.
  // (events_executed intentionally participates *not* here: the two
  // delivery modes produce identical behaviour from fewer events.)
  bool BehaviourEquals(const ScenarioResult& other) const {
    return clients == other.clients && ap_mac == other.ap_mac &&
           ap_phy == other.ap_phy && ap_hack == other.ap_hack &&
           airtime == other.airtime &&
           aggregate_goodput_mbps == other.aggregate_goodput_mbps &&
           steady_aggregate_goodput_mbps ==
               other.steady_aggregate_goodput_mbps &&
           sim_end == other.sim_end && crc_failures == other.crc_failures &&
           tcp_timeouts == other.tcp_timeouts &&
           ac_latency == other.ac_latency;
  }
};

ScenarioResult RunScenario(const ScenarioConfig& config);

}  // namespace hacksim

#endif  // SRC_SCENARIO_DOWNLOAD_SCENARIO_H_
