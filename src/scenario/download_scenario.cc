#include "src/scenario/download_scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/apps/udp_app.h"
#include "src/node/node.h"
#include "src/util/logging.h"

namespace hacksim {
namespace {

constexpr uint16_t kServerPortBase = 5000;
constexpr uint16_t kClientPortBase = 6000;

// Two-cluster hidden-terminal geometry: AP <-> cluster centre, and the
// extent of each cluster's station grid.
constexpr double kClusterDistanceM = 20.0;
constexpr double kClusterSpreadM = 4.0;

// Everything one client owns, wherever the flow's ends sit: the client's
// node and radio, and its flow — a UDP sink plus one source, or a TCP
// sender/receiver pair (plus the background traffic-mix source and its
// sink on TCP downloads). The fault engine and the result collection read
// one record per client.
struct ClientEndpoint {
  std::unique_ptr<Node> node;
  std::unique_ptr<WifiNetDevice> device;
  std::unique_ptr<UdpSink> udp_sink;
  std::unique_ptr<UdpCbrSource> udp_source;
  std::unique_ptr<TrafficSource> traffic_source;
  std::unique_ptr<TcpSender> tcp_tx;
  std::unique_ptr<TcpReceiver> tcp_rx;
  // Currently associated and radio-on. A station whose first fault-plan
  // event is a join starts absent and is brought up by that event.
  bool present = true;
  // The flow's sources were started (or scheduled to start). A station
  // that begins absent starts its TCP sender at its first join.
  bool started = false;
  GoodputTracker tracker;
  SimTime completion;
  // Jitter chain for the TCP data path (UdpSink keeps its own).
  DelayChain tcp_delay_chain;
};

std::span<const WifiMode> ModeTable(WifiStandard standard) {
  return standard == WifiStandard::k80211a ? Modes80211a() : Modes80211n();
}

constexpr double kPi = 3.14159265358979;

// Client placement under the configured topology. kRing reproduces the
// historical formula exactly; the other layouts exist for the geometric
// channel. `placement_rng` is only drawn from for kUniformDisk, so legacy
// configurations consume no extra randomness.
Position PlaceClient(const ScenarioConfig& config, const ClientSpec& spec,
                     int i, Random& placement_rng) {
  switch (config.topology) {
    case Topology::kRing: {
      double angle = 2.0 * kPi * i / std::max(1, config.n_clients);
      return Position{spec.distance_m * std::cos(angle),
                      spec.distance_m * std::sin(angle)};
    }
    case Topology::kUniformDisk: {
      // Uniform over the disk, clamped away from the AP's exact position.
      double r = std::max(
          1.0, config.cell_radius_m * std::sqrt(placement_rng.NextDouble()));
      double theta = 2.0 * kPi * placement_rng.NextDouble();
      return Position{r * std::cos(theta), r * std::sin(theta)};
    }
    case Topology::kTwoClusterHidden: {
      // Client i joins cluster i % 2 (left / right of the AP); within the
      // cluster, a deterministic grid of fixed extent so cluster geometry
      // does not degrade as the cell grows.
      int cluster = i % 2;
      double sign = cluster == 0 ? -1.0 : 1.0;
      int j = i / 2;
      int per_cluster = (config.n_clients + 1 - cluster) / 2;
      int k = static_cast<int>(
          std::ceil(std::sqrt(static_cast<double>(per_cluster))));
      double step = k > 1 ? kClusterSpreadM / (k - 1) : 0.0;
      double half = kClusterSpreadM / 2.0;
      double ox = k > 1 ? (j % k) * step - half : 0.0;
      double oy = k > 1 ? (j / k) * step - half : 0.0;
      return Position{sign * kClusterDistanceM + ox, oy};
    }
  }
  return Position{};
}

}  // namespace

ScenarioResult RunScenario(const ScenarioConfig& config) {
  Scheduler scheduler;
  Random root_rng(config.seed);

  WifiMode data_mode =
      ModeForRate(ModeTable(config.standard), config.data_rate_mbps);

  // --- addresses -------------------------------------------------------------
  Ipv4Address server_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  Ipv4Address ap_ip = Ipv4Address::FromOctets(10, 0, 1, 1);
  auto client_ip = [](int i) {
    return Ipv4Address::FromOctets(10, 0, 2, static_cast<uint8_t>(i + 1));
  };
  MacAddress ap_mac_addr = MacAddress::ForStation(0);
  auto client_mac_addr = [](int i) {
    return MacAddress::ForStation(static_cast<uint32_t>(i + 1));
  };

  // --- channel / wired link ----------------------------------------------------
  WirelessChannel channel(&scheduler, config.channel_delivery);
  PointToPointLink wired(&scheduler);

  // --- MAC configs ----------------------------------------------------------------
  WifiMacConfig ap_mac_cfg;
  ap_mac_cfg.standard = config.standard;
  ap_mac_cfg.data_mode = data_mode;
  ap_mac_cfg.per_dest_queue_limit = config.ap_queue_per_client;
  ap_mac_cfg.txop_limit = config.txop_limit;
  ap_mac_cfg.extra_ack_delay = config.extra_ack_delay;
  ap_mac_cfg.extra_ack_timeout = config.extra_ack_timeout;
  ap_mac_cfg.rts_threshold = config.rts_threshold;
  ap_mac_cfg.legacy_nav_probe_events = config.legacy_nav_probe_events;
  ap_mac_cfg.edca_enabled = config.edca_enabled;
  ap_mac_cfg.enable_rate_adaptation = config.rate_adaptation;
  ap_mac_cfg.rate_adapt = config.rate_adapt;
  if (config.hack != HackVariant::kOff) {
    ap_mac_cfg.max_hack_payload_bytes = config.hack_config.max_payload_bytes;
  }
  if (!config.fault_plan.empty()) {
    // Bounded give-up on unreachable peers (crashed stations, AP outages).
    // Off on legacy paths: hidden-terminal rows have give-ups on live peers
    // and flushing those would change pinned outputs.
    ap_mac_cfg.dead_peer_flush_threshold = 2;
  }
  WifiMacConfig client_mac_cfg = ap_mac_cfg;
  client_mac_cfg.per_dest_queue_limit =
      std::max<size_t>(config.ap_queue_per_client, 1000);

  // --- AP ---------------------------------------------------------------------------
  auto ap_node = std::make_unique<Node>(ap_ip);
  auto ap_device = std::make_unique<WifiNetDevice>(
      &scheduler, &channel, ap_mac_addr, ap_mac_cfg, root_rng.Fork());
  ap_device->phy().set_position(Position{0.0, 0.0});
  HackAgentConfig hack_cfg = config.hack_config;
  hack_cfg.variant = config.hack;
  if (config.hack != HackVariant::kOff) {
    ap_device->EnableHack(hack_cfg);
  }
  ap_node->AttachWifi(ap_device.get());
  ap_node->AttachP2p(&wired, 1);
  ap_node->SetDefaultRoute(Node::Egress::kP2p, MacAddress());

  // --- server -----------------------------------------------------------------------
  auto server_node = std::make_unique<Node>(server_ip);
  server_node->AttachP2p(&wired, 0);
  server_node->SetDefaultRoute(Node::Egress::kP2p, MacAddress());

  // --- clients ----------------------------------------------------------------------
  std::vector<ClientSpec> specs = config.clients;
  specs.resize(static_cast<size_t>(config.n_clients));
  auto start_of = [&config](int i) { return config.start_stagger * i; };

  std::vector<ClientEndpoint> clients(config.n_clients);
  // Enqueue→delivery latency over every UDP sink and TCP receiving
  // handler, keyed by each packet's DSCP-derived AC. Pure recording (no
  // events, no RNG), so wiring it unconditionally cannot perturb legacy
  // runs.
  LatencyRecorder latency;

  // Only the disk layout draws placement randomness; forking lazily keeps
  // every legacy configuration's RNG streams untouched.
  Random placement_rng(0);
  if (config.topology == Topology::kUniformDisk) {
    placement_rng = root_rng.Fork();
  }

  // --- fault plan -----------------------------------------------------------
  FaultPlan plan = config.fault_plan;
  plan.SortByTime();
  const bool faults_enabled = !plan.empty();
  if (faults_enabled) {
    CHECK_LT(plan.MaxStation(), config.n_clients)
        << "fault plan references a station index beyond n_clients";
  }
  // Devices and RNG forks are created for every client regardless of
  // presence, so the per-client random streams never depend on the plan.
  if (faults_enabled) {
    for (int i = 0; i < config.n_clients; ++i) {
      if (plan.StartsAbsent(i)) {
        clients[i].present = false;
      }
    }
  }
  // Interference bursts need a gate on every PHY. Wrapping only when the
  // plan actually contains bursts keeps every other configuration's loss
  // models — and their RNG draw sequences — untouched.
  std::vector<GatedLossModel*> gated;
  auto install_loss = [&](WifiPhy& phy, std::unique_ptr<LossModel> inner) {
    if (!(faults_enabled && plan.HasBursts())) {
      if (inner != nullptr) {
        phy.set_loss_model(std::move(inner));
      }
      return;
    }
    auto gate = std::make_unique<GatedLossModel>(std::move(inner));
    gated.push_back(gate.get());
    phy.set_loss_model(std::move(gate));
  };

  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    ep.node = std::make_unique<Node>(client_ip(i));
    ep.device = std::make_unique<WifiNetDevice>(
        &scheduler, &channel, client_mac_addr(i), client_mac_cfg,
        root_rng.Fork());
    ep.device->phy().set_position(
        PlaceClient(config, specs[i], i, placement_rng));
    std::unique_ptr<LossModel> client_loss;
    if (config.snr.has_value()) {
      client_loss = std::make_unique<SnrLossModel>(*config.snr);
    } else if (specs[i].bernoulli_data_loss > 0.0 ||
               specs[i].bernoulli_control_loss > 0.0) {
      client_loss = std::make_unique<BernoulliLossModel>(
          specs[i].bernoulli_data_loss, specs[i].bernoulli_control_loss);
    }
    install_loss(ep.device->phy(), std::move(client_loss));
    if (config.hack != HackVariant::kOff) {
      ep.device->EnableHack(hack_cfg);
    }
    ep.node->AttachWifi(ep.device.get());
    ep.node->SetDefaultRoute(Node::Egress::kWifi, ap_mac_addr);

    // AP routes to this client over the WLAN.
    ap_node->AddRoute(client_ip(i), Node::Egress::kWifi, client_mac_addr(i));

    // Associate both ways so StationIds are dense and deterministic (client
    // i is station i at the AP) before any traffic flows. Stations whose
    // first fault-plan event is a join start absent instead.
    if (ep.present) {
      ap_device->mac().Associate(client_mac_addr(i));
      ep.device->mac().Associate(ap_mac_addr);
    }
  }

  // If the AP uses the SNR model for receptions from clients, attach it too
  // (uplink ACKs/data suffer symmetrically).
  std::unique_ptr<LossModel> ap_loss;
  if (config.snr.has_value()) {
    ap_loss = std::make_unique<SnrLossModel>(*config.snr);
  }
  install_loss(ap_device->phy(), std::move(ap_loss));

  // Geometric channel: installed after every PHY is attached and positioned
  // (set_propagation validates that no node sits at the implicit origin).
  if (config.propagation.has_value()) {
    channel.set_propagation(
        std::make_unique<LogDistancePropagation>(*config.propagation));
  }

  // --- flows ------------------------------------------------------------------------
  // One wiring path for both directions and every source kind. The
  // direction picks the sending node, the receiving node and the
  // five-tuple; HACK's symmetry (§3.1) means nothing else changes. The
  // protocol then adds a UDP sink plus one source, or a TCP sender/receiver
  // pair. The fault engine stops and resumes the UDP sources; a TCP sender
  // is started late for a station that begins absent, and an established
  // one rides out an outage on its own retransmit timers.
  auto send_via = [](Node* node) {
    return [node](Packet p) { node->Send(std::move(p)); };
  };
  auto add_sink = [&](ClientEndpoint& ep, Node* node, uint16_t port) {
    ep.udp_sink = std::make_unique<UdpSink>(&scheduler);
    ep.udp_sink->set_latency_recorder(&latency);
    node->RegisterHandler(port, [sink = ep.udp_sink.get()](const Packet& p) {
      sink->OnPacket(p);
    });
  };
  // Traffic zoo: one modelled flow for station i. Per-flow seeds live in a
  // dedicated DeriveRunSeed index namespace (`seed_base` + i), so they can
  // never collide with campaign run indices derived from the same base
  // seed.
  auto make_traffic_source = [&](int i, uint64_t seed_base, FiveTuple flow,
                                 Node* from) {
    TrafficSource::Config src_cfg;
    src_cfg.model = ModelForStation(config.traffic_mix,
                                    static_cast<size_t>(i),
                                    static_cast<size_t>(config.n_clients));
    src_cfg.start = start_of(i);
    src_cfg.stop = config.duration;
    src_cfg.seed =
        DeriveRunSeed(config.seed, seed_base + static_cast<uint64_t>(i));
    src_cfg.rate_scale = config.traffic_rate_scale;
    return std::make_unique<TrafficSource>(&scheduler, src_cfg, flow,
                                           send_via(from));
  };
  const bool udp = config.proto == TransportProto::kUdp;
  int completed = 0;
  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    uint16_t server_port = static_cast<uint16_t>(kServerPortBase + i);
    uint16_t client_port = static_cast<uint16_t>(kClientPortBase + i);
    uint8_t ip_proto = udp ? kIpProtoUdp : kIpProtoTcp;
    Node* src = config.upload ? ep.node.get() : server_node.get();
    Node* dst = config.upload ? server_node.get() : ep.node.get();
    FiveTuple flow =
        config.upload
            ? FiveTuple{client_ip(i), server_ip, client_port, server_port,
                        ip_proto}
            : FiveTuple{server_ip, client_ip(i), server_port, client_port,
                        ip_proto};

    if (udp) {
      // On uploads every client contends for the medium — the dense-cell
      // collision workload RTS/CTS exists for.
      add_sink(ep, dst, flow.dst_port);
      if (config.traffic_mix.empty()) {
        UdpCbrSource::Config src_cfg;
        src_cfg.rate_bps = config.udp_rate_bps / config.n_clients;
        src_cfg.payload_bytes = config.udp_payload_bytes;
        src_cfg.start = start_of(i);
        src_cfg.stop = config.duration;
        src_cfg.burst_window = config.udp_burst_window;
        ep.udp_source = std::make_unique<UdpCbrSource>(&scheduler, src_cfg,
                                                       flow, send_via(src));
      } else {
        ep.traffic_source =
            make_traffic_source(i, uint64_t{1} << 32, flow, src);
      }
    } else {
      if (!config.traffic_mix.empty() && !config.upload) {
        // TCP + traffic mix: the TCP download stays the measured
        // foreground, and each station additionally sinks one modelled
        // background flow from the AP side — the HACK-vs-EDCA interaction
        // workload (compressed-ACK batches contending with tagged
        // voice/video). Background flows live in their own port range
        // (7000+i) and seed namespace (2^33 + i), so neither the TCP ports
        // nor the UDP-mix seed streams can collide.
        uint16_t bg_port = static_cast<uint16_t>(7000 + i);
        add_sink(ep, ep.node.get(), bg_port);
        ep.traffic_source = make_traffic_source(
            i, uint64_t{1} << 33,
            FiveTuple{server_ip, client_ip(i), bg_port, bg_port, kIpProtoUdp},
            server_node.get());
      }
      ep.tcp_tx = std::make_unique<TcpSender>(
          &scheduler, config.tcp, flow, send_via(src), config.file_bytes);
      ep.tcp_rx = std::make_unique<TcpReceiver>(&scheduler, config.tcp, flow,
                                                send_via(dst));
      ep.tcp_rx->on_data = [&ep, &scheduler](uint64_t bytes) {
        ep.tracker.OnBytesDelivered(scheduler.Now(), bytes);
      };
      // TCP data segments are recorded at the receiving handler, like
      // UdpSink's deliveries.
      dst->RegisterHandler(
          flow.dst_port,
          [rx = ep.tcp_rx.get(), &ep, &latency, &scheduler](const Packet& p) {
            if (p.payload_bytes() > 0) {
              latency.RecordDelivery(p, scheduler.Now(), ep.tcp_delay_chain);
            }
            rx->OnPacket(p);
          });
      src->RegisterHandler(flow.src_port,
                           [tx = ep.tcp_tx.get()](const Packet& p) {
                             tx->OnPacket(p);
                           });
      ep.tcp_tx->on_complete = [&ep, &scheduler, &completed]() {
        ep.completion = scheduler.Now();
        ++completed;
      };
    }

    if (ep.present) {
      // A TCP+mix station starts its background source first, then its
      // TCP flow.
      if (ep.udp_source != nullptr) {
        ep.udp_source->Start();
      }
      if (ep.traffic_source != nullptr) {
        ep.traffic_source->Start();
      }
      if (ep.tcp_tx != nullptr) {
        scheduler.ScheduleAt(start_of(i),
                             [tx = ep.tcp_tx.get()]() { tx->Start(); });
      }
      ep.started = true;
    }
  }

  // --- fault engine + watchdog ------------------------------------------------------
  const char* topo_name = config.topology == Topology::kRing ? "ring"
                          : config.topology == Topology::kUniformDisk
                              ? "disk"
                              : "hidden";
  std::string repro =
      "seed=" + std::to_string(config.seed) + " topo=" + topo_name +
      " proto=" + std::string(udp ? "udp" : "tcp") +
      (config.upload ? "-up" : "") +
      " n=" + std::to_string(config.n_clients) +
      " dur_us=" + std::to_string(config.duration.ns() / 1000);
  if (faults_enabled) {
    repro += " plan=\"" + plan.ToString() + "\"";
  }
  // Any CHECK failure from here on prints the full repro recipe.
  SetAbortContext(repro);

  FaultStats fault_stats;
  if (faults_enabled) {
    auto apply = [&](const FaultEvent& ev) {
      fault_stats.last_fault_time = scheduler.Now();
      switch (ev.type) {
        case FaultType::kCrash:
        case FaultType::kLeave: {
          ClientEndpoint& ep = clients[ev.station];
          if (!ep.present) break;
          ep.present = false;
          if (ev.type == FaultType::kLeave) {
            // Clean departure: the AP is told and frees the station's
            // queue, service slot and StationId immediately.
            ap_device->mac().Disassociate(client_mac_addr(ev.station));
            ++fault_stats.leaves;
          } else {
            // Silent crash: the AP finds out the hard way (retry give-ups
            // feeding the dead-peer flush).
            ++fault_stats.crashes;
          }
          if (ep.udp_source != nullptr) {
            ep.udp_source->Stop();
          }
          if (ep.traffic_source != nullptr) {
            ep.traffic_source->Stop();
          }
          ep.device->phy().SetRadioOn(false);
          ep.device->mac().ResetRadioState();
          break;
        }
        case FaultType::kJoin: {
          ClientEndpoint& ep = clients[ev.station];
          if (ep.present) break;
          ep.present = true;
          ++fault_stats.joins;
          fault_stats.last_recovery_time = scheduler.Now();
          ep.device->phy().SetRadioOn(true);
          // Fresh association both ways; Associate() scrubs whatever state
          // the AP still holds from the station's previous life.
          ap_device->mac().Associate(client_mac_addr(ev.station));
          ep.device->mac().Associate(ap_mac_addr);
          // Independent ifs, not an else-chain: a TCP+mix station owns both
          // a background TrafficSource (resumed) and a TCP sender (started
          // once).
          if (ep.udp_source != nullptr) {
            ep.udp_source->Resume(scheduler.Now(), config.duration);
          }
          if (ep.traffic_source != nullptr) {
            ep.traffic_source->Resume(scheduler.Now(), config.duration);
          }
          if (ep.tcp_tx != nullptr && !ep.started) {
            ep.tcp_tx->Start();
          }
          ep.started = true;
          break;
        }
        case FaultType::kRadioReset: {
          ClientEndpoint& ep = clients[ev.station];
          if (!ep.present) break;
          ++fault_stats.radio_resets;
          ep.device->phy().SetRadioOn(false);
          ep.device->mac().ResetRadioState();
          ep.device->phy().SetRadioOn(true);
          // Only the client re-associates: the AP never saw the reset, and
          // its live downlink queue toward the station must survive it.
          ep.device->mac().Associate(ap_mac_addr);
          break;
        }
        case FaultType::kApDown: {
          ++fault_stats.ap_outages;
          ap_device->phy().SetRadioOn(false);
          ap_device->mac().ResetRadioState();
          break;
        }
        case FaultType::kApUp: {
          ++fault_stats.ap_restarts;
          fault_stats.last_recovery_time = scheduler.Now();
          ap_device->phy().SetRadioOn(true);
          // Rebuild association state for every station still present, in
          // index order — StationIds come out dense, exactly like at boot.
          // The stations reassociate too: reassociation tears down both
          // sides' Block ACK windows, so the restarted AP's fresh sequence
          // numbers are not discarded as ancient duplicates.
          for (int i = 0; i < config.n_clients; ++i) {
            if (clients[i].present) {
              ap_device->mac().Associate(client_mac_addr(i));
              clients[i].device->mac().Associate(ap_mac_addr);
            }
          }
          break;
        }
        case FaultType::kBurstStart: {
          ++fault_stats.bursts;
          for (GatedLossModel* gate : gated) {
            gate->set_extra_loss(ev.extra_loss);
          }
          break;
        }
        case FaultType::kBurstEnd: {
          for (GatedLossModel* gate : gated) {
            gate->set_extra_loss(0.0);
          }
          break;
        }
      }
    };
    for (const FaultEvent& ev : plan.events) {
      scheduler.ScheduleAt(ev.at, [apply, ev]() { apply(ev); });
    }
  }

  WatchdogConfig wd_cfg;
  wd_cfg.interval = config.watchdog_interval;
  wd_cfg.abort_on_trip = config.watchdog_abort_on_trip;
  SimWatchdog watchdog(&scheduler, wd_cfg);
  if (!wd_cfg.interval.IsZero()) {
    // Forward progress = PPDUs on the medium; a station holding backlog
    // while the channel stays silent for several audit periods is a stall.
    watchdog.set_progress_probe(
        [&channel]() { return channel.airtime().ppdus; });
    watchdog.set_backlog_probe([&clients, ap = ap_device.get()]() {
      if (ap->mac().HasBacklog()) return true;
      for (const ClientEndpoint& ep : clients) {
        if (ep.device->mac().HasBacklog()) return true;
      }
      return false;
    });
    watchdog.set_nav_probe([&clients, ap = ap_device.get()]() {
      SimTime nav = ap->mac().nav_until();
      for (const ClientEndpoint& ep : clients) {
        nav = std::max(nav, ep.device->mac().nav_until());
      }
      return nav;
    });
    watchdog.set_repro(repro);
    watchdog.Start();
  }

  // --- run ----------------------------------------------------------------------------
  SimTime end;
  if (config.file_bytes > 0 && !udp) {
    // Run until all transfers complete (bounded by a generous cap).
    SimTime cap = config.duration * 50;
    while (completed < config.n_clients && scheduler.Now() < cap) {
      if (scheduler.Run(200'000) == 0) {
        break;  // queue drained (stall would be a bug; tests check this)
      }
    }
    end = scheduler.Now();
  } else {
    scheduler.RunUntil(config.duration);
    end = config.duration;
  }

  // --- collect ---------------------------------------------------------------------------
  ScenarioResult result;
  result.sim_end = end;
  result.airtime = channel.airtime();
  result.events_executed = scheduler.events_executed();
  for (size_t i = 0; i < kEventClassCount; ++i) {
    result.events_by_class[i] =
        scheduler.executed_in_class(static_cast<EventClass>(i));
  }
  result.ap_mac = ap_device->mac().stats();
  result.ap_phy = ap_device->phy().stats();
  if (ap_device->hack() != nullptr) {
    result.ap_hack = ap_device->hack()->stats();
    result.crc_failures += result.ap_hack.crc_failures_at_ap;
  }

  SimTime steady_from = specs.empty() ? SimTime::Zero()
                                      : start_of(config.n_clients - 1) +
                                            SimTime::Seconds(2);
  if (steady_from >= end) {
    steady_from = SimTime::Nanos(end.ns() / 2);
  }

  // Recovery goodput: aggregate strictly after the plan's last recovery
  // event (the churn/outage bench gates this against the fault-free row).
  SimTime recovery = fault_stats.last_recovery_time;
  const bool after_recovery = !recovery.IsZero() && recovery < end;

  for (int i = 0; i < config.n_clients; ++i) {
    ClientEndpoint& ep = clients[i];
    ClientResult cr;
    // UDP flows count at their sink, TCP flows at the receiver's on_data.
    const GoodputTracker& tracker = udp ? ep.udp_sink->tracker() : ep.tracker;
    cr.bytes_delivered = tracker.total_bytes();
    // A file transfer measures up to its completion; everything else runs
    // to the end.
    SimTime measure_end = ep.completion.IsZero() ? end : ep.completion;
    if (udp) {
      cr.goodput_mbps = tracker.TotalGoodputMbps(end);
    } else {
      cr.goodput_mbps = static_cast<double>(cr.bytes_delivered) * 8.0 /
                        std::max<int64_t>(1, (measure_end -
                                              start_of(i)).ns()) *
                        1e9 / 1e6;
      cr.completion_time = ep.completion;
      // ClientResult carries the client's own TCP end: the receiver on
      // downloads, the sender on uploads. Timeouts count every sender.
      if (config.upload) {
        cr.tcp_tx = ep.tcp_tx->stats();
      } else {
        cr.tcp_rx = ep.tcp_rx->stats();
      }
      result.tcp_timeouts += ep.tcp_tx->stats().timeouts;
    }
    if (steady_from < measure_end) {
      cr.steady_goodput_mbps = tracker.GoodputMbps(steady_from, measure_end);
    }
    cr.mac = ep.device->mac().stats();
    cr.phy = ep.device->phy().stats();
    if (ep.device->hack() != nullptr) {
      cr.hack = ep.device->hack()->stats();
      result.crc_failures += cr.hack.crc_failures_at_ap;
    }
    result.aggregate_goodput_mbps += cr.goodput_mbps;
    result.steady_aggregate_goodput_mbps += cr.steady_goodput_mbps;
    if (after_recovery) {
      result.post_fault_goodput_mbps += tracker.GoodputMbps(recovery, end);
    }
    result.clients.push_back(std::move(cr));
  }

  result.fault = fault_stats;
  result.watchdog = watchdog.stats();
  result.final_pending_events = scheduler.pending_events();
  for (uint8_t ac = 0; ac < kNumAcs; ++ac) {
    result.ac_latency[ac] = latency.Summarize(ac);
  }
  return result;
}

}  // namespace hacksim
