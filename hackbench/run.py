#!/usr/bin/env python3
"""hackbench: the repository's benchmark (see README.md in this directory).

Usage, from the root of a checkout:
  python3 hackbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hackbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark runner (Release) into
.bench_build/hackbench, runs the workload in one single-threaded runner
process, checks every run's outputs, and prints a human-readable report
followed, as the last line, by one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the traced pass's spans under .bench_build/spans/. Every result is
also written, with its environment record and the runner's raw output,
under .bench_build/results/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "hackbench")
RUNNER = os.path.join(BUILD, "hackbench_runner")

WORKLOADS = ["paper-tcp-hack-10", "dense-uplink-rts-1000", "disk-uplink-rts-1000"]
# 1-minute load average above which a result is flagged as taken on a busy
# machine: more than one other core's worth of work.
LOAD_THRESHOLD = 1.0
RUNNER_TIMEOUT_S = 170

# Every key run.py reads from a run record; a record missing one is a
# failed run.
RUN_KEYS = (
    "index", "seed_index", "seed", "wall_ns", "sim_s", "ppdus",
    "goodput_mbps", "bytes", "crc_failures", "digest", "repeat_ok",
    "events", "ev_channel", "ev_dcf", "ev_mac", "ev_transport",
    "out_of_range", "collision_ns", "busy_ns", "captures", "overlap_losses",
    "first_try", "retried", "retry_drops", "mpdu_attempts", "data_ppdus",
    "rts_sent", "cts_timeouts", "stations", "served_stations",
    "delay_p50_ms", "delay_p99_ms", "delay_samples", "hack_unique",
    "hack_unique_bytes", "hack_vanilla", "hack_demotions", "hack_recovered",
    "tcp_segments_received", "tcp_acks_sent", "tcp_dupacks_sent",
    "tcp_timeouts",
)

END_TO_END = [
    ("host_us_per_ppdu", "us"),
    ("host_ms_per_sim_s", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_mbps", "Mb/s"),
]

# Traced per-layer metrics: the bench's span name for each is in
# hackbench/layers.cc. Each is reported as the median over spans of self
# time per call, plus ".p99".
TRACED = [
    "sim.ns_per_event",
    "packet.ns_per_tcp_packet",
    "phy80211.ns_per_ppdu",
    "phy80211.ns_per_arrival",
    "mac80211.ns_per_exchange",
    "mac80211.ns_per_bystander_ppdu",
    "hack.ns_per_ack",
    "rohc.compress_ns",
    "rohc.decompress_ns",
    "tcp.sender_ns_per_ack",
    "tcp.receiver_ns_per_segment",
]

COUNTED = [
    ("sim.events_per_ppdu", "ev/ppdu"),
    ("sim.channel_events_per_ppdu", "ev/ppdu"),
    ("sim.dcf_events_per_ppdu", "ev/ppdu"),
    ("sim.transport_events_per_ppdu", "ev/ppdu"),
    ("phy80211.out_of_range_per_ppdu", "pairs/ppdu"),
    ("phy80211.collision_airtime_share", "share"),
    ("phy80211.capture_ratio", "ratio"),
    ("mac80211.first_try_fraction", "ratio"),
    ("mac80211.mpdus_per_data_ppdu", "mpdu/ppdu"),
    ("mac80211.cts_timeout_ratio", "ratio"),
    ("mac80211.retry_limit_drops", "count"),
    ("mac80211.served_station_share", "share"),
    ("mac80211.sim_delay_p50_ms", "ms"),
    ("mac80211.sim_delay_p99_ms", "ms"),
    ("mac80211.sim_delay_samples", "count"),
    ("hack.ride_ratio", "ratio"),
    ("hack.compression_ratio", "ratio"),
    ("hack.demotions", "count"),
    ("tcp.acks_per_segment", "ack/segment"),
    ("tcp.dupacks_sent", "count"),
    ("tcp.timeouts", "count"),
    ("trace.explained_share", "share"),
]


def per_layer_names():
    names = []
    for t in TRACED:
        names += [(t, "ns"), (t + ".p99", "ns")]
    return names + COUNTED


# --- judging runs ------------------------------------------------------------


def judge(records, scale_row=None):
    """Counts attempted and failed operations in the runner's output.

    Every RunScenario the runner announces with a "begin" record is one
    attempted operation. It fails if it never reports (the process
    aborted), if its record lacks a key, if it reports CRC failures, if a
    timed or cross-check run delivered zero bytes, if it repeats a seed but
    is not BehaviourEquals to that seed's first run or its digest differs,
    or if the cross-check run does not reproduce its BENCH_scale.json row.
    Returns (attempted, [(kind, index, reason), ...]).
    """
    begun = [(r.get("of"), r.get("index")) for r in records
             if r.get("kind") == "begin"]
    reported = {}
    for r in records:
        if r.get("kind") in ("run", "setup", "xcheck"):
            reported[(r["kind"], r.get("index"))] = r
    failures = []
    first_digest = {}
    for key in begun:
        kind, index = key
        r = reported.get(key)
        if r is None:
            failures.append((kind, index, "aborted before reporting"))
            continue
        needed = ("wall_ns", "crc_failures") if kind == "setup" else RUN_KEYS
        missing = [k for k in needed if k not in r]
        if missing:
            failures.append((kind, index, "missing " + ", ".join(missing)))
            continue
        if r["crc_failures"] != 0:
            failures.append((kind, index, "%d CRC failures" % r["crc_failures"]))
        if kind == "setup":
            continue
        if r["bytes"] == 0:
            failures.append((kind, index, "delivered zero bytes"))
        if kind == "run":
            si = r["seed_index"]
            if r["repeat_ok"] is False:
                failures.append((kind, index, "not BehaviourEquals to the "
                                 "first run of seed %d" % si))
            if si in first_digest and first_digest[si] != r["digest"]:
                failures.append((kind, index, "digest %s differs from the first "
                                 "run of seed %d (%s)"
                                 % (r["digest"], si, first_digest[si])))
            first_digest.setdefault(si, r["digest"])
        if kind == "xcheck" and scale_row is not None:
            for field, want, got in cross_check(r, scale_row):
                if want != got:
                    failures.append((kind, index, "%s %s != BENCH_scale.json %s"
                                     % (field, got, want)))
    return len(begun), failures


def cross_check(run, row):
    """(field, committed, reproduced) triples, formatted as bench_scale does."""
    return [
        ("events", row["events"], run["events"]),
        ("ppdus", row["ppdus"], run["ppdus"]),
        ("goodput_mbps", "%.3f" % row["goodput_mbps"], "%.3f" % run["goodput_mbps"]),
    ]


def scale_row(workload):
    """The committed BENCH_scale.json row this workload reproduces, or None."""
    spec = {
        "paper-tcp-hack-10": (10, "tcp", "moredata"),
        "dense-uplink-rts-1000": (1000, "udp-rts", "off"),
    }.get(workload)
    path = os.path.join(ROOT, "BENCH_scale.json")
    if spec is None or not os.path.exists(path):
        return None
    with open(path) as f:
        rows = json.load(f)["rows"]
    for row in rows:
        if (row["stations"], row["proto"], row["hack"]) == spec:
            return row
    return None


# --- metrics -----------------------------------------------------------------


def first_runs(records):
    """Each seed's first timed run, in seed order."""
    seen = {}
    for r in records:
        if r.get("kind") == "run" and all(k in r for k in RUN_KEYS):
            seen.setdefault(r["seed_index"], r)
    return [seen[k] for k in sorted(seen)]


def timed_runs(records):
    """Timed runs after the first, which warms the process up."""
    return [r for r in records if r.get("kind") == "run"
            and all(k in r for k in RUN_KEYS) and r["index"] >= 1]


def digest(records):
    h = hashlib.sha256()
    for r in first_runs(records):
        h.update(r["digest"].encode())
    return h.hexdigest()[:16]


def end_to_end(records):
    """The five end-to-end metrics, or None for any that cannot be computed."""
    timed = timed_runs(records)
    setups = [r["wall_ns"] for r in records
              if r.get("kind") == "setup" and "wall_ns" in r]
    end = [r for r in records if r.get("kind") == "end"]
    firsts = first_runs(records)
    m = {}
    m["host_us_per_ppdu"] = (statistics.median(
        r["wall_ns"] / r["ppdus"] / 1e3 for r in timed)
        if timed and all(r["ppdus"] > 0 for r in timed) else None)
    m["host_ms_per_sim_s"] = (statistics.median(
        r["wall_ns"] / 1e6 / r["sim_s"] for r in timed) if timed else None)
    # The fastest set-up: other tenants' work only adds time, and it slows
    # whole batches of set-ups at once (hackbench/README.md).
    m["setup_s"] = min(setups) / 1e9 if setups else None
    m["peak_rss_mb"] = (end[0]["peak_rss_kb"] / 1024.0
                        if end and "peak_rss_kb" in end[0] else None)
    # Simulated and exact for a seed: the mean over the run's distinct seeds.
    m["goodput_mbps"] = (statistics.fmean(r["goodput_mbps"] for r in firsts)
                         if firsts else None)
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(records):
    """Per-layer metrics: counts from the untraced runs, traced self times
    from the layer records, and the share of host time they explain."""
    runs = first_runs(records)
    layers = {r["name"]: r for r in records if r.get("kind") == "layer"}
    m = {}
    for name in TRACED:
        layer = layers.get(name)
        m[name] = layer["median_ns"] if layer else None
        m[name + ".p99"] = layer["p99_ns"] if layer else None
    if not runs:
        return m
    k = len(runs)

    def total(key):
        return sum(r[key] for r in runs)

    ppdus = total("ppdus")
    m["sim.events_per_ppdu"] = _ratio(total("events"), ppdus)
    m["sim.channel_events_per_ppdu"] = _ratio(total("ev_channel"), ppdus)
    m["sim.dcf_events_per_ppdu"] = _ratio(total("ev_dcf"), ppdus)
    m["sim.transport_events_per_ppdu"] = _ratio(total("ev_transport"), ppdus)
    m["phy80211.out_of_range_per_ppdu"] = _ratio(total("out_of_range"), ppdus)
    m["phy80211.collision_airtime_share"] = _ratio(total("collision_ns"),
                                                   total("busy_ns"))
    m["phy80211.capture_ratio"] = _ratio(
        total("captures"), total("captures") + total("overlap_losses"))
    m["mac80211.first_try_fraction"] = _ratio(
        total("first_try"), total("first_try") + total("retried"))
    m["mac80211.mpdus_per_data_ppdu"] = _ratio(total("mpdu_attempts"),
                                               total("data_ppdus"))
    m["mac80211.cts_timeout_ratio"] = _ratio(total("cts_timeouts"),
                                             total("rts_sent"))
    m["mac80211.retry_limit_drops"] = total("retry_drops") / k
    m["mac80211.served_station_share"] = statistics.fmean(
        _ratio(r["served_stations"], r["stations"]) for r in runs)
    m["mac80211.sim_delay_p50_ms"] = statistics.median(r["delay_p50_ms"] for r in runs)
    m["mac80211.sim_delay_p99_ms"] = statistics.median(r["delay_p99_ms"] for r in runs)
    m["mac80211.sim_delay_samples"] = total("delay_samples") / k
    m["hack.ride_ratio"] = _ratio(total("hack_unique"),
                                  total("hack_unique") + total("hack_vanilla"))
    # Against Table 2's 52-byte vanilla ACK, as bench_scale computes it.
    m["hack.compression_ratio"] = _ratio(52 * total("hack_unique"),
                                         total("hack_unique_bytes"))
    m["hack.demotions"] = total("hack_demotions") / k
    m["tcp.acks_per_segment"] = _ratio(total("tcp_acks_sent"),
                                       total("tcp_segments_received"))
    m["tcp.dupacks_sent"] = total("tcp_dupacks_sent") / k
    m["tcp.timeouts"] = total("tcp_timeouts") / k

    # Each traced per-call self time times the runs' own call count, per
    # PPDU. Channel and MAC-timer events are dispatched inside the PHY and
    # MAC benches' spans, so the scheduler term counts only the rest. TCP
    # calls are counted at the receivers (every ACK they send reaches a
    # sender), since ScenarioResult has no download sender counters.
    calls = {
        "sim.ns_per_event": total("events") - total("ev_channel") - total("ev_mac"),
        "packet.ns_per_tcp_packet": total("tcp_segments_received") + total("tcp_acks_sent"),
        "phy80211.ns_per_ppdu": ppdus,
        "mac80211.ns_per_bystander_ppdu": ppdus,
        "mac80211.ns_per_exchange": total("data_ppdus"),
        "hack.ns_per_ack": total("hack_unique"),
        "rohc.compress_ns": total("hack_unique"),
        "rohc.decompress_ns": total("hack_recovered"),
        "tcp.sender_ns_per_ack": total("tcp_acks_sent"),
        "tcp.receiver_ns_per_segment": total("tcp_segments_received"),
    }
    timed = timed_runs(records)
    if ppdus and timed and all(m.get(n) is not None for n in calls):
        host_ns = statistics.median(r["wall_ns"] / r["ppdus"] for r in timed)
        explained = sum(m[n] * c for n, c in calls.items()) / ppdus
        m["trace.explained_share"] = explained / host_ns
    return m


# --- environment, build, runner ----------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fail(message):
    print("hackbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to %s; run from a full checkout" % HERE)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "hackbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DHACKSIM_SANITIZE=OFF"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc())])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))


def runner_info():
    out = subprocess.run([RUNNER, "info"], capture_output=True, text=True,
                         timeout=30).stdout
    info = json.loads(out.strip().splitlines()[-1])
    # Refuse numbers a non-Release or sanitizer build would poison, as
    # tools/run_bench.sh does.
    if (info["build_type"] != "Release" or info["sanitized"]
            or info["sanitize"] not in ("", "OFF")):
        fail("refusing a %s build with sanitize=%s; benchmarks must come from "
             "a Release, sanitizer-free build (delete %s to reconfigure)"
             % (info["build_type"], info["sanitize"], BUILD))
    return info


def run_runner(args):
    """Runs the runner; returns (records, returncode, stderr tail)."""
    try:
        p = subprocess.run([RUNNER] + args, capture_output=True, text=True,
                           timeout=RUNNER_TIMEOUT_S)
        out, code, err = p.stdout, p.returncode, p.stderr
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        code, err = "timeout", ""
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    return records, code, err.strip().splitlines()[-3:]


def run_workload(workload, seed, seconds, trace, info):
    load_before = os.getloadavg()[0]
    spans = os.path.join(OUT, "spans", "%s-seed%d.tsv" % (workload, seed))
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args = ["trace", "--workload", workload, "--seed", str(seed),
                "--spans", spans]
    else:
        args = ["timed", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds)]
    records, code, err = run_runner(args)
    load_after = os.getloadavg()[0]
    name = os.path.join(OUT, "results", "%s-seed%d-trace%d" % (workload, seed, trace))
    os.makedirs(os.path.dirname(name), exist_ok=True)
    with open(name + "-raw.jsonl", "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in records)
    row = None if trace else scale_row(workload)
    attempted, failures = judge(records, row)
    if code != 0:
        failures.append(("process", None, "runner exited with %s %s"
                         % (code, " | ".join(err))))
    if trace:
        values, names = per_layer(records), per_layer_names()
    else:
        values, names = end_to_end(records), END_TO_END
    calls = {r["name"]: r["calls"] for r in records if r.get("kind") == "layer"}
    missing = [n for n, _ in names if values.get(n) is None
               or not math.isfinite(values[n])]
    if missing:
        failures.append(("metrics", None, "no value for " + ", ".join(missing)))
    metrics = {n: {"value": values[n], "unit": u} for n, u in names
               if n not in missing}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len({(k, i) for k, i, _ in failures}),
        "failures": ["%s %s: %s" % f for f in failures],
        "metrics": metrics,
        "calls": calls,
        "simulated_digest": digest(records),
        "cross_check": (None if row is None or not any(
            r.get("kind") == "xcheck" for r in records) else
            cross_check([r for r in records if r.get("kind") == "xcheck"][0], row)),
        "environment": {
            "cpu": cpu_model(), "nproc": nproc(),
            "load_before": load_before, "load_after": load_after,
            "loaded": load_before > LOAD_THRESHOLD,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "sanitize": info["sanitize"],
        },
        "spans": spans if trace else None,
    }
    with open(name + ".json", "w") as f:
        json.dump(result, f, indent=1)
    return result


def report(r):
    env = r["environment"]
    print("== %s  seed=%d  trace=%d" % (r["workload"], r["seed"], r["trace"]))
    print("   %s, nproc %d, load %.2f -> %.2f%s, %s, %s build"
          % (env["cpu"], env["nproc"], env["load_before"], env["load_after"],
             "  ** LOADED: above %.1f, do not compare **" % LOAD_THRESHOLD
             if env["loaded"] else "", env["compiler"], env["build_type"]))
    print("   failed runs: %d of %d attempted" % (r["failed"], r["attempted"]))
    for f in r["failures"][:10]:
        print("     " + f)
    for name, m in r["metrics"].items():
        calls = r["calls"].get(name)
        print("   %-36s %14.6g %-11s%s" % (name, m["value"], m["unit"],
              "" if calls is None else " (%d calls)" % calls))
    if not r["trace"]:
        print("   simulated digest: %s" % r["simulated_digest"])
        if r["cross_check"]:
            print("   cross-check vs BENCH_scale.json: " + ", ".join(
                "%s %s/%s" % (f, got, want) for f, want, got in r["cross_check"]))
    else:
        print("   spans: %s" % r["spans"])


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    build()
    info = runner_info()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, args.trace, info)
               for w in names]
    for r in results:
        report(r)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["workloads"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
