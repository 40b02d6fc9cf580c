#!/usr/bin/env python3
"""CI perf gates over the bench artifacts.

Nine gates, all keyed to the committed Release references in the repo root:

1. Scheduler microbench: the freshly measured BM_SchedulerCancelHeavy must
   not regress more than --max-regress (default 25%) against the committed
   BENCH_micro.json. This is the cancel-dominated MAC-timeout pattern the
   timing wheel exists for.
2. Dense-cell event cost: 1000-station rows in BENCH_scale.json must keep
   events_per_ppdu below --ev-ppdu-ceiling (default 100, vs ~525 before the
   lazy NAV/DCF re-arm work and ~250 before the coalesced NAV probes +
   token-bucket pacing). Two per-class sub-gates pin the storms that were
   actually killed, so a regression is attributed on sight instead of
   hiding inside the total: per_ppdu_nav <= --nav-ppdu-ceiling (default
   2.0 — the per-overhearer probe storm peaked at 82 on udp-hidden-rts)
   and per_ppdu_transport <= --transport-ppdu-ceiling (default 15 — the
   per-packet CBR chain peaked at 243 on a 10-station uplink). The
   committed artifact is always checked; a freshly generated scale JSON is
   checked too when it contains 1000-station rows (CI's quick mode stops
   at 100 stations). The storm rows additionally get the per-class
   sub-gates at the LARGEST station count each artifact carries —
   per_ppdu_nav on udp-hidden-rts, per_ppdu_transport on udp-up/udp-rts —
   so every quick push artifact exercises them, not just the weekly full
   sweep.
3. Dense-cell goodput floor: the 1000-station "udp-rts" row (saturated
   uplink contenders protected by RTS/CTS + rate adaptation) must beat
   BOTH 1000-station collapse baselines by at least --goodput-ratio
   (default 2x): "udp" (~24 Mbps, the historical downlink collapse the
   ROADMAP tracked) and "udp-up" (the same saturated uplink cell without
   the handshake — the direct A/B whose collisions RTS/CTS removes).
   Goodput is simulator-deterministic, so unlike the CancelHeavy gate this
   one is machine-independent. Same committed/fresh policy as gate 2.
   All goodput gates (3, 4, 6) evaluate the replicate mean
   (goodput_mean_mbps / post_fault_goodput_mean_mbps) whenever the row
   carries the --repeats statistics, falling back to the legacy
   single-seed point value otherwise.
4. Hidden-terminal recovery: on the two-cluster topology (geometric
   channel: the clusters cannot carrier-sense each other and collide blind
   at the AP), "udp-hidden-rts" goodput must clear BOTH
   max(--hidden-ratio x the unprotected "udp-hidden" row,
       --hidden-min-mbps)
   at *every* station count where both rows exist. The absolute floor
   matters because the unprotected row legitimately collapses to zero at
   1000 stations (every frame dies blind at the AP) — a pure ratio would
   then gate nothing. Machine-independent like gate 3; checked on the
   committed artifact always (missing rows fail) and on a fresh scale JSON
   whenever it carries the rows (quick mode's 10/100-station sweep
   included, so pushes exercise this gate end-to-end).
5. Zero-byte guard: every scale row must have delivered bytes, except the
   rows named in ZERO_BYTE_EXEMPT where collapse IS the measured physics
   (today only "udp-hidden": at scale every frame dies blind at the AP).
   The exemption is an explicit allow-list cross-checked against the
   artifact — if an exempt row is renamed, the stale entry fails the gate
   instead of silently widening it. bench_scale itself enforces the same
   per-row policy at generation time; this gate re-checks the committed
   artifact so a hand-edited or stale JSON cannot slip through. The fault
   rows (udp-churn, udp-apout) are deliberately NOT exempt: a faulted cell
   that delivers nothing is a robustness bug, not measured physics.
6. QoS voice-tail gate: at every station count carrying the mixed-traffic
   row pair ("udp-mix" = saturated voice+web cell on the legacy single-DCF
   MAC, "udp-mix-edca" = the same cell with 802.11e EDCA), the EDCA row's
   VO p99 latency (lat_vo_p99_ms) must undercut the no-EDCA baseline's by
   at least --vo-p99-ratio (default 2x). Both rows must also carry VO and
   BE sample counts — a mixed row without voice samples means the traffic
   zoo silently stopped emitting. Deterministic like gates 3/4; committed
   artifact must carry the pair, fresh is checked whenever it does (quick
   mode included, so every push exercises it).
7. Post-fault recovery: at every station count carrying the fault rows,
   "udp-churn" and "udp-apout" must report post_fault_goodput_mbps (the
   goodput over the window after the last recovery event) of at least
   --post-fault-ratio (default 0.5) x the matching fault-free "udp" row.
   This is the survivability contract: after a fifth of the stations
   churn or the AP dies and restarts, the cell must climb back to at
   least half its fault-free rate. Committed artifact must carry the
   rows; fresh is checked whenever it does (quick mode included).
8. ACK-aggregation goodput: at every station count carrying the pair, the
   best-window row "tcp+hack-w1ms" must deliver goodput >= the plain
   "tcp"/moredata row's, which is the window=0 baseline (the ablation rows
   alias its replicate seeds through Workload::seed_group, so this is a
   paired comparison — batching ACKs must never cost goodput).
   Deterministic and machine-independent; committed artifact must carry
   the pair, fresh is checked whenever it does (quick mode included, so
   every push exercises it).
9. Reproduction: a fresh full-mode sweep (it carries 1000-station rows)
   must reproduce the committed BENCH_scale.json: the same rows, keyed by
   (stations, proto, hack), equal on every key but wall_ms. The simulator
   is deterministic, so any other difference means a change moved
   simulated behaviour without regenerating the artifact. A quick-mode
   fresh sweep runs shorter cells and is skipped.

Usage:
  check_bench_gates.py --committed-micro BENCH_micro.json \
                       --fresh-micro /tmp/out/BENCH_micro.json \
                       --committed-scale BENCH_scale.json \
                       [--fresh-scale /tmp/out/BENCH_scale.json]

  check_bench_gates.py --self-test
    Exercises every gate's pass AND fail branch on synthetic artifacts
    (no bench binaries needed); exits 0 iff all branches behave.
"""

import argparse
import json
import sys

# The only scale-row key that may differ between two sweeps of the same
# code: host wall time.
HOST_TIMING_KEYS = frozenset({"wall_ms"})

# Rows allowed to deliver zero bytes because collapse is the measured
# physics, not a bug. Explicit allow-list: renaming a row leaves a stale
# entry here that fails the gate loudly (see check below) instead of
# silently skipping the guard for the renamed row.
ZERO_BYTE_EXEMPT = frozenset({"udp-hidden"})

# Fault rows and the fault-free baseline each must recover against.
POST_FAULT_ROWS = {"udp-churn": "udp", "udp-apout": "udp"}


def cancel_heavy_ns(path):
    with open(path) as f:
        data = json.load(f)
    # Prefer the mean aggregate; fall back to a plain run.
    best = None
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if not name.startswith("BM_SchedulerCancelHeavy"):
            continue
        if name.endswith("_mean") or name.endswith("_median"):
            return float(b["real_time"])
        if best is None:
            best = float(b["real_time"])
    if best is None:
        raise SystemExit(f"FAIL: no BM_SchedulerCancelHeavy entry in {path}")
    return best


def scale_rows(path):
    with open(path) as f:
        return json.load(f)["rows"]


def reproduction_problems(committed, fresh):
    """Every way `fresh` fails to reproduce `committed`, one line each."""
    def keyed(rows):
        return {(r["stations"], r["proto"], r["hack"]):
                {k: v for k, v in r.items() if k not in HOST_TIMING_KEYS}
                for r in rows}
    want, got = keyed(committed), keyed(fresh)
    problems = []
    if len(want) != len(committed) or len(got) != len(fresh):
        problems.append("duplicate (stations, proto, hack) rows")
    problems += [f"row {k} missing from the fresh sweep"
                 for k in sorted(want.keys() - got.keys())]
    problems += [f"row {k} not in the committed artifact"
                 for k in sorted(got.keys() - want.keys())]
    for k in sorted(want.keys() & got.keys()):
        diff = sorted(f for f in want[k].keys() | got[k].keys()
                      if want[k].get(f) != got[k].get(f))
        if diff:
            problems.append(f"row {k} differs on {diff}")
    return problems


def goodput(row):
    """Gate-facing goodput: the replicate mean when the row carries one.

    bench_scale --repeats=N emits goodput_mean_mbps / goodput_ci95_mbps
    across N seeds; gating on the mean makes the goodput gates robust to
    single-seed luck. Single-seed artifacts (and older committed ones)
    fall back to the legacy point value.
    """
    return float(row.get("goodput_mean_mbps", row["goodput_mbps"]))


def post_fault_goodput(row):
    """Same mean-preferring policy for the post-fault recovery window."""
    return float(row.get("post_fault_goodput_mean_mbps",
                         row["post_fault_goodput_mbps"]))


def build_parser():
    ap = argparse.ArgumentParser()
    ap.add_argument("--committed-micro")
    ap.add_argument("--fresh-micro")
    ap.add_argument("--committed-scale")
    ap.add_argument("--fresh-scale")
    ap.add_argument("--max-regress", type=float, default=0.25)
    ap.add_argument("--ev-ppdu-ceiling", type=float, default=100.0)
    ap.add_argument("--nav-ppdu-ceiling", type=float, default=2.0)
    ap.add_argument("--transport-ppdu-ceiling", type=float, default=15.0)
    ap.add_argument("--goodput-ratio", type=float, default=2.0)
    ap.add_argument("--hidden-ratio", type=float, default=2.0)
    ap.add_argument("--hidden-min-mbps", type=float, default=10.0)
    ap.add_argument("--post-fault-ratio", type=float, default=0.5)
    ap.add_argument("--vo-p99-ratio", type=float, default=2.0)
    ap.add_argument("--self-test", action="store_true",
                    help="exercise every gate's pass/fail branch on "
                         "synthetic artifacts and exit")
    return ap


def run_gates(args):
    failed = False

    ref = cancel_heavy_ns(args.committed_micro)
    fresh = cancel_heavy_ns(args.fresh_micro)
    limit = ref * (1.0 + args.max_regress)
    verdict = "OK" if fresh <= limit else "FAIL"
    print(f"[{verdict}] BM_SchedulerCancelHeavy: fresh {fresh:.0f} ns vs "
          f"committed {ref:.0f} ns (limit {limit:.0f} ns)")
    failed |= fresh > limit

    for label, path in (("committed", args.committed_scale),
                        ("fresh", args.fresh_scale)):
        if not path:
            continue
        all_rows = scale_rows(path)

        # Zero-byte guard: any non-exempt row delivering nothing is a
        # simulator bug surfacing as a bench number.
        for r in all_rows:
            if int(r["bytes"]) == 0 and r["proto"] not in ZERO_BYTE_EXEMPT:
                print(f"[FAIL] {label} {r['stations']}-station "
                      f"{r['proto']}/{r['hack']}: zero bytes delivered and "
                      "not in the zero-byte exempt-list")
                failed = True
        # A stale exempt entry means the row it covered was renamed and the
        # renamed row now runs un-guarded at generation time — fail loudly.
        if label == "committed":
            present = {r["proto"] for r in all_rows}
            for name in sorted(ZERO_BYTE_EXEMPT - present):
                print(f"[FAIL] {path}: zero-byte exempt row \"{name}\" does "
                      "not exist in the artifact (renamed? update "
                      "ZERO_BYTE_EXEMPT)")
                failed = True

        # Post-fault recovery gate: after churn / an AP outage the cell
        # must climb back to >= the configured fraction of its fault-free
        # goodput, at every station count carrying the fault rows.
        by_count = {}
        for r in all_rows:
            by_count.setdefault(r["stations"], {})[r["proto"]] = r
        fault_pairs = 0
        for n in sorted(by_count):
            protos = by_count[n]
            for fault_proto, base_proto in sorted(POST_FAULT_ROWS.items()):
                if fault_proto not in protos or base_proto not in protos:
                    continue
                fault_pairs += 1
                fr = protos[fault_proto]
                if "post_fault_goodput_mbps" not in fr:
                    print(f"[FAIL] {label} {n}-station {fault_proto}: fault "
                          "row missing post_fault_goodput_mbps")
                    failed = True
                    continue
                got = post_fault_goodput(fr)
                base = goodput(protos[base_proto])
                floor = base * args.post_fault_ratio
                ok = got >= floor
                verdict = "OK" if ok else "FAIL"
                print(f"[{verdict}] {label} {n}-station {fault_proto} "
                      f"post-fault goodput: {got:.1f} Mbps vs fault-free "
                      f"{base_proto} {base:.1f} Mbps (floor {floor:.1f} = "
                      f"{args.post_fault_ratio:.2f}x)")
                failed |= not ok
        if fault_pairs == 0:
            if label == "committed":
                print(f"[FAIL] {path}: no udp-churn / udp-apout fault rows "
                      "— the post-fault recovery gate has nothing to check")
                failed = True
            else:
                print(f"[SKIP] {path}: no fault rows")

        # Hidden-terminal recovery gate: udp-hidden-rts vs udp-hidden at
        # every station count carrying both rows (quick runs stop at 100
        # stations but still carry the pair, so this gate runs fresh on
        # every push, unlike the 1000-station-only gates below).
        hidden = {}
        for r in all_rows:
            if r["proto"] in ("udp-hidden", "udp-hidden-rts"):
                hidden.setdefault(r["stations"], {})[r["proto"]] = r
        pairs = {n: d for n, d in hidden.items() if len(d) == 2}
        if not pairs:
            if label == "committed":
                print(f"[FAIL] {path}: no udp-hidden / udp-hidden-rts row "
                      "pairs — the hidden-terminal gate has nothing to check")
                failed = True
            else:
                print(f"[SKIP] {path}: no hidden-terminal row pairs")
        for n in sorted(pairs):
            base = goodput(pairs[n]["udp-hidden"])
            got = goodput(pairs[n]["udp-hidden-rts"])
            floor = max(base * args.hidden_ratio, args.hidden_min_mbps)
            ok = got >= floor
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} {n}-station hidden-terminal: "
                  f"udp-hidden-rts {got:.1f} Mbps vs udp-hidden {base:.1f} "
                  f"Mbps (floor {floor:.1f} = max({args.hidden_ratio:.1f}x, "
                  f"{args.hidden_min_mbps:.0f} Mbps))")
            failed |= not ok

        # QoS voice-tail gate: udp-mix-edca vs udp-mix at every station
        # count carrying both rows. The mixed rows exist at every sweep
        # size (quick included), so this gate runs fresh on every push.
        mixed = {}
        for r in all_rows:
            if r["proto"] in ("udp-mix", "udp-mix-edca"):
                mixed.setdefault(r["stations"], {})[r["proto"]] = r
        mixed_pairs = {n: d for n, d in mixed.items() if len(d) == 2}
        if not mixed_pairs:
            if label == "committed":
                print(f"[FAIL] {path}: no udp-mix / udp-mix-edca row pairs "
                      "— the QoS voice-tail gate has nothing to check")
                failed = True
            else:
                print(f"[SKIP] {path}: no mixed-traffic row pairs")
        for n in sorted(mixed_pairs):
            pair_ok = True
            for proto in ("udp-mix", "udp-mix-edca"):
                row = mixed_pairs[n][proto]
                for field in ("lat_vo_p99_ms", "lat_vo_count",
                              "lat_be_count"):
                    if field not in row:
                        print(f"[FAIL] {label} {n}-station {proto}: mixed "
                              f"row missing {field} (traffic zoo emitted "
                              "no samples for that AC?)")
                        failed = True
                        pair_ok = False
            if not pair_ok:
                continue
            base = float(mixed_pairs[n]["udp-mix"]["lat_vo_p99_ms"])
            got = float(mixed_pairs[n]["udp-mix-edca"]["lat_vo_p99_ms"])
            ceiling = base / args.vo_p99_ratio
            ok = got <= ceiling
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} {n}-station QoS voice tail: "
                  f"udp-mix-edca VO p99 {got:.2f} ms vs udp-mix "
                  f"{base:.2f} ms (ceiling {ceiling:.2f} = baseline / "
                  f"{args.vo_p99_ratio:.1f})")
            failed |= not ok

        # ACK-aggregation goodput gate: w1ms vs the window=0 baseline, the
        # plain tcp/moredata row. Keyed by (proto, hack) since the "tcp"
        # proto appears with hack off AND moredata.
        ablation = {}
        for r in all_rows:
            if r["proto"] == "tcp" and r["hack"] == "moredata":
                ablation.setdefault(r["stations"], {})["base"] = r
            elif r["proto"] == "tcp+hack-w1ms":
                ablation.setdefault(r["stations"], {})["w1ms"] = r
        gp_pairs = {n: d for n, d in ablation.items() if len(d) == 2}
        if not gp_pairs:
            if label == "committed":
                print(f"[FAIL] {path}: no tcp(moredata) / tcp+hack-w1ms row "
                      "pairs — the ablation goodput gate has nothing to "
                      "check")
                failed = True
            else:
                print(f"[SKIP] {path}: no ACK-ablation goodput row pairs")
        for n in sorted(gp_pairs):
            base = goodput(gp_pairs[n]["base"])
            got = goodput(gp_pairs[n]["w1ms"])
            ok = got >= base
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} {n}-station ablation goodput: "
                  f"tcp+hack-w1ms {got:.1f} Mbps vs tcp/moredata "
                  f"{base:.1f} Mbps (floor = window 0; paired seeds)")
            failed |= not ok

        # Storm-row gates at the largest station count the artifact
        # carries. The 1000-station per-class gates below never run on a
        # quick (10/100-station) push artifact, so without this the two
        # event storms this script exists to pin — per-overhearer NAV
        # probes on the hidden-terminal RTS row, per-packet CBR pacing on
        # the uplink rows — could regrow unnoticed between weekly full
        # sweeps. The ceilings are the same as at 1000 stations: both
        # storms scaled with station count (probe fan-out) or inversely
        # with per-station rate (pacing), so the dense ceilings are
        # conservative at 10/100 stations.
        max_n = max(r["stations"] for r in all_rows)
        top = {r["proto"]: r for r in all_rows if r["stations"] == max_n}
        for proto, field, ceiling, what in (
                ("udp-hidden-rts", "per_ppdu_nav", args.nav_ppdu_ceiling,
                 "NAV-reset probes"),
                ("udp-up", "per_ppdu_transport",
                 args.transport_ppdu_ceiling, "transport pacing"),
                ("udp-rts", "per_ppdu_transport",
                 args.transport_ppdu_ceiling, "transport pacing")):
            if proto not in top or field not in top[proto]:
                print(f"[FAIL] {label} {max_n}-station {proto}: storm row "
                      f"or its {field} field missing")
                failed = True
                continue
            val = float(top[proto][field])
            ok = val <= ceiling
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} {max_n}-station {proto}: "
                  f"{val:.2f} {field} (ceiling {ceiling:.1f}, {what})")
            failed |= not ok

        rows = [r for r in all_rows if r["stations"] == 1000]
        if label == "committed" and not rows:
            print(f"[FAIL] {path}: no 1000-station rows in committed "
                  "BENCH_scale.json")
            failed = True
            continue
        if not rows:
            print(f"[SKIP] {path}: no 1000-station rows (quick mode)")
            continue
        for r in rows:
            ev = float(r["events_per_ppdu"])
            ok = ev <= args.ev_ppdu_ceiling
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} 1000-station {r['proto']}/{r['hack']}: "
                  f"{ev:.1f} ev/PPDU (ceiling {args.ev_ppdu_ceiling:.0f})")
            failed |= not ok
            # Per-class storm gates. Older artifacts (pre-class-split) do
            # not carry the fields — that is a hard failure on the
            # committed artifact, never a silent skip.
            for field, ceiling, what in (
                    ("per_ppdu_nav", args.nav_ppdu_ceiling,
                     "NAV-reset probes"),
                    ("per_ppdu_transport", args.transport_ppdu_ceiling,
                     "transport pacing")):
                if field not in r:
                    print(f"[FAIL] {label} 1000-station "
                          f"{r['proto']}/{r['hack']}: missing {field} "
                          "(regenerate the artifact with the per-class "
                          "event split)")
                    failed = True
                    continue
                val = float(r[field])
                ok = val <= ceiling
                verdict = "OK" if ok else "FAIL"
                print(f"[{verdict}] {label} 1000-station "
                      f"{r['proto']}/{r['hack']}: {val:.2f} {field} "
                      f"(ceiling {ceiling:.1f}, {what})")
                failed |= not ok

        # Dense-cell goodput floor: udp-rts must beat both collapse
        # baselines (downlink "udp" and unprotected-uplink "udp-up") by
        # the configured ratio.
        by_proto = {r["proto"]: r for r in rows}
        recovered = by_proto.get("udp-rts")
        baselines = [p for p in ("udp", "udp-up") if p in by_proto]
        if recovered is None or len(baselines) < 2:
            print(f"[FAIL] {path}: 1000-station rows missing udp/udp-up "
                  "(collapse baselines) and/or udp-rts (RTS/CTS recovery) "
                  "— the dense-cell goodput gate has nothing to check")
            failed = True
            continue
        got = goodput(recovered)
        for proto in baselines:
            base = goodput(by_proto[proto])
            floor = base * args.goodput_ratio
            ok = got >= floor
            verdict = "OK" if ok else "FAIL"
            print(f"[{verdict}] {label} 1000-station udp-rts goodput: "
                  f"{got:.1f} Mbps vs {proto} collapse baseline "
                  f"{base:.1f} Mbps (floor {floor:.1f} = "
                  f"{args.goodput_ratio:.1f}x)")
            failed |= not ok

    # Reproduction gate: a fresh full-mode sweep must equal the committed
    # artifact on every key but host timing.
    if args.fresh_scale:
        fresh_rows = scale_rows(args.fresh_scale)
        if not any(r["stations"] == 1000 for r in fresh_rows):
            print(f"[SKIP] {args.fresh_scale}: quick sweep (no 1000-station "
                  "rows), not compared with the committed artifact")
        else:
            problems = reproduction_problems(
                scale_rows(args.committed_scale), fresh_rows)
            for p in problems:
                print(f"[FAIL] fresh sweep does not reproduce "
                      f"{args.committed_scale}: {p}")
            if not problems:
                print(f"[OK] fresh sweep reproduces {args.committed_scale}: "
                      f"{len(fresh_rows)} rows equal on every key but "
                      "wall_ms")
            failed |= bool(problems)

    if failed:
        print("bench gates FAILED")
        return 1
    print("bench gates passed")
    return 0


def self_test():
    """Exercises every gate's pass AND fail branch on synthetic artifacts.

    Builds a minimal artifact pair that satisfies all nine gates (must exit
    0 with no FAIL line; the fresh copy differs only in wall_ms), then a
    poisoned fresh artifact that trips every gate (must exit 1 with a FAIL
    line per gate), then a quick-mode fresh artifact the reproduction gate
    must skip. No bench binaries are needed, so CI runs this before
    spending a minute generating real artifacts.
    """
    import contextlib
    import io
    import os
    import tempfile

    def micro(ns):
        return {"benchmarks": [
            {"name": "BM_SchedulerCancelHeavy/1024_mean", "real_time": ns}]}

    def row(proto, hack="off", **kw):
        d = {"stations": 1000, "proto": proto, "hack": hack,
             "goodput_mbps": 10.0, "bytes": 12345, "events": 1000,
             "ppdus": 100, "events_per_ppdu": 10.0, "per_ppdu_other": 0.0,
             "per_ppdu_channel": 4.0, "per_ppdu_dcf": 2.0,
             "per_ppdu_nav": 0.5, "per_ppdu_transport": 3.0,
             "collisions": 0, "rts": 0, "cts_timeouts": 0, "captures": 0,
             "overlap_losses": 0, "out_of_range": 0, "wall_ms": 10.0,
             "sim_seconds": 0.5}
        d.update(kw)
        return d

    def good_rows(**overrides):
        rows = [
            row("udp"),
            row("tcp"),
            row("tcp", "moredata", goodput_mbps=20.0),
            row("udp-up"),
            row("udp-rts", goodput_mbps=40.0),
            row("udp-hidden", goodput_mbps=0.0, bytes=0),
            row("udp-hidden-rts", goodput_mbps=12.0),
            row("udp-churn", post_fault_goodput_mbps=8.0),
            row("udp-apout", post_fault_goodput_mbps=8.0),
            row("udp-mix", lat_vo_p99_ms=10.0, lat_vo_count=100,
                lat_be_count=100),
            row("udp-mix-edca", lat_vo_p99_ms=4.0, lat_vo_count=100,
                lat_be_count=100),
            row("tcp+hack-w1ms", "moredata", goodput_mbps=21.0,
                hack_compression_ratio=11.0, hack_ack_batches=50,
                hack_acks_per_flush=5.0),
        ]
        for r in rows:
            r.update(overrides)
        return rows

    def poison(rows):
        """The fresh artifact with one fault per gate; committed stays clean."""
        bad = [dict(r) for r in rows]
        by = {}
        for r in bad:
            by.setdefault(r["proto"], r)
        by["udp"]["bytes"] = 0                       # gate 5: zero bytes
        by["udp-churn"]["post_fault_goodput_mbps"] = 1.0   # gate 7
        by["udp-hidden-rts"]["goodput_mbps"] = 5.0   # gate 4: under floor
        by["udp-hidden-rts"]["per_ppdu_nav"] = 50.0  # gate 2: NAV storm
        by["udp-rts"]["goodput_mbps"] = 15.0         # gate 3: < 2x baseline
        by["udp-rts"]["per_ppdu_transport"] = 100.0  # gate 2: pacing storm
        by["udp-mix-edca"]["lat_vo_p99_ms"] = 9.0    # gate 6: tail too fat
        by["tcp"]["events_per_ppdu"] = 500.0         # gate 2: ev/ppdu
        by["tcp+hack-w1ms"]["goodput_mbps"] = 18.0   # gate 8: under w0
        # Gate 9: every edit above is a value the committed copy lacks, and
        # this row is one it does not carry at all.
        bad.append(row("udp", stations=10))
        return bad

    def run(tmp, tag, fresh_micro_ns, fresh_rows):
        paths = {}
        for name, payload in (
                ("committed_micro", micro(100.0)),
                ("fresh_micro", micro(fresh_micro_ns)),
                ("committed_scale",
                 {"benchmark": "bench_scale", "rows": good_rows()}),
                ("fresh_scale",
                 {"benchmark": "bench_scale", "rows": fresh_rows})):
            p = os.path.join(tmp, f"{tag}_{name}.json")
            with open(p, "w") as f:
                json.dump(payload, f)
            paths[name] = p
        args = build_parser().parse_args([
            "--committed-micro", paths["committed_micro"],
            "--fresh-micro", paths["fresh_micro"],
            "--committed-scale", paths["committed_scale"],
            "--fresh-scale", paths["fresh_scale"],
        ])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run_gates(args)
        return rc, out.getvalue()

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        rc, out = run(tmp, "good", 100.0, good_rows(wall_ms=99.0))
        if rc != 0 or "[FAIL]" in out or "reproduces" not in out:
            print("self-test FAIL: clean artifacts did not pass:")
            print(out)
            ok = False

        rc, out = run(tmp, "quick", 100.0, good_rows(stations=100))
        if rc != 0 or "[FAIL]" in out or "quick sweep" not in out:
            print("self-test FAIL: a quick fresh sweep was not skipped by "
                  "the reproduction gate:")
            print(out)
            ok = False

        rc, out = run(tmp, "bad", 1000.0, poison(good_rows()))
        if rc != 1:
            print(f"self-test FAIL: poisoned artifacts returned rc={rc}")
            print(out)
            ok = False
        fail_lines = [l for l in out.splitlines() if l.startswith("[FAIL]")]
        expected = [
            "BM_SchedulerCancelHeavy",       # gate 1
            "ev/PPDU",                       # gate 2 (total)
            "NAV-reset probes",              # gate 2 (per-class)
            "transport pacing",              # gate 2 (per-class)
            "collapse baseline",             # gate 3
            "hidden-terminal",               # gate 4
            "zero bytes delivered",          # gate 5
            "QoS voice tail",                # gate 6
            "post-fault goodput",            # gate 7
            "ablation goodput",              # gate 8
            "not in the committed artifact",  # gate 9 (row set)
            "differs on",                    # gate 9 (row values)
        ]
        for marker in expected:
            if not any(marker in l for l in fail_lines):
                print(f"self-test FAIL: poisoned run did not trip a [FAIL] "
                      f"line containing {marker!r}")
                ok = False

    print("check_bench_gates self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = build_parser()
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    for name in ("committed_micro", "fresh_micro", "committed_scale"):
        if getattr(args, name) is None:
            ap.error(f"--{name.replace('_', '-')} is required "
                     "(unless --self-test)")
    return run_gates(args)


if __name__ == "__main__":
    sys.exit(main())
