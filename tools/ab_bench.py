#!/usr/bin/env python3
"""Alternating A/B timing of two hackbench runners.

Runs a parent build's and a change build's hackbench_runner in turn, N pairs
of `timed --workload W --seed S --seconds T` each, the side that goes first
alternating from pair to pair so slow drift in the host's load charges both
sides alike. Build each runner as hackbench/run.py does (a Release,
sanitizer-free build of hackbench/ in each checkout), then:

  tools/ab_bench.py --parent P/.bench_build/hackbench/hackbench_runner \\
      --change C/.bench_build/hackbench/hackbench_runner \\
      --workload disk-uplink-rts-1000 --seed 1 --seconds 10 --pairs 6

Per pair it prints each side's median host us/PPDU over the timed runs
(the first timed run dropped, as run.py does), the change/parent ratio, the
winner, each side's fastest set-up, peak RSS and the 1-minute load average
before the pair. At the end it prints both sides' medians over the pairs
with quartiles, the same for host ms per simulated second, and the change's
win count.

Exit status: 0 when every run judged clean, 1 when a runner failed (a
nonzero exit, an aborted run, a repeat that was not BehaviourEquals) or the
two sides' per-seed digests or cross-check rows differ, 2 on bad arguments.
`--self-test` drives stub runners through each branch. Stdlib only.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

XCHECK_KEYS = ("events", "ppdus", "goodput_mbps")


def run_once(runner, workload, seed, seconds, timeout_s):
    """One timed invocation; returns (summary, [problems])."""
    cmd = [runner, "timed", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout_s)
        out, code = p.stdout, p.returncode
    except subprocess.TimeoutExpired:
        return None, ["%s timed out after %d s" % (runner, timeout_s)]
    except OSError as e:
        return None, ["%s could not start: %s" % (runner, e)]
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass
    problems = []
    if code != 0:
        problems.append("%s exited with %s" % (runner, code))
    begun = {(r.get("of"), r.get("index")) for r in records
             if r.get("kind") == "begin"}
    done = {(r.get("kind"), r.get("index")) for r in records
            if r.get("kind") in ("run", "setup", "xcheck")}
    if begun - done:
        problems.append("%s aborted %d run(s)" % (runner, len(begun - done)))
    runs = [r for r in records if r.get("kind") == "run"]
    if any(r.get("repeat_ok") is False for r in runs):
        problems.append("%s: a repeat was not BehaviourEquals to its seed's "
                        "first run" % runner)
    timed = [r for r in runs if r.get("index", 0) >= 1 and r.get("ppdus")]
    if not timed:
        problems.append("%s reported no timed run" % runner)
        return None, problems
    digests = {}
    for r in runs:
        digests.setdefault(r["seed_index"], r["digest"])
    xcheck = [r for r in records if r.get("kind") == "xcheck"]
    setups = [r["wall_ns"] for r in records if r.get("kind") == "setup"]
    end = [r for r in records if r.get("kind") == "end"]
    return {
        "us_per_ppdu": statistics.median(
            r["wall_ns"] / r["ppdus"] / 1e3 for r in timed),
        "ms_per_sim_s": statistics.median(
            r["wall_ns"] / 1e6 / r["sim_s"] for r in timed),
        "setup_ms": min(setups) / 1e6 if setups else float("nan"),
        "rss_mb": (end[0]["peak_rss_kb"] / 1024.0
                   if end and "peak_rss_kb" in end[0] else float("nan")),
        "digests": digests,
        "xcheck": ({k: xcheck[0].get(k) for k in XCHECK_KEYS}
                   if xcheck else None),
    }, problems


def compare(parent, change):
    """Problems when the two sides did not simulate the same thing."""
    problems = []
    for si in sorted(set(parent["digests"]) & set(change["digests"])):
        if parent["digests"][si] != change["digests"][si]:
            problems.append("seed index %d: digest %s (parent) != %s (change)"
                            % (si, parent["digests"][si],
                               change["digests"][si]))
    if parent["xcheck"] != change["xcheck"]:
        problems.append("cross-check differs: parent %s, change %s"
                        % (parent["xcheck"], change["xcheck"]))
    return problems


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ab(args, out=sys.stdout):
    sides = {"parent": args.parent, "change": args.change}
    per_side = {"parent": [], "change": []}
    wins = 0
    failed = False
    print("pair  load1  %-10s %-10s  ratio  winner  setup ms (p/c)   "
          "peak RSS MB (p/c)" % ("parent us", "change us"), file=out)
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        load = os.getloadavg()[0]
        got = {}
        for side in order:
            summary, problems = run_once(sides[side], args.workload,
                                         args.seed, args.seconds,
                                         args.timeout)
            for p in problems:
                print("  FAIL %s: %s" % (side, p), file=out)
            failed = failed or bool(problems)
            got[side] = summary
        if got["parent"] is None or got["change"] is None:
            continue
        for p in compare(got["parent"], got["change"]):
            print("  FAIL %s" % p, file=out)
            failed = True
        p_us, c_us = got["parent"]["us_per_ppdu"], got["change"]["us_per_ppdu"]
        win = c_us < p_us
        wins += win
        for side in sides:
            per_side[side].append(got[side])
        print("%4d  %5.2f  %-10.2f %-10.2f  %5.3f  %-6s  %6.2f / %-6.2f  "
              "%6.1f / %-6.1f" % (
                  i + 1, load, p_us, c_us, c_us / p_us,
                  "change" if win else "parent",
                  got["parent"]["setup_ms"], got["change"]["setup_ms"],
                  got["parent"]["rss_mb"], got["change"]["rss_mb"]), file=out)
    n = len(per_side["parent"])
    if n:
        for key, unit in (("us_per_ppdu", "us/PPDU"),
                          ("ms_per_sim_s", "ms/sim-s")):
            for side in sides:
                q1, med, q3 = quartiles([s[key] for s in per_side[side]])
                print("%-6s median %.2f %s (quartiles %.2f-%.2f)"
                      % (side, med, unit, q1, q3), file=out)
        print("change won %d of %d pairs" % (wins, n), file=out)
    if failed:
        print("ab_bench: FAILED (see FAIL lines)", file=out)
        return 1
    return 0


# --- self-test ---------------------------------------------------------------

STUB = r'''#!/usr/bin/env python3
import json, sys
us, digest, events, code, abort = %r, %r, %r, %r, %r
emit = lambda r: print(json.dumps(r))
for i in range(3):
    emit({"kind": "begin", "of": "run", "index": i})
    if abort and i == 2:
        sys.exit(134)
    emit({"kind": "run", "index": i, "seed_index": max(i - 1, 0), "seed": 1,
          "wall_ns": us * 1e3 * 100 * (3 if i == 0 else 1), "sim_s": 0.5,
          "ppdus": 100, "digest": digest, "repeat_ok": None})
    emit({"kind": "begin", "of": "setup", "index": i})
    emit({"kind": "setup", "index": i, "wall_ns": 1e6 + i})
emit({"kind": "begin", "of": "xcheck", "index": 0})
emit({"kind": "xcheck", "index": 0, "events": events, "ppdus": 100,
      "goodput_mbps": 71.5})
emit({"kind": "end", "peak_rss_kb": 65536})
sys.exit(code)
'''


def self_test():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        def stub(name, us, digest="d1", events=561000, code=0, abort=False):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                f.write(STUB % (us, digest, events, code, abort))
            os.chmod(path, 0o755)
            return path

        parent = stub("parent", 200.0)
        cases = [
            ("clean, change faster", stub("fast", 150.0), 0, "won 2 of 2"),
            ("clean, change slower", stub("slow", 250.0), 0, "won 0 of 2"),
            ("runner exits nonzero", stub("exit", 150.0, code=3), 1,
             "exited with 3"),
            ("runner aborts a run", stub("abort", 150.0, abort=True), 1,
             "aborted 1 run"),
            ("digest differs", stub("digest", 150.0, digest="d2"), 1,
             "digest d1 (parent) != d2 (change)"),
            ("cross-check differs", stub("xcheck", 150.0, events=1), 1,
             "cross-check differs"),
        ]
        for name, change, want_rc, want_text in cases:
            args = argparse.Namespace(parent=parent, change=change,
                                      workload="w", seed=1, seconds=0,
                                      pairs=2, timeout=60)
            out = io.StringIO()
            rc = ab(args, out)
            if rc != want_rc or want_text not in out.getvalue():
                ok = False
                print("self-test FAIL: %s: rc=%d (want %d), output:\n%s"
                      % (name, rc, want_rc, out.getvalue()))
        # Run 0 is 3x slower: dropping it keeps the median at 200.
        args = argparse.Namespace(parent=parent, change=parent, workload="w",
                                  seed=1, seconds=0, pairs=1, timeout=60)
        out = io.StringIO()
        ab(args, out)
        if "parent median 200.00 us/PPDU" not in out.getvalue():
            ok = False
            print("self-test FAIL: first timed run not dropped:\n"
                  + out.getvalue())
    print("ab_bench self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", help="the parent build's hackbench_runner")
    ap.add_argument("--change", help="the change build's hackbench_runner")
    ap.add_argument("--workload", help="a hackbench workload name")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--timeout", type=int, default=600,
                    help="seconds before one runner invocation is killed")
    ap.add_argument("--self-test", action="store_true",
                    help="drive stub runners through every branch")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload) or args.pairs < 1:
        ap.error("--parent, --change, --workload and --pairs >= 1 are "
                 "required (unless --self-test)")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
