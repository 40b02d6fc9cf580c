"""Tests of the harness's own checks: poisoned runner output must count as
failed runs. Run with: python3 hackbench/test_run.py"""

import copy
import importlib.util
import os
import unittest

_spec = importlib.util.spec_from_file_location(
    "hackbench_run", os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def run_record(index, seed_index, **overrides):
    r = {k: 1 for k in run.RUN_KEYS}
    r.update(kind="run", index=index, seed_index=seed_index, seed=100 + seed_index,
             wall_ns=1e9, sim_s=0.5, ppdus=8000, goodput_mbps=70.0 + seed_index,
             bytes=4_000_000, crc_failures=0, digest="d%d" % seed_index,
             repeat_ok=None, stations=1000, served_stations=300)
    r.update(overrides)
    return r


def clean_output():
    """The runner's timed sequence over two seeds (seed 0 twice in a row,
    then cycling), each run followed by a batch of a cold and a warm set-up
    run, a cross-check, the end."""
    out = []
    for i, si in enumerate([0, 0, 1, 0]):
        out.append({"kind": "begin", "of": "run", "index": i})
        out.append(run_record(i, si, repeat_ok=True if i == 1 else None))
        for j, wall_ns in ((2 * i, 5e6), (2 * i + 1, 1e6 + i)):
            out.append({"kind": "begin", "of": "setup", "index": j})
            out.append({"kind": "setup", "index": j, "wall_ns": wall_ns,
                        "crc_failures": 0})
    out.append({"kind": "begin", "of": "xcheck", "index": 0})
    out.append(run_record(0, -1, kind="xcheck", events=561000, ppdus=8286,
                          goodput_mbps=71.59808))
    out.append({"kind": "end", "peak_rss_kb": 70000})
    return out


ROW = {"events": 561000, "ppdus": 8286, "goodput_mbps": 71.598}


def find(records, kind, index):
    return next(r for r in records if r["kind"] == kind and r.get("index") == index)


class JudgeTest(unittest.TestCase):
    def test_clean_output_has_no_failures(self):
        attempted, failures = run.judge(clean_output(), ROW)
        self.assertEqual(attempted, 13)
        self.assertEqual(failures, [])

    def assert_one_failure(self, records, needle):
        _, failures = run.judge(records, ROW)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn(needle, failures[0][2])

    def test_crc_failure_fails_the_run(self):
        out = clean_output()
        find(out, "run", 1)["crc_failures"] = 2
        self.assert_one_failure(out, "CRC")

    def test_crc_failure_in_setup_fails_it(self):
        out = clean_output()
        find(out, "setup", 3)["crc_failures"] = 1
        self.assert_one_failure(out, "CRC")

    def test_zero_bytes_fails_the_run(self):
        out = clean_output()
        find(out, "run", 0)["bytes"] = 0
        self.assert_one_failure(out, "zero bytes")

    def test_digest_mismatch_fails_the_repeat(self):
        out = clean_output()
        find(out, "run", 3)["digest"] = "other"
        self.assert_one_failure(out, "digest")

    def test_behaviour_mismatch_fails_the_repeat(self):
        out = clean_output()
        find(out, "run", 1)["repeat_ok"] = False
        self.assert_one_failure(out, "BehaviourEquals")

    def test_missing_metric_fails_the_run(self):
        out = clean_output()
        del find(out, "run", 2)["ppdus"]
        self.assert_one_failure(out, "missing ppdus")

    def test_run_that_never_reports_fails(self):
        out = clean_output()
        out.remove(find(out, "run", 3))
        self.assert_one_failure(out, "aborted")

    def test_cross_check_mismatch_fails(self):
        out = clean_output()
        find(out, "xcheck", 0)["events"] = 560999
        self.assert_one_failure(out, "events")


class MetricsTest(unittest.TestCase):
    def test_end_to_end_skips_the_warm_up_run(self):
        out = clean_output()
        find(out, "run", 0)["wall_ns"] = 9e9
        m = run.end_to_end(out)
        self.assertAlmostEqual(m["host_us_per_ppdu"], 1e9 / 8000 / 1e3)
        self.assertAlmostEqual(m["host_ms_per_sim_s"], 2000.0)
        # The fastest set-up.
        self.assertAlmostEqual(m["setup_s"], 1e-3)
        self.assertAlmostEqual(m["peak_rss_mb"], 70000 / 1024)
        # Mean over the distinct seeds' first runs.
        self.assertAlmostEqual(m["goodput_mbps"], 70.5)

    def test_missing_peak_rss_leaves_the_metric_empty(self):
        out = [r for r in clean_output() if r["kind"] != "end"]
        self.assertIsNone(run.end_to_end(out)["peak_rss_mb"])

    def test_per_layer_without_layer_records_has_no_explained_share(self):
        m = run.per_layer(copy.deepcopy(clean_output()))
        self.assertIsNone(m["sim.ns_per_event"])
        self.assertNotIn("trace.explained_share", m)
        self.assertAlmostEqual(m["mac80211.served_station_share"], 0.3)


if __name__ == "__main__":
    unittest.main()
