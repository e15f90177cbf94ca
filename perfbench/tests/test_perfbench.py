"""Tests of the repo benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The end-to-end cases build perfbench_replay (as run.py does) and replay
each workload briefly, so the first run takes a few minutes.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans as spanlib  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def run_bench(*args):
    """Runs run.py; returns (exit code, last stdout line as JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class CatalogTest(unittest.TestCase):
    def setUp(self):
        self.catalog = load(os.path.join(BENCH, "catalog.json"))
        self.benchmark = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_metric_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in self.catalog["end_to_end"]]
        names += [m["name"] for m in self.catalog["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_catalog(self):
        for section, keys in (("end_to_end", ("name", "unit", "better",
                                              "bound")),
                              ("per_layer", ("name", "unit", "better"))):
            listed = [{k: m[k] for k in keys}
                      for m in self.benchmark[section]]
            catalogued = [{k: m[k] for k in keys}
                          for m in self.catalog[section]]
            self.assertEqual(listed, catalogued, section)
        self.assertEqual([w["name"] for w in self.benchmark["workloads"]],
                         [w["name"] for w in self.catalog["workloads"]])

    def test_per_layer_metrics_name_what_they_move(self):
        # A layer metric moves an end-to-end metric or one of the replay's
        # whole CPU and wall costs, which are reported with the layers.
        targets = {m["name"] for m in self.catalog["end_to_end"]}
        targets |= {"workload.cpu_ms_per_sim_s", "workload.event_ms_p50",
                    "workload.event_ms_p90"}
        workloads = {w["name"] for w in self.catalog["workloads"]}
        for metric in self.catalog["per_layer"]:
            self.assertTrue(set(metric["moves"]) <= targets, metric["name"])
            self.assertTrue(set(metric["on"]) <= workloads, metric["name"])
            self.assertIn(metric["kind"], ("wall", "cpu", "virtual", "count",
                                           "ratio", "memory"))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # event [0, 100) holds settle [10, 60) and push [60, 90);
        # settle holds ship [20, 30) and ship [40, 45).
        spans = [
            spanlib.Span("workload.event", 1, -1, 0, 100),
            spanlib.Span("fanout.settle", 1, 0, 10, 60),
            spanlib.Span("storage.ship", 1, 1, 20, 30),
            spanlib.Span("storage.ship", 1, 1, 40, 45),
            spanlib.Span("fanout.push_frame", 1, 0, 60, 90),
        ]
        self.assertEqual(spanlib.self_times(spans), [20, 35, 10, 5, 30])
        table = spanlib.layer_table(spans, 1)
        self.assertAlmostEqual(table["fanout"]["self_ms"], 65e-6)
        self.assertAlmostEqual(table["fanout"]["share"], 0.65)
        self.assertAlmostEqual(table["storage"]["share"], 0.15)
        self.assertAlmostEqual(table["workload"]["share"], 0.20)
        self.assertAlmostEqual(sum(r["share"] for r in table.values()), 1.0)
        calls = spanlib.call_stats(spans, 1)
        self.assertEqual(calls["storage.ship"]["calls"], 2)
        self.assertAlmostEqual(calls["storage.ship"]["busy_ms"], 15e-6)
        self.assertAlmostEqual(calls["fanout.settle"]["self_ms"], 35e-6)

    def test_setup_spans_stay_out_of_replay_shares(self):
        spans = [
            spanlib.Span("workload.setup", 0, -1, 0, 1000),
            spanlib.Span("compress.encode", 0, 0, 0, 900),
            spanlib.Span("workload.event", 1, -1, 1000, 1010),
        ]
        table = spanlib.layer_table(spans, 1)
        self.assertNotIn("compress", table)
        self.assertAlmostEqual(table["workload"]["share"], 1.0)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(spanlib.percentile([], 0.9), 0.0)
        self.assertEqual(spanlib.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(spanlib.percentile(list(range(1, 11)), 0.9), 9)


class EndToEndTest(unittest.TestCase):
    """Replays every workload once (two replays, the minimum)."""

    @classmethod
    def setUpClass(cls):
        cls.catalog = load(os.path.join(BENCH, "catalog.json"))

    def test_every_workload_emits_every_metric(self):
        for workload in [w["name"] for w in self.catalog["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, line = run_bench("--workload", workload, "--seed",
                                           "3", "--seconds", "0", "--trace",
                                           str(trace))
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(line), ["attempted", "correct",
                                                    "failed", "metrics"])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    expected = {m["name"]: m["unit"]
                                for m in self.catalog[section]}
                    self.assertEqual(set(line["metrics"]), set(expected))
                    for name, metric in line["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name])
                        self.assertTrue(math.isfinite(metric["value"]))
                        if section == "end_to_end":
                            self.assertGreater(metric["value"], 0, name)

    def test_failing_step_raises_error_rate(self):
        code, line = run_bench("--workload", "consult", "--seed", "3",
                               "--seconds", "0", "--trace", "1",
                               "--fail-step", "5")
        self.assertNotEqual(code, 0)
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)
        self.assertGreater(line["metrics"]["workload.error_rate"]["value"], 0)

    def test_missing_sources_fail_without_a_result(self):
        # A checkout holding only the benchmark cannot build the program.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copytree(BENCH, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "consult",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
