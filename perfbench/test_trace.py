#!/usr/bin/env python3
"""Checks of the benchmark's traced run on a tiny corpus.

    python3 perfbench/test_trace.py

The traced run's layer table must account for the Insert and Search spans:
trace.coverage (attributed layer time over the ops' end-to-end span time)
stays within COVERAGE_TOLERANCE of 1. The run must also be correct, report
trace.overhead, and write its span dump and result file. A second build with
-DESSDDS_METRICS=OFF must leave the registry counters out of its result.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as perfbench_run  # noqa: E402

COVERAGE_TOLERANCE = 0.05
REGISTRY_COUNTERS = ("sdds.splits", "persist.frames_per_op",
                     "persist.checkpoints")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run(workload, trace, seed=7, seconds=2):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--small"],
        capture_output=True, text=True, check=True)
    return last_json(out.stdout)


class TracedRunTest(unittest.TestCase):
    def check_traced(self, workload):
        result = run(workload, 1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertIn("trace.overhead", metrics)
        coverage = metrics["trace.coverage"]["value"]
        self.assertLessEqual(abs(coverage - 1), COVERAGE_TOLERANCE,
                             f"{workload}: trace.coverage {coverage}")
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in declared["per_layer"]))

        detail = json.loads(
            (HERE / "out" / f"{workload}-seed7-trace1.json").read_text())
        table = detail["layer_table"]
        for op in ("insert", "search"):
            self.assertIn(op, table)
            self.assertGreater(table[op]["ops"], 0)
        # Per op type too, so cheap inserts are not hidden behind searches.
        for op in ("insert", "update", "search"):
            if op in table:
                coverage = table[op]["coverage"]
                self.assertLessEqual(abs(coverage - 1), COVERAGE_TOLERANCE,
                                     f"{workload} {op}: coverage {coverage}")
        spans = json.loads(Path(detail["spans_file"]).read_text())
        self.assertEqual(spans["columns"][:4],
                         ["op_id", "span_id", "parent", "name"])
        self.assertGreater(len(spans["spans"]), 0)
        for key in ("nproc", "aes_ni"):
            self.assertIn(key, detail["machine"])
        self.assertIn("ESSDDS_METRICS", detail["build"])

    def test_ingest_coverage(self):
        self.check_traced("ingest")

    def test_search_coverage(self):
        self.check_traced("search")

    def test_churn_coverage(self):
        self.check_traced("durable_churn")

    def test_untraced_reports_end_to_end_metrics(self):
        result = run("durable_churn", 0, seconds=1)
        self.assertTrue(result["correct"])
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared["end_to_end"]))
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_metrics_off_reports_registry_counters_absent(self):
        binary = perfbench_run.build(
            perfbench_run.BUILD_DIR.with_name("perfbench-metrics-off"),
            ["ESSDDS_METRICS=OFF"])
        out = subprocess.run(
            [str(binary), "--workload", "durable_churn", "--seed", "8",
             "--seconds", "2", "--trace", "1", "--small",
             "--out-dir", str(HERE / "out"),
             "--data-root", str(perfbench_run.DATA_ROOT)],
            capture_output=True, text=True, check=True)
        result = last_json(out.stdout)
        self.assertTrue(result["correct"])
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        expected = {m["name"] for m in declared["per_layer"]}
        expected -= set(REGISTRY_COUNTERS)
        self.assertEqual(set(result["metrics"]), expected)


if __name__ == "__main__":
    unittest.main()
