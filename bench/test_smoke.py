"""Smoke test of the benchmark itself.

Every workload, search-open included, runs on tiny inputs, untraced and
traced, and must emit every metric that BENCHMARK.json names, with its
unit, and no failed op. Without a source tree next to it the benchmark must
fail without a result. The tracer must charge nested leaf calls to their
span once. Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(
                        ROOT,
                        "--workload", workload,
                        "--seed", "5",
                        "--seconds", "1",
                        "--trace", str(trace),
                        "--smoke",
                    )
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_fails_without_a_source_tree(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(
                    ROOT / path,
                    Path(tmp) / path,
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            done = run_bench(
                Path(tmp), "--workload", "cli-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0",
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class TracerTest(unittest.TestCase):
    def test_nested_leaf_time_is_charged_to_its_span_once(self):
        tracer = Tracer(lambda *_: {})
        build = tracer._leaf("network.build", lambda: time.sleep(0.02))

        def metric():
            build()
            time.sleep(0.02)

        def evaluate():
            tracer._leaf("metrics", metric)()
            time.sleep(0.02)

        tracer.op = 0
        tracer._span("evaluator.evaluate", evaluate)()
        [(_, _, _, layer, start, end, self_time)] = tracer.spans
        self.assertEqual(layer, "evaluator.evaluate")
        self.assertGreater(self_time, 0.015)
        self.assertLess(self_time, end - start - 0.035)
        self.assertEqual(tracer.leaves["network.build"][0], 1)
        self.assertGreater(tracer.leaves["metrics"][1], 0.035)


if __name__ == "__main__":
    unittest.main()
