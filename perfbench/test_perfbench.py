#!/usr/bin/env python3
"""The benchmark's own tests: a smoke form of every workload, traced and
untraced, with every output check running, plus the refusal to report a
result when the repository's sources are missing.

    python3 perfbench/test_perfbench.py

Run from the repository root. The first test builds the driver (about a
minute on 4 cores); the rest take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Every workload reports every metric of BENCHMARK.json: the end-to-end
# ones when untraced, the per-layer ones when traced. Workload-specific
# figures are printed as `detail` lines and are not part of the result.
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = ("region_models", "sharded_stream", "serve_mixed")


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=900)


class SpecTest(unittest.TestCase):
    def test_workloads_and_setup_metric(self):
        # sharded_stream runs by hand only: the run budget holds two
        # workloads of BENCHMARK.json's run length (README.md).
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["region_models", "serve_mixed"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"] for m in SPEC["end_to_end"])}])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertNotIn("CHECK FAILED", proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        # On the smoke region SVMrank's fixed seed still beats the age-only
        # ranking, so no operation fails.
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), LAYER if trace else E2E)
        units = {m["name"]: m["unit"]
                 for m in SPEC["per_layer" if trace else "end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            if name != "trace.overhead_pct":
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_region_models(self):
        self.check("region_models", 0)
        self.check("region_models", 1)

    def test_sharded_stream(self):
        self.check("sharded_stream", 0)
        self.check("sharded_stream", 1)

    def test_serve_mixed(self):
        self.check("serve_mixed", 0)
        self.check("serve_mixed", 1)


class IsolationTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("region_models", 0, cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
