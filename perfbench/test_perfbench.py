#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks the BENCHMARK.json schema and the metric-name rule, runs the
program's --selftest (percentile rule, self-time arithmetic with
overlapping children, span ledger), runs every workload in smoke mode in
both the untraced and the traced configuration, and checks that batch
output at 1 worker equals output at 4 workers.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    """Run run.py; return (exit code, stdout lines)."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, timeout=900)
    return out.returncode, out.stdout.splitlines(), out.stderr


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        run.validate_spec(SPEC)

    def test_the_three_workloads_are_listed(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(names, {"ip-survey", "router-survey", "daemon-requests"})

    def test_rejections(self):
        cases = {
            "extra key": lambda s: s.update(extra=1),
            "bound above 0.25": lambda s: s["end_to_end"][1].update(bound=0.3),
            "missing setup_s": lambda s: s["end_to_end"].pop(0),
            "duplicate name": lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
            "bad metric name": lambda s: s["per_layer"][0].update(name="core self"),
            "bad unit": lambda s: s["per_layer"][0].update(unit="n s"),
            "absolute command": lambda s: s.update(command=["/usr/bin/python3"]),
            "path out of the repo": lambda s: s.update(paths=["../x"]),
            "one workload": lambda s: s.update(workloads=s["workloads"][:1]),
            "run_seconds too long": lambda s: s.update(run_seconds=61),
            "better is neither": lambda s: s["per_layer"][0].update(better="up"),
        }
        for label, mutate in cases.items():
            spec = copy.deepcopy(SPEC)
            mutate(spec)
            with self.subTest(label), self.assertRaises(run.BenchError):
                run.validate_spec(spec)


class MetricNameTest(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "orchestrator.stop_set.hit_ratio", "a-b.c_d", "9lives"):
            self.assertTrue(run.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "has space", "p99%", "x" * 65, "naïve", None):
            self.assertFalse(run.valid_name(name), name)

    def test_result_must_match_the_spec(self):
        expected = {"a": "ms", "b": "s"}
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"a": {"value": 1.5, "unit": "ms"},
                            "b": {"value": 2, "unit": "s"}}}
        run.check_result(good, expected)
        broken = {
            "missing metric": lambda r: r["metrics"].pop("b"),
            "extra metric": lambda r: r["metrics"].update(c={"value": 1, "unit": "s"}),
            "wrong unit": lambda r: r["metrics"]["a"].update(unit="s"),
            "non-finite": lambda r: r["metrics"]["a"].update(value=float("nan")),
            "failed > attempted": lambda r: r.update(failed=4),
            "nothing attempted": lambda r: r.update(attempted=0, failed=0),
            "extra key": lambda r: r.update(samples=1),
        }
        for label, mutate in broken.items():
            result = copy.deepcopy(good)
            mutate(result)
            with self.subTest(label), self.assertRaises(run.BenchError):
                run.check_result(result, expected)


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest(self):
        out = subprocess.run([str(run.BINARY), "--selftest"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_smoke_every_workload(self):
        for workload in SPEC["workloads"]:
            for trace in ("0", "1"):
                with self.subTest(workload=workload["name"], trace=trace):
                    rc, lines, err = bench("--workload", workload["name"], "--seed", "3",
                                           "--seconds", "1", "--trace", trace, "--smoke")
                    self.assertEqual(rc, 0, err)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)

    def test_batch_output_is_independent_of_workers(self):
        for workload in ("ip-survey", "router-survey"):
            digests = []
            for jobs in ("1", "4"):
                rc, lines, err = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                       "--trace", "0", "--smoke", "--jobs", jobs)
                self.assertEqual(rc, 0, err)
                digests.append([l for l in lines if l.startswith("output_digest ")])
            with self.subTest(workload=workload):
                self.assertEqual(len(digests[0]), 1)
                self.assertEqual(digests[0], digests[1])

    def test_unknown_workload_fails(self):
        rc, lines, _ = bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                             "--trace", "0")
        self.assertNotEqual(rc, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
