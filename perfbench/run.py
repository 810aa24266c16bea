#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ip-survey --seed 1 --seconds 10 --trace 0

Builds the perfbench program (and the mmlpt libraries it links) from the
checkout's sources into .bench_build/, runs one workload in a work
directory under .bench_build/runs/, checks the result against
BENCHMARK.json, and prints the metric table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. Any failure exits non-zero
without that line. Needs only cmake, a C++20 compiler and python3: no
privileges, no network.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


class BenchError(Exception):
    pass


def valid_name(name):
    return isinstance(name, str) and bool(NAME.match(name))


def validate_spec(spec):
    """Raise BenchError unless `spec` follows the BENCHMARK.json schema."""
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        raise BenchError(f"BENCHMARK.json keys must be exactly {sorted(TOP_KEYS)}")
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)):
        raise BenchError("command must be 1-32 strings of at most 200 characters")
    for part in command:
        if part.startswith("/") or ".." in Path(part).parts:
            raise BenchError(f"command part {part!r} leaves the checkout")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise BenchError("paths must list 1-16 directories")
    for path in paths:
        if (not isinstance(path, str) or not PATH.match(path)
                or path.startswith("/") or ".." in Path(path).parts):
            raise BenchError(f"bad path {path!r}")
    seconds = spec["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        raise BenchError("run_seconds must be a whole number from 1 to 60")
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise BenchError("workloads must list 2-8 entries")
    names = []
    for workload in workloads:
        if not isinstance(workload, dict) or set(workload) != {"name", "why"}:
            raise BenchError("a workload has exactly a name and a why")
        why = workload["why"]
        if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
            raise BenchError(f"workload {workload['name']!r}: why is one line of <= 200 characters")
        names.append(workload["name"])
    for section, low, high, keys in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        metrics = spec[section]
        if not isinstance(metrics, list) or not low <= len(metrics) <= high:
            raise BenchError(f"{section} must list {low}-{high} metrics")
        for metric in metrics:
            if not isinstance(metric, dict) or set(metric) != keys:
                raise BenchError(f"{section} entries have exactly the keys {sorted(keys)}")
            if not isinstance(metric["unit"], str) or not UNIT.match(metric["unit"]):
                raise BenchError(f"bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                raise BenchError(f"{metric['name']}: better is lower or higher")
            if "bound" in keys:
                bound = metric["bound"]
                if (isinstance(bound, bool) or not isinstance(bound, (int, float))
                        or not 0 < bound <= 0.25):
                    raise BenchError(f"{metric['name']}: bound must be in (0, 0.25]")
            names.append(metric["name"])
    for name in names:
        if not valid_name(name):
            raise BenchError(f"bad name {name!r}")
    if len(set(names)) != len(names):
        raise BenchError("names must be unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(spec).encode()) > 64 * 1024:
        raise BenchError("BENCHMARK.json exceeds 64 KiB")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path.name}: {e}")
    validate_spec(spec)
    return spec


def check_result(result, expected):
    """Raise BenchError unless `result` is a well-formed result line whose
    metrics are exactly `expected` (name -> unit)."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result line has the wrong keys")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"{key} must be a whole number")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise BenchError("attempted must be >= 1 and >= failed")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(expected))
        raise BenchError(f"metric set differs from BENCHMARK.json (missing {missing}, extra {extra})")
    for name, metric in metrics.items():
        if not valid_name(name):
            raise BenchError(f"bad metric name {name!r}")
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            raise BenchError(f"metric {name} must hold exactly value and unit")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} has no finite value")
        if metric["unit"] != expected[name]:
            raise BenchError(f"metric {name} unit {metric['unit']!r}, BENCHMARK.json says {expected[name]!r}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the checkout has no sources to build (CMakeLists.txt, src/)")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        with open(log_path, "w") as log:
            for step in steps:
                remaining = deadline - time.monotonic()
                rc = run_bounded(step, remaining, stdout=log, stderr=subprocess.STDOUT)
                if rc != 0:
                    tail = log_path.read_text()[-4000:]
                    raise BenchError(f"build step {' '.join(step[:2])} failed ({rc}):\n{tail}")
    if not BINARY.is_file():
        raise BenchError("build produced no perfbench binary")


def run_bounded(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; kill the group on timeout."""
    if timeout <= 0:
        raise BenchError(f"no time left to run {cmd[0]}")
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{Path(cmd[0]).name} exceeded its {timeout:.0f} s wall-clock limit")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--jobs", type=int, default=4,
                        help="fleet workers of the batch workloads")
    args = parser.parse_args(argv)

    spec = load_spec()
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r} (have {sorted(workloads)})")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    build()
    runs = BUILD_ROOT / "runs"
    workdir = runs / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        out_path = workdir / "stdout.txt"
        with open(out_path, "w") as out:
            cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", ".", "--jobs", str(args.jobs)]
            if args.smoke:
                cmd.append("--smoke")
            rc = run_bounded(cmd, RUN_TIMEOUT_S, cwd=workdir, stdout=out)
        lines = out_path.read_text().splitlines()
        if rc != 0:
            raise BenchError(f"perfbench exited with {rc}")
        if not lines:
            raise BenchError("perfbench printed nothing")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            raise BenchError("perfbench's last line is not JSON")
        check_result(result, expected)
        spans = workdir / "spans.jsonl"
        if spans.is_file():  # the traced run's spans, kept for inspection
            kept = BUILD_ROOT / "spans"
            kept.mkdir(exist_ok=True)
            spans.replace(kept / f"{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
