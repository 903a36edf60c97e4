#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 blockbench/selftest.py

Checks that, for every workload in ``BENCHMARK.json`` and both
``--trace`` modes, the last output line names exactly the declared
metrics with their declared units; that a corrupted expected count makes
the output check fail with a nonzero exit; and that a directory holding
only the benchmark, without the program, exits nonzero without printing
a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "blockbench-selftest")


def run(args: list[str], cwd: str = ROOT, script: str = RUN) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures: list[str] = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        for workload in spec["workloads"]:
            name = workload["name"]
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, lines = run(
                    ["--workload", name, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--scale", "tiny"]
                )
                result = result_of(lines)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                label = f"{name} --trace {trace}"
                if code != 0 or not result.get("correct"):
                    failures.append(f"{label}: exit {code}, result {result}")
                if got != want:
                    failures.append(f"{label}: metrics {got} != declared {want}")
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    failures.append(f"{label}: result keys {sorted(result)}")
                print(f"{label}: exit {code}, {len(got)} metrics")

        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
            expected = json.load(handle)
        expected["tiny"]["point_uniform_dense"][0][0][1] += 1
        corrupted = os.path.join(SCRATCH, "expected-corrupted.json")
        with open(corrupted, "w", encoding="utf-8") as handle:
            json.dump(expected, handle)
        code, lines = run(
            ["--workload", "point_uniform_dense", "--seed", "0", "--seconds",
             "1", "--scale", "tiny", "--expected", corrupted]
        )
        result = result_of(lines)
        if code == 0 or result.get("correct") is not False or not result.get("failed"):
            failures.append(f"corrupted expected count passed: exit {code}, {result}")
        print(f"corrupted expected count: exit {code}, failed {result.get('failed')}")

        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = run(
            ["--workload", "point_uniform_dense", "--seed", "0", "--seconds",
             "1", "--trace", "0"],
            cwd=bare, script=os.path.join(bare, os.path.basename(HERE), "run.py"),
        )
        if code == 0 or result_of(lines):
            failures.append(f"bare directory: exit {code}, output {lines}")
        print(f"bare directory: exit {code}, {len(lines)} lines of output")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
