#!/usr/bin/env python
"""CI smoke test for the adaptive sweep's resume contract.

Orchestrates three ``wdm-repro sweep`` subprocesses:

1. **reference** -- the sweep run to completion without a cache;
2. **interrupted** -- the same sweep with ``--resume`` into a fresh
   cache directory, SIGKILLed partway through (the kill lands wherever
   it lands -- the contract must hold for *any* interruption point);
3. **resumed** -- the same ``--resume`` command again, run to
   completion against the surviving cache.

The resumed run's table must be byte-identical to the reference run's
(the cache-traffic footer is stripped: hit/store counts legitimately
differ between a cold and a resumed run -- they are *how* the contract
is met, not part of the result).  Exit 0 on success, 1 on divergence.

The kill is timed at half the reference run's wall time.  If it lands
before the first round completes (nothing cached) or after the sweep
finished (everything cached), the comparison still must pass -- the
report just notes how many warm rounds the resume actually replayed.

Usage::

    python tools/check_resume.py [--kill-fraction F]
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: one adaptive sweep, sized so the reference run takes a second or two:
#: long enough that a half-way SIGKILL reliably lands mid-run, short
#: enough for a CI smoke job
SWEEP_ARGS = [
    "sweep",
    "--n", "3", "--r", "3", "--k", "1",
    "--m-max", "6",
    "--steps", "200",
    "--ci-halfwidth", "0.008",
]


def _command(extra: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro", *SWEEP_ARGS, *extra]


def _comparable(output: str) -> str:
    """The result table without the cache-traffic footer."""
    lines = [
        line
        for line in output.splitlines()
        if not line.startswith("cache:")
    ]
    return "\n".join(lines).rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kill-fraction",
        type=float,
        default=0.5,
        help="kill the interrupted run after this fraction of the "
        "reference run's wall time (default 0.5)",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    reference = subprocess.run(
        _command([]), capture_output=True, text=True
    )
    reference_s = time.perf_counter() - start
    if reference.returncode != 0:
        print(reference.stdout)
        print(reference.stderr, file=sys.stderr)
        print("FAIL: reference sweep exited nonzero")
        return 1
    print(f"reference sweep: {reference_s:.2f}s")

    with tempfile.TemporaryDirectory(prefix="wdm-resume-smoke-") as tmp:
        resume_args = ["--resume", "--cache-dir", tmp]

        interrupted = subprocess.Popen(
            _command(resume_args),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(max(0.05, args.kill_fraction * reference_s))
        interrupted.kill()  # SIGKILL: no cleanup handlers run
        interrupted.wait()
        cached_rounds = len(list(Path(tmp).glob("*.pkl")))
        print(
            f"interrupted sweep killed; {cached_rounds} round entries "
            "survived in the cache"
        )

        resumed = subprocess.run(
            _command(resume_args), capture_output=True, text=True
        )
        if resumed.returncode != 0:
            print(resumed.stdout)
            print(resumed.stderr, file=sys.stderr)
            print("FAIL: resumed sweep exited nonzero")
            return 1
        hits = re.search(r"cache: (\d+) hits", resumed.stdout)
        print(f"resumed sweep: {hits.group(0) if hits else 'no cache footer'}")

    if _comparable(resumed.stdout) != _comparable(reference.stdout):
        print("FAIL: resumed sweep diverged from the uninterrupted run")
        print("--- reference ---")
        print(_comparable(reference.stdout))
        print("--- resumed ---")
        print(_comparable(resumed.stdout))
        return 1
    print("ok: resumed sweep is bit-identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
