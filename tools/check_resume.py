#!/usr/bin/env python
"""CI smoke test for the adaptive sweep's resume contract.

Orchestrates ``wdm-repro sweep`` subprocesses:

1. **reference** -- the sweep run to completion into a fresh cache
   directory, which also counts the round entries a whole sweep
   stores;
2. **interrupted** -- the same sweep with ``--resume`` into another
   fresh cache directory, SIGKILLed partway through;
3. **resumed** -- the same ``--resume`` command again, run to
   completion against the surviving cache.

The interrupted run must leave a *partial* cache -- more than zero
round entries and fewer than the reference stored -- or the resume
tests nothing.  A kill that lands too early (nothing cached) or too
late (the sweep finished, or every round was already stored) is
retried with the kill time bisected toward the middle, at most
``MAX_TRIES`` interrupted runs in sequence; if none leaves a partial
cache the check fails.

The resumed run's table must be byte-identical to the reference run's
(the cache-traffic footer is stripped: hit/store counts legitimately
differ between a cold and a resumed run -- they are *how* the contract
is met, not part of the result).  Exit 0 on success, 1 on divergence
or when no interrupted run left a partial cache.

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


#: interrupted runs tried before the check gives up on a partial cache
MAX_TRIES = 5


def _command(extra: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro", *SWEEP_ARGS, *extra]


def _entries(cache_dir: Path) -> int:
    """Round entries stored in ``cache_dir`` (0 when it does not exist)."""
    return len(list(cache_dir.glob("*.pkl")))


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

    with tempfile.TemporaryDirectory(prefix="wdm-resume-smoke-") as tmp:
        reference_dir = Path(tmp) / "reference"
        start = time.perf_counter()
        reference = subprocess.run(
            _command(["--resume", "--cache-dir", str(reference_dir)]),
            capture_output=True,
            text=True,
        )
        reference_s = time.perf_counter() - start
        if reference.returncode != 0:
            print(reference.stdout)
            print(reference.stderr, file=sys.stderr)
            print("FAIL: reference sweep exited nonzero")
            return 1
        full = _entries(reference_dir)
        print(f"reference sweep: {reference_s:.2f}s, {full} round entries")

        low, high, fraction = 0.0, 1.0, args.kill_fraction
        for attempt in range(1, MAX_TRIES + 1):
            cache_dir = Path(tmp) / f"interrupted-{attempt}"
            resume_args = ["--resume", "--cache-dir", str(cache_dir)]
            interrupted = subprocess.Popen(
                _command(resume_args),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            time.sleep(max(0.05, fraction * reference_s))
            finished = interrupted.poll() is not None
            interrupted.kill()  # SIGKILL: no cleanup handlers run
            interrupted.wait()
            cached = _entries(cache_dir)
            print(
                f"try {attempt}: killed at {fraction:.3f} of the reference "
                f"wall time; {cached} of {full} round entries survived"
            )
            if not finished and 0 < cached < full:
                break
            if cached == 0:
                low = fraction
            else:
                high = fraction
            fraction = (low + high) / 2
        else:
            print(
                f"FAIL: no interrupted run out of {MAX_TRIES} left a "
                "partial cache, so no resume was tested"
            )
            return 1

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
