"""Benchmark of the rulefuzz fuzz -> label -> learn loop.

    python3 bench/run.py --workload {live_guided,live_sessions,offline_guided}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
The workload's unit (one campaign, or one batch of sessions) repeats
until --seconds have passed, and at least MIN_UNITS times; every run
checks that the artifacts of its units repeat byte for byte.

--trace 0 times every unit untraced and reports the end-to-end metrics.
--trace 1 runs one untraced unit, then one unit with spans kept in memory
around the public functions of each layer, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced unit time).

Stdout ends with a full report (every metric with its unit, sample
counts, environment, artifact hashes, calibration loop) and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
The process exits non-zero without that line if the program's sources
are not in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 3  # per measuring point
# Units per run at the least.  Two units check that a workload repeats
# its artifacts.  The machine's speed drifts by up to a quarter between
# two units of one run, and the CPU-bound offline_guided loop follows it:
# its campaign_s from one unit per run spread by a third of its median.
MIN_UNITS = 2
CALIBRATION_STEPS = 5_000_000


def import_program() -> None:
    """Put the checkout's ./src first on sys.path, or exit with status 2."""
    package = SRC / "rulefuzz"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program sources at {package}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rulefuzz

    if Path(rulefuzz.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"bench: rulefuzz imported from {rulefuzz.__file__}, not {package}\n")
        raise SystemExit(2)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows machine drift, scales nothing."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i
    return time.perf_counter() - start


def setup_probe(workload: str) -> None:
    """Child side of the setup_s measurement: set up, say so, exit at once."""
    import_program()
    import workloads

    workloads.setup(workload)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    # the servers of live_sessions die with the process; stopping them
    # would only add proxy.stop()'s wait to the parent's read
    os._exit(0)


def measure_setup(workload: str, probes: int) -> list[float]:
    """Fresh interpreter to ready-for-the-first-call, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--setup-probe"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            status = child.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"setup probe failed: status {status}, said {line!r}")
        times.append(elapsed)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("live_guided", "live_sessions", "offline_guided"))
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, for the benchmark's self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
    import_program()
    import numpy
    import report
    import workloads

    shape = (workloads.SMOKE_SHAPES if args.smoke else workloads.SHAPES)[args.workload]
    nproc = workloads.nproc()
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        calib_before = calibrate()
        probes = 1 if args.smoke else SETUP_PROBES
        # probes run before and after each unit, so that their median
        # spans the run rather than one moment of the machine's speed
        setup_times = measure_setup(args.workload, probes)
        runner = workloads.UNITS[args.workload](args.seed, shape, work, nproc)
        if args.trace:
            units, tracer = report.traced_units(runner)
        else:
            units, tracer = [], None
            start = time.perf_counter()
            while (len(units) < MIN_UNITS
                   or time.perf_counter() - start < args.seconds):
                units.append(runner.run())
                setup_times += measure_setup(args.workload, probes)
        calib_after = calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "calibration_s": [calib_before, calib_after],
        "calibration_steps": CALIBRATION_STEPS,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    full = report.build(args, shape, units, tracer, setup_times, env)
    print(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(report.result_line(full, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
