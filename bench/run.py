"""pnhier benchmark: fixed seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload verify-oevel --seed 0 --seconds 20 --trace 0

Workloads (see bench/workloads.py and bench/README.md): verify-oevel,
verify-catalog, flow-an-toda.  Each is a closed loop with one caller in one
single-threaded process; BLAS is pinned to one thread before numpy loads.

One run:

1. starts fresh interpreters that import ``pnhier.cli`` and build the
   workload (bench/setup_probe.py), half of them before the operations and
   half after, so that they sample the host's speed at two moments; their
   median is ``setup_s``;
2. runs one warm-up operation, not timed, whose rendered output is the
   reference every later operation must reproduce byte for byte;
3. ``--trace 0``: runs operations until ``--seconds`` would be exceeded and
   reports the end-to-end metrics ``op_s`` (median seconds per operation),
   ``setup_s``, ``peak_rss_mb`` and ``pass_frac`` (1 - fail_frac);
   ``--trace 1``: spends half of ``--seconds`` untraced and half with the
   tracer installed (bench/tracer.py) and reports the per-layer metrics,
   medians over the traced operations, with ``trace.op_s`` (the traced
   operation's wall time, the base of every per-layer share) and
   ``trace.overhead_s`` (traced minus untraced ``op_s``).

Every operation passes through the correctness gate of bench/workloads.py;
a failed one counts in ``failed`` and the run goes on.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it record the environment and list each metric
with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One worker thread for BLAS: the workloads are single-threaded closed loops,
# and this must not exceed nproc on any machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 16  # half before the operations, half after
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


def per_layer_unit(name):
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "hierarchy.power_reuse":
        return "ratio"
    return "count"


def _median(values):
    """Median; counts stay whole numbers (they repeat exactly anyway)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _parse(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   help="verify-oevel, verify-catalog or flow-an-toda")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + ("" if not old else os.pathsep + old)
    sys.path.insert(0, str(SRC))


def _setup_probes(workload, seed, count):
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "PNHIER_THREADS": os.environ.get("PNHIER_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


class Runner:
    """Runs operations, applies the gate and keeps attempt/failure counts."""

    def __init__(self, op, row_names):
        self.op = op
        self.row_names = row_names
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def run_once(self, tracer=None):
        if tracer is not None:
            tracer.reset()
        text = None
        t0 = perf_counter()
        try:
            text, problems = self.op()
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        elapsed = perf_counter() - t0
        snapshot = None if tracer is None else tracer.snapshot(self.row_names)
        if text is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("rendered output differs from the first "
                                "operation's at the same seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems:
                print(f"operation {self.attempted} failed: {line}", file=sys.stderr)
        return elapsed, snapshot

    def loop(self, seconds, tracer=None):
        """Operations until the next one would end after ``seconds``; >= 1."""
        times, snapshots = [], []
        start = perf_counter()
        while True:
            elapsed, snap = self.run_once(tracer)
            times.append(elapsed)
            snapshots.append(snap)
            if perf_counter() - start + statistics.median(times) > seconds:
                return times, snapshots


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "pnhier" / "__init__.py").is_file():
        print(f"error: no pnhier sources under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()

    import numpy as np

    import pnhier
    import workloads
    from pnhier import report
    from tracer import Tracer

    if Path(pnhier.__file__).resolve().parent != SRC / "pnhier":
        print(f"error: pnhier imported from {pnhier.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r} (one of "
              f"{', '.join(workloads.NAMES)})", file=sys.stderr)
        return 2
    probes = _setup_probes(args.workload, args.seed, SETUP_PROBES // 2)

    runner = Runner(workloads.build(args.workload, args.seed), report.CHECK_NAMES)
    runner.run_once()  # warm-up: not timed, sets the reference output

    if args.trace == 0:
        times, _ = runner.loop(args.seconds)
        probes += _setup_probes(args.workload, args.seed, SETUP_PROBES - len(probes))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        values = {
            "op_s": statistics.median(times),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "pass_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END_UNITS
    else:
        plain, _ = runner.loop(args.seconds / 2)
        tracer = Tracer()
        try:
            tracer.install()
            traced, snapshots = runner.loop(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        probes += _setup_probes(args.workload, args.seed, SETUP_PROBES - len(probes))
        values = {name: _median([s[name] for s in snapshots])
                  for name in snapshots[0]}
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["trace.op_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.op_s"] - statistics.median(plain)
        units = {name: per_layer_unit(name) for name in values}

    print("env " + json.dumps(_environment(np), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed, "
          f"fail_frac {runner.failed / runner.attempted} ratio")
    for name, value in values.items():
        print(f"  {name} {value} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
