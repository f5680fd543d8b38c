"""Self-checks of the benchmark's tracer on the real workloads.

Run from the repository root (about a minute on 2 cores):

    python3 -m pytest -q bench/test_bench.py

For each workload: an untraced operation and two traced operations, each on
freshly built inputs at the same seed, must render the same bytes and pass
the gate; the exact counters must repeat; and the per-layer self times must
fit inside the traced operation's wall time.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pnhier.cli  # noqa: E402,F401  (every layer loaded before patching)
import workloads  # noqa: E402
from pnhier import report, systems  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SEED = 7
EXACT = ("jets.jmatpow.factors", "jets.jinv.calls", "jets.Jet2.new",
         "dynamics.rhs.calls", "hierarchy.power_reuse")


def _patchable_names():
    """Every name the tracer may patch: module globals and class attributes."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "pnhier" or name.startswith("pnhier.")]
    owners += [report.Jet2, systems.System]
    return {(id(owner), attr): obj
            for owner in owners for attr, obj in vars(owner).items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_runs_repeat_counts_and_change_no_output(workload):
    plain_text, problems = workloads.build(workload, SEED)()
    assert problems == []

    before = _patchable_names()
    tracer = Tracer()
    try:
        tracer.install()
        traced = []
        for _ in range(2):
            op = workloads.build(workload, SEED)
            tracer.reset()
            t0 = perf_counter()
            text, problems = op()
            wall = perf_counter() - t0
            traced.append((text, problems, wall,
                           tracer.snapshot(report.CHECK_NAMES)))
    finally:
        tracer.uninstall()

    after = _patchable_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    (text_a, prob_a, wall_a, a), (text_b, prob_b, wall_b, b) = traced
    assert prob_a == [] and prob_b == []
    assert text_a == plain_text and text_b == plain_text
    for key in EXACT:
        assert a[key] == b[key], key
    assert a["jets.jmatpow.factors"] > 0 and a["jets.Jet2.new"] > 0
    for snap, wall in ((a, wall_a), (b, wall_b)):
        total = sum(snap[f"{layer}.self_s"] for layer in LAYERS)
        assert 0.0 < total <= wall
