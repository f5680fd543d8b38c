"""How close each verify row comes to its bound over a fixed seed sweep.

Usage:  python3 tests/margin_sweep.py [TREE]

Runs ``verify_report`` with TREE's ``src`` (default: the tree that holds
this script) on five charts at their default sizes, seeds 0-299, 100
samples and depth 4 each.  For every chart and row it prints the worst
margin over the seeds and the seed where it occurs: defect / tol for an
identity row, floor / defect for a control, so a margin of 1 or more
fails either way.  A chart's line names the seeds whose report fails,
each with its worst margin.
Two trees are compared with ``diff`` of two runs.  The parameters are
fixed so that runs stay comparable.  pytest does not collect this file.
"""

import os
import sys
from pathlib import Path

CHARTS = (("harmonic", 4), ("calogero", 3), ("toda_moser", 3),
          ("cn_toda", 3), ("an_toda", 4))
SEEDS = range(300)
SAMPLES, DEPTH = 100, 4


def margin(row):
    """defect / tol, or floor / defect for a control; inf for an error."""
    if row.get("status") == "error":
        return float("inf")
    if "floor" in row:
        return row["floor"] / row["max_abs_defect"]
    return row["max_abs_defect"] / row["tol"]


def main(argv):
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(tree.resolve() / "src"))
    from pnhier.report import verify_report
    from pnhier.systems import make_system

    for key, n in CHARTS:
        system = make_system(key, n)
        worst, failing = {}, []
        for seed in SEEDS:
            rep = verify_report(system, samples=SAMPLES, seed=seed, depth=DEPTH)
            rows = [(margin(r), r["name"]) for r in rep["checks"] if "pass" in r]
            if not rep["all_pass"]:
                failing.append(f"{seed} ({max(rows)[0]:.3e})")
            for value, name in rows:
                if value > worst.get(name, (-1.0,))[0]:
                    worst[name] = (value, seed)
        print(f"{key} n={n}: failing seeds {', '.join(failing) or 'none'}",
              flush=True)
        for name, (value, seed) in worst.items():
            print(f"  {name:26s} {value:.3e} at seed {seed}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
