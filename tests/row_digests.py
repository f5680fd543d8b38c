"""Byte-identity digests of every verify row's per-sample defect array.

Usage:  python3 tests/row_digests.py [TREE]

Runs ``verify_report`` with TREE's ``src`` (default: the tree that holds
this script) on the five charts at their benchmark sizes, at seeds 0, 5 and
99 with 100 samples, BLAS pinned to one thread.  Prints one line per
(chart, n, seed, row): the label, the row's status, and the sha256 of the
per-sample defect array the row reduced (``report._judged_row``), or of
the reason or message of a row that has none.  A rendered report shows
only each row's maximum and mean; these lines show every sample, so a
change that should keep the bits is checked with ``diff`` of two runs.
pytest does not collect this file.
"""

import hashlib
import os
import sys
from pathlib import Path

CHARTS = (("harmonic", 4), ("calogero", 3), ("toda_moser", 3),
          ("cn_toda", 3), ("an_toda", 4))
SEEDS = (0, 5, 99)
SAMPLES = 100


def main(argv):
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"           # before numpy loads
    sys.path.insert(0, str(tree.resolve() / "src"))
    import numpy as np
    from pnhier import report, systems

    arrays, judged = {}, report._judged_row

    def spy(ws, name, identity, run, *rest):
        def recorded(ws):
            arrays[name] = np.asarray(run(ws), dtype=float).ravel()
            return arrays[name]
        return judged(ws, name, identity, recorded, *rest)

    report._judged_row = spy
    for key, n in CHARTS:
        system = systems.make_system(key, n)
        for seed in SEEDS:
            arrays.clear()
            rep = report.verify_report(system, samples=SAMPLES, seed=seed)
            for row in rep["checks"]:
                name = row["name"]
                if name in arrays:
                    data = arrays[name].tobytes()
                else:
                    data = row.get("reason", row.get("message", "")).encode()
                status = row.get("status") or ("pass" if row["pass"]
                                               else "fail")
                print(f"{key}-n{n}-seed{seed}-{name} {status} "
                      f"{hashlib.sha256(data).hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
