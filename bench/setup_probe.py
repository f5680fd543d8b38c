"""Set-up time of one workload in a fresh interpreter.

Usage:  python3 bench/setup_probe.py WORKLOAD SEED

Times ``import pnhier.cli`` and then the building of the workload's systems
and inputs, and prints ``{"import_s": ..., "setup_s": ...}``; ``setup_s``
covers both.  bench/run.py starts it with ``src`` on ``PYTHONPATH`` and the
BLAS thread variables pinned.
"""

import json
import sys
from time import perf_counter


def main(argv):
    name, seed = argv[1], int(argv[2])
    t0 = perf_counter()
    import pnhier.cli  # noqa: F401  (the import is what is timed)
    t1 = perf_counter()
    import workloads
    workloads.build(name, seed)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
