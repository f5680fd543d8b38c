"""Byte-identity digests of the command line, the demos and one bench text.

Usage:  python3 tests/report_digests.py [TREE]

Runs a fixed set of ``pnhier`` commands, the three demos and the seed-0
``flow-an-toda`` benchmark operation against TREE's ``src`` (default: the
tree that holds this script), each in its own subprocess with BLAS pinned
to one thread.  Prints one line per command: its label, its exit code and
the sha256 of its stdout and of its stderr.  Two trees give the same lines
exactly when every command behaves byte for byte alike, so a refactor is
checked with ``diff`` of two runs.  pytest does not collect this file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

CHARTS = ("harmonic", "calogero", "toda-moser", "cn-toda", "an-toda")
VERIFY = (("harmonic", 4), ("calogero", 3), ("toda-moser", 3),
          ("cn-toda", 3), ("an-toda", 4))
# every known false commuting-flows failure or near miss (ROADMAP item 1),
# so that a moved verdict shows in a diff; 1606 is a verify-catalog bench seed
BORDERLINE = (("cn-toda", 3, 222), ("cn-toda", 3, 281), ("cn-toda", 3, 1606),
              ("an-toda", 4, 84), ("an-toda", 4, 159), ("an-toda", 4, 217))
# each chart's smallest size, where the closed forms' slices of the
# coordinate jet are empty or one entry long
SMALLEST = (("harmonic", 1), ("calogero", 1), ("toda-moser", 1),
            ("cn-toda", 2), ("an-toda", 2))
DEMOS = ("catalog_checkup", "ladder_tour", "lattice_flow")

BENCH_TEXT = ("import sys; sys.path.insert(0, 'bench'); import workloads; "
              "text, problems = workloads.build('flow-an-toda', 0)(); "
              "sys.stdout.write(text); sys.exit(1 if problems else 0)")


def commands():
    """(label, argv) for every command, in print order."""
    cli = [sys.executable, "-m", "pnhier.cli"]
    for system, n in VERIFY:
        for seed in (0, 7):
            yield (f"verify-{system}-n{n}-seed{seed}",
                   cli + ["verify", "--system", system, "--n", str(n),
                          "--seed", str(seed)])
    for system, n, seed in BORDERLINE:
        yield (f"verify-{system}-n{n}-seed{seed}",
               cli + ["verify", "--system", system, "--n", str(n),
                      "--seed", str(seed)])
    for system, n in SMALLEST:
        yield (f"verify-{system}-n{n}-seed0",
               cli + ["verify", "--system", system, "--n", str(n),
                      "--seed", "0"])
    # large m (16, 16 and 12), where the order-2 product rule is most of the
    # time; all three charts have a constant Pi0, whose derivative kernels
    # the product rule skips
    for system, n in (("an-toda", 8), ("harmonic", 8), ("calogero", 6)):
        yield (f"verify-{system}-n{n}-samples50-seed0",
               cli + ["verify", "--system", system, "--n", str(n),
                      "--samples", "50", "--seed", "0"])
    # large m (10) with a master symmetry: the walk at order 2, for the
    # modular fields and master divergences, runs there
    yield ("verify-toda-moser-n5-samples50-seed0",
           cli + ["verify", "--system", "toda-moser", "--n", "5", "--samples",
                  "50", "--seed", "0"])
    # the one report whose first ladder request is an order-2 object: the
    # walk starts at order 2 and serves the order-1 kinds from there
    yield ("verify-toda-moser-n3-seed0-oevel-modular",
           cli + ["verify", "--system", "toda-moser", "--n", "3", "--seed", "0",
                  "--checks", "oevel-modular"])
    for system in CHARTS:
        yield (f"hierarchy-{system}-n3",
               cli + ["hierarchy", "--system", system, "--n", "3"])
    integrate = cli + ["integrate", "--system"]
    yield ("integrate-an-toda-n3-t2",
           integrate + ["an-toda", "--n", "3", "--t-end", "2"])
    yield ("integrate-toda-moser-n2-t1-rkf45",
           integrate + ["toda-moser", "--n", "2", "--t-end", "1",
                        "--method", "rkf45"])
    # rkf45 rejects steps and then leaves the chart domain: the one run of
    # its rejection and guard-truncation paths
    yield ("integrate-cn-toda-n2-t1-rkf45",
           integrate + ["cn-toda", "--n", "2", "--t-end", "1",
                        "--method", "rkf45"])
    yield ("integrate-cn-toda-n2-t1",
           integrate + ["cn-toda", "--n", "2", "--t-end", "1"])
    yield ("integrate-toda-moser-n2-t1-flow-1",
           integrate + ["toda-moser", "--n", "2", "--t-end", "1",
                        "--flow", "-1"])
    # the constant-Pi0 charts, and a flow that inverts N at every stage
    yield ("integrate-harmonic-n2-t1",
           integrate + ["harmonic", "--n", "2", "--t-end", "1"])
    yield ("integrate-calogero-n2-t1",
           integrate + ["calogero", "--n", "2", "--t-end", "1"])
    yield ("integrate-an-toda-n3-t1-flow-1",
           integrate + ["an-toda", "--n", "3", "--t-end", "1", "--flow", "-1"])
    # the flow's two legs: index 1 on the pi0 leg with the kept contraction
    # of a constant Pi0, index 3 on the pi1 leg with a power of N per stage,
    # and the pi1 leg beside a varying Pi0
    yield ("integrate-an-toda-n3-t1-flow1",
           integrate + ["an-toda", "--n", "3", "--t-end", "1", "--flow", "1"])
    yield ("integrate-an-toda-n3-t1-flow3",
           integrate + ["an-toda", "--n", "3", "--t-end", "1", "--flow", "3"])
    yield ("integrate-toda-moser-n2-t1-flow3",
           integrate + ["toda-moser", "--n", "2", "--t-end", "1",
                        "--flow", "3"])
    # the h_0 flow beside a constant and a varying Pi0, and a varying Pi0
    # at j = 1 on the pi0 leg
    yield ("integrate-harmonic-n2-t1-flow0",
           integrate + ["harmonic", "--n", "2", "--t-end", "1", "--flow", "0"])
    yield ("integrate-cn-toda-n2-t1-flow0",
           integrate + ["cn-toda", "--n", "2", "--t-end", "1", "--flow", "0"])
    yield ("integrate-cn-toda-n2-t1-flow1",
           integrate + ["cn-toda", "--n", "2", "--t-end", "1", "--flow", "1"])
    for n in (1, 2, 3):
        yield f"catalog-n{n}", cli + ["catalog", "--n", str(n)]
    for demo in DEMOS:
        yield f"demo-{demo}", [sys.executable, f"demos/{demo}.py"]
    yield "bench-flow-an-toda-seed0", [sys.executable, "-c", BENCH_TEXT]


def run(tree, cmd):
    """Run one command in TREE against its ``src``, BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True)


def main(argv):
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    for label, cmd in commands():
        done = run(tree, cmd)
        out = hashlib.sha256(done.stdout).hexdigest()
        err = hashlib.sha256(done.stderr).hexdigest()
        print(f"{label} {done.returncode} {out} {err}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
