"""Which CSV columns of the flow commands moved between two trees.

Usage:  python3 tests/csv_columns.py TREE_A TREE_B

Runs the ``integrate-*`` commands and the seed-0 ``flow-an-toda``
benchmark operation of ``report_digests.commands()`` in both trees (as
``report_digests`` runs them) and reads each stdout as a CSV table.  Prints
one line per command and column: the label, the column, the number of
entries whose text differs out of the column's length, and the largest
|difference| of their values.  A command whose exit code, header or row
count differs gets one line saying so.  pytest does not collect this file.
"""

import sys

import numpy as np

from report_digests import commands, run


def table(stdout):
    """(header, values as a (rows, columns) text array) of a CSV text."""
    header, *rows = stdout.decode().splitlines()
    return header.split(","), np.array([r.split(",") for r in rows], dtype=str)


def main(argv):
    tree_a, tree_b = argv
    for label, cmd in commands():
        if not label.startswith(("integrate-", "bench-flow-an-toda")):
            continue
        a, b = run(tree_a, cmd), run(tree_b, cmd)
        if a.returncode != b.returncode:
            print(f"{label} exit {a.returncode} vs {b.returncode}")
            continue
        (cols, ta), (cols_b, tb) = table(a.stdout), table(b.stdout)
        if cols != cols_b or ta.shape != tb.shape:
            print(f"{label} table {len(cols)}x{len(ta)} "
                  f"vs {len(cols_b)}x{len(tb)}")
            continue
        for j, col in enumerate(cols):
            moved = ta[:, j] != tb[:, j]
            gap = np.abs(ta[moved, j].astype(float)
                         - tb[moved, j].astype(float))
            print(f"{label} {col} {moved.sum()}/{len(moved)} "
                  f"{np.max(gap, initial=0.0):.3g}")


if __name__ == "__main__":
    main(sys.argv[1:])
