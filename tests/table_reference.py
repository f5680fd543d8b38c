"""The catalog's bivector tables entry by entry: the compiled tables' oracle.

Each chart's pair is written here one entry at a time: a dict
{(i, j): entry} over scalar coordinate jets, assembled by
``nested_table_to_matrix`` as an m x m nested list of scalar jets stacked
row by row.  ``systems.BivectorTable`` must give the same bytes, signed
zeros included (tests/test_systems.py).
"""

import numpy as np

from pnhier.jets import Jet2, jstack


def nested_table_to_matrix(upper, ref):
    """An m x m nested list of scalar jets, one zero constant on every empty
    slot and a jet negation on every lower entry, stacked row by row."""
    m = ref.m
    zero = Jet2.const(np.zeros(ref.val.shape), m, order=ref.order)
    rows = [[zero] * m for _ in range(m)]
    for (i, j), v in upper.items():
        rows[i][j] = v
        rows[j][i] = -v
    return jstack([jstack(row) for row in rows])


def _canonical(n):
    return {(i, n + i): -1.0 for i in range(n)}


def _harmonic(n, x):
    I = [(x[i] * x[i] + x[n + i] * x[n + i]) * 0.5 for i in range(n)]
    return _canonical(n), {(i, n + i): -I[i] for i in range(n)}


def _calogero(n, x):
    return ({(i, n + i): 1.0 for i in range(n)},
            {(i, n + i): x[i] for i in range(n)})


def _toda_moser(n, x):
    return ({(i, n + i): x[n + i] for i in range(n)},
            {(i, n + i): x[i] * x[n + i] for i in range(n)})


def _cn_toda(n, x):
    a, b = x[:n], x[n:]
    lin = {}
    for i in range(n - 1):
        lin[(i, n + i)] = -a[i]
        lin[(i, n + i + 1)] = a[i]
    lin[(n - 1, 2 * n - 1)] = a[n - 1] * (-2.0)
    up = {}
    for i in range(n - 2):
        up[(i, i + 1)] = a[i] * a[i + 1] * b[i + 1]
    up[(n - 2, n - 1)] = a[n - 2] * a[n - 1] * b[n - 1] * 2.0
    for i in range(n - 1):
        up[(i, n + i)] = -(a[i] * b[i] * b[i] + a[i] ** 3)
    up[(n - 1, 2 * n - 1)] = (a[n - 1] * b[n - 1] * b[n - 1]
                              + a[n - 1] ** 3) * (-2.0)
    for i in range(n - 2):
        up[(i, n + i + 1)] = a[i] * b[i + 1] * b[i + 1] + a[i] ** 3
    up[(n - 2, 2 * n - 1)] = (a[n - 2] ** 3
                              + a[n - 2] * (b[n - 1] * b[n - 1]
                                            - a[n - 1] * a[n - 1]))
    for i in range(n - 2):
        up[(i, n + i + 2)] = a[i] * a[i + 1] * a[i + 1]
    for i in range(1, n - 1):
        up[(i, n + i - 1)] = -(a[i - 1] * a[i - 1] * a[i])
    up[(n - 1, 2 * n - 2)] = a[n - 2] * a[n - 2] * a[n - 1] * (-2.0)
    for i in range(n - 1):
        up[(n + i, n + i + 1)] = (a[i] * a[i] * (b[i] + b[i + 1])) * 2.0
    return lin, up


def _an_toda(n, x):
    q, p = x[:n], x[n:]
    up = {}
    for i in range(n):
        for j in range(i + 1, n):
            up[(i, j)] = 1.0                          # A block
        up[(i, n + i)] = -p[i]                        # -B block
    for i in range(n - 1):
        up[(n + i, n + i + 1)] = (q[i] - q[i + 1]).exp()   # C block
    return _canonical(n), up


TABLES = {"harmonic": _harmonic, "calogero": _calogero,
          "toda_moser": _toda_moser, "cn_toda": _cn_toda,
          "an_toda": _an_toda}


def reference_pair(system, X):
    """(Pi0, Pi1) of ``system`` at the coordinate jet X, entry by entry."""
    x = list(X)                 # the scalar coordinate jets x^0 .. x^(m-1)
    return tuple(nested_table_to_matrix(table, x[0])
                 for table in TABLES[system.key](system.n, x))
