"""Per-matrix symmetric eigensolver: the independent cross-check of
``dynamics.lax_eigenvalues``.

Householder tridiagonalization and implicit-shift QL, one matrix at a
time, with Python control flow.  The package takes its Lax spectra from
LAPACK (``np.linalg.eigvalsh``); this is another algorithm with other
roundoff, so the tests hold the two to agree within a stated number of
units of eps * max(1, |lambda|), not bit for bit.  The rare branch of the
QL sweep (r == 0, an underflow) is checked against LAPACK on tridiagonal
matrices that reach it.
"""

import numpy as np

from pnhier.errors import ConvergenceError


def _tridiagonalize(A):
    """Householder reduction of a symmetric matrix to (diagonal, off-diagonal)."""
    T = np.array(A, dtype=float, copy=True)
    k = T.shape[0]
    for i in range(k - 2):
        x = T[i + 1:, i]
        norm = float(np.sqrt(np.sum(x * x)))
        if norm == 0.0:
            continue
        alpha = -norm if x[0] >= 0.0 else norm
        v = x.copy()
        v[0] -= alpha
        vn = float(np.sqrt(np.sum(v * v)))
        if vn == 0.0:
            continue
        v /= vn
        # two-sided reflection H T H with H = I - 2 v v^T on the trailing block
        T[i + 1:, i:] -= 2.0 * np.outer(v, v @ T[i + 1:, i:])
        T[:, i + 1:] -= 2.0 * np.outer(T[:, i + 1:] @ v, v)
    return np.diag(T).copy(), np.diag(T, 1).copy()


def reference_ql(d, e, budget, tag):
    """Eigenvalues of a symmetric tridiagonal matrix by QL with implicit shifts."""
    n = d.size
    d = d.copy()
    ee = np.zeros(n)
    ee[:n - 1] = e
    eps = np.finfo(float).eps
    used = 0
    for l in range(n):
        while True:
            for m_ in range(l, n - 1):
                dd = abs(d[m_]) + abs(d[m_ + 1])
                if abs(ee[m_]) <= eps * dd:
                    break
            else:
                m_ = n - 1
            if m_ == l:
                break
            used += 1
            if used > budget:
                raise ConvergenceError(
                    f"{tag}: QL did not converge within {budget} iterations")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = float(np.hypot(g, 1.0))
            g = d[m_] - d[l] + ee[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m_ - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = float(np.hypot(f, g))
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m_] = 0.0
                    underflow = True
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            ee[l] = g
            ee[m_] = 0.0
    return np.sort(d)


def reference_eigenvalues(L, budget=None, tag="reference"):
    """Sorted eigenvalues of each matrix of a (B, k, k) stack, one at a time
    (budget 30*k QL iterations per matrix unless given)."""
    L = np.asarray(L, dtype=float)
    k = L.shape[-1]
    if k == 1:
        return L[:, 0, :1].copy()
    budget = 30 * k if budget is None else budget
    return np.array([reference_ql(*_tridiagonalize(A), budget=budget, tag=tag)
                     for A in L]).reshape(L.shape[0], k)
