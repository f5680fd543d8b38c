"""Catalog of coordinate models carrying a compatible bivector pair.

Each system packages, for a given size n: coordinate labels, a sampling box,
the open domain of validity, closed-form coordinate tables for the two
bivectors (pi0, pi1), and whatever closed-form reference data the model has
(first flows, master symmetries, Lax matrices, conserved hamiltonians).
The engine never differentiates these tables symbolically -- they are
evaluated on coordinate jets, so all derivatives come out exact.

Bivector matrices follow the package convention P[i][j] = {x^i, x^j};
a term "a * d/du ^ d/dv" in a classical table means {u, v} = +a, and the
canonical symplectic bracket on (q_1..q_n, p_1..p_n) has {q_i, p_i} = -1,
i.e. Pi_0 = [[0, -I], [I, 0]].

A bivector table lists only the entries above the diagonal, as scalar jets
or plain numbers (constants).  ``_table_to_matrix`` scatters them into
zero-filled (B, m, m) value, gradient and Hessian arrays, each entry above
the diagonal and its negation below, so every pi0/pi1 evaluation is a
handful of slice writes, not an m x m nested list of scalar jets stacked
row by row.  The constant canonical Pi_0 is built once per system, when the
chart is made.

Five models are registered:

  harmonic     uncoupled oscillators in action-style chart (q, p)
  calogero     rational Calogero-Moser in first-integral chart (F, G)
  toda_moser   Toda flow in Moser spectral chart (lambda, r)
  cn_toda      C_n Bogoyavlensky-Toda in Flaschka chart (a, b),
               linear/cubic bracket pair (traditionally named pi1, pi3)
  an_toda      open-end Toda chain in canonical chart (q, p)
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, RangeError, check_int
from .jets import Jet2, jstack


class System:
    """A named model: chart, sampling box, bivector pair, closed forms."""

    def __init__(self, key, title, n, labels, lo, hi,
                 pi0_fn, pi1_fn, domain_fn=None,
                 pair_names=("pi0", "pi1"), description="", extras=None):
        self.key = key
        self.title = title
        self.n = int(n)
        self.labels = list(labels)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self._pi0_fn = pi0_fn
        self._pi1_fn = pi1_fn
        self._domain_fn = domain_fn
        self.pair_names = pair_names
        self.description = description
        self.extras = dict(extras or {})
        if not (len(self.labels) == self.lo.size == self.hi.size):
            raise DimensionError("labels and box bounds disagree in length")

    @property
    def m(self):
        return len(self.labels)

    def sample(self, samples, seed):
        """Philox counter-based sampling of the box, reproducible by seed;
        RangeError unless samples >= 1 and 0 <= seed < 2**128 are integers
        (``errors.check_int``: a float is refused, never truncated)."""
        samples = check_int("samples", samples, 1)
        seed = check_int("seed", seed)
        if not 0 <= seed < 2**128:      # the range of a Philox key
            raise RangeError(f"seed must be in [0, 2**128), got {seed}")
        rng = np.random.Generator(np.random.Philox(key=seed))
        u = rng.random((samples, self.m))
        return self.lo + (self.hi - self.lo) * u

    def domain_ok(self, x):
        """True per point while x stays in the open region holding the box."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._domain_fn is None:
            return np.ones(x.shape[0], dtype=bool)
        return self._domain_fn(x)

    def jets(self, x, order=2):
        """Coordinate jets at points x of shape (B, m), domain-checked.

        order=1 suffices for flow right-hand sides, order=0 for plain
        evaluation along long trajectories (much lighter on memory).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.m:
            raise DimensionError(f"{self.key}(n={self.n}) expects {self.m} "
                                 f"coordinates, got {x.shape[1]}")
        ok = self.domain_ok(x)
        if not np.all(ok):
            raise DomainError(f"{int(np.sum(~ok))} point(s) outside the "
                              f"domain of {self.key}")
        return Jet2.coords(x, order=order)

    def pi0(self, jets):
        return self._pi0_fn(jets)

    def pi1(self, jets):
        return self._pi1_fn(jets)


# ---- small builders ----------------------------------------------------------

def _table_to_matrix(upper, ref):
    """Antisymmetric matrix jet from a dict {(i, j): {x^i, x^j}} with i < j.

    An entry is a scalar jet or a plain number, a constant whose derivatives
    are zero.  ``ref``, a coordinate jet of the chart, sets the chart
    dimension m, the batch and the order.  The tables are scattered into
    zero-filled (B, m, m) value, gradient and Hessian arrays: each entry is
    written once at [:, i, j], then one negated fancy-index copy per array
    fills [:, j, i].  Slots not in the table stay +0.0; a negated jet entry
    keeps the sign of its zeros, as the jet negation does, and a constant
    entry's derivatives stay +0.0 in both triangles, as a lifted constant's
    do.  A key outside 0 <= i < j < m raises DimensionError, since a diagonal
    or lower key would break antisymmetry or overwrite an entry; so does a
    jet entry of lower order than ``ref``, whose missing derivatives would
    otherwise be written as NaN.
    """
    order, m = ref.order, ref.m
    shape = ref.val.shape + (m, m)
    val = np.zeros(shape)
    grad = np.zeros(shape + (m,)) if order >= 1 else None
    hess = np.zeros(shape + (m, m)) if order >= 2 else None
    jet_rows, jet_cols, const_rows, const_cols = [], [], [], []
    for (i, j), v in upper.items():
        if not 0 <= i < j < m:
            raise DimensionError(f"bivector table key ({i}, {j}) is not "
                                 f"strictly upper triangular in {m} x {m}")
        if not isinstance(v, Jet2):
            val[:, i, j] = float(v)
            const_rows.append(i)
            const_cols.append(j)
            continue
        if v.order < order:
            raise DimensionError(f"bivector table entry ({i}, {j}) has jet "
                                 f"order {v.order}, below {order}")
        jet_rows.append(i)
        jet_cols.append(j)
        val[:, i, j] = v.val
        if grad is not None:
            grad[:, i, j] = v.grad
        if hess is not None:
            hess[:, i, j] = v.hess
    # jet entries first, so the derivative arrays index a prefix; index
    # arrays, not tuples, which numpy converts more slowly
    rows, cols = np.array([jet_rows + const_rows, jet_cols + const_cols],
                          dtype=np.intp)
    for arr, k in ((val, rows.size), (grad, len(jet_rows)),
                   (hess, len(jet_rows))):
        if arr is not None and k:
            i, j = rows[:k], cols[:k]
            arr[:, j, i] = -arr[:, i, j]
    return Jet2(val, grad, hess, m=m)


def _canonical_block(n):
    """Pi_0 = [[0, -I], [I, 0]] on (q_1..q_n, p_1..p_n): {q_i, p_i} = -1."""
    return np.block([[np.zeros((n, n)), -np.eye(n)],
                     [np.eye(n), np.zeros((n, n))]])


def _const_jet(value, jets):
    """The constant array ``value`` (a vector or a matrix) as a jet at the
    batch and order of jets."""
    return Jet2.const(value, jets[0].m, batch=jets[0].val.shape[0],
                      order=jets[0].order)


def _power_sum(n, k):
    """Closed-form h_k = sum_i x_i^k / k (h_0 = sum_i log x_i) over x_1..x_n.

    The ladder of a chart whose recursion operator is diag(x_1..x_n, x_1..x_n).
    """
    def h(jets):
        if k == 0:
            out = jets[0].log()
            for i in range(1, n):
                out = out + jets[i].log()
            return out
        out = jets[0] ** k * (1.0 / k)
        for i in range(1, n):
            out = out + jets[i] ** k * (1.0 / k)
        return out
    return h


# ---- harmonic oscillators ----------------------------------------------------

def harmonic(n):
    """Uncoupled oscillators on (q, p); actions I_i = (q_i^2 + p_i^2)/2.

    pi0 is canonical, pi1 = sum_i I_i dp_i ^ dq_i, so the recursion operator
    is diag(I, I).  Everything about this model is a closed form, which makes
    it the sharpest oracle in the catalog.
    """
    n = check_int("harmonic n", n, 1)
    m = 2 * n
    labels = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    canonical = _canonical_block(n)

    def actions(jets):
        return [(jets[i] * jets[i] + jets[n + i] * jets[n + i]) * 0.5
                for i in range(n)]

    def pi1(jets):
        I = actions(jets)
        # I_i dp ^ dq  means {p_i, q_i} = I_i, i.e. {q_i, p_i} = -I_i
        return _table_to_matrix({(i, n + i): -I[i] for i in range(n)}, jets[0])

    def xn_closed(jets):
        # modular field of the pair: -p_i d/dq_i + q_i d/dp_i
        return jstack([-jets[n + i] for i in range(n)]
                      + [jets[i] for i in range(n)])

    def deformation_z(jets):
        I = actions(jets)
        return jstack([I[i] * jets[i] * (-0.25) for i in range(n)]
                      + [I[i] * jets[n + i] * (-0.25) for i in range(n)])

    def h1_closed(jets):
        I = actions(jets)
        out = I[0]
        for t in I[1:]:
            out = out + t
        return out

    def domain(x):
        q, p = x[:, :n], x[:, n:]
        return np.all(q ** 2 + p ** 2 > 0, axis=1)

    return System(
        "harmonic", "harmonic oscillators", n, labels,
        lo=[0.3] * m, hi=[1.5] * m,
        pi0_fn=lambda jets: _const_jet(canonical, jets),
        pi1_fn=pi1, domain_fn=domain,
        description="n uncoupled oscillators; recursion operator diag(I, I)",
        extras={
            "xn_closed": xn_closed,
            "deformation_z": deformation_z,
            "deformation_div_closed": lambda jets: -h1_closed(jets),
            "h_closed": {1: h1_closed},
        })


# ---- rational Calogero-Moser -------------------------------------------------

def calogero(n):
    """Rational Calogero-Moser in the linearizing chart (F, G).

    F_i are the Lax traces, G_i their conjugates; {F_i, G_i} = +1 and the
    second bracket scales by F_i.  The physical flow is X = sum_i F_i d/dG_i.
    """
    n = check_int("calogero n", n, 1)
    labels = [f"F{i+1}" for i in range(n)] + [f"G{i+1}" for i in range(n)]

    def pi0(jets):
        return _table_to_matrix({(i, n + i): 1.0 for i in range(n)}, jets[0])

    def pi1(jets):
        return _table_to_matrix({(i, n + i): jets[i] for i in range(n)}, jets[0])

    def x1_closed(jets):
        return jstack([0.0] * n + [jets[i] for i in range(n)])

    return System(
        "calogero", "rational Calogero-Moser", n, labels,
        lo=[0.5] * n + [-1.0] * n, hi=[2.0] * n + [1.0] * n,
        pi0_fn=pi0, pi1_fn=pi1,
        domain_fn=lambda x: np.all(x[:, :n] > 0, axis=1),
        description="first-integral chart; recursion operator diag(F, F)",
        extras={
            "x1_closed": x1_closed,
            "h_closed": {k: _power_sum(n, k) for k in (0, 1, 2, 3)},
        })


# ---- Toda lattice, Moser chart -------------------------------------------------

def toda_moser(n):
    """Toda flow in the Moser spectral chart (lambda, r).

    {lambda_i, r_i} = r_i and lambda_i r_i for the pair; the recursion
    operator is diag(lambda, lambda).  Every hierarchy object -- modular
    fields, master symmetries, ladder hamiltonians -- has a closed form here,
    including at negative depth, so this model anchors most oracle tests.
    """
    n = check_int("toda_moser n", n, 1)
    m = 2 * n
    labels = [f"lam{i+1}" for i in range(n)] + [f"r{i+1}" for i in range(n)]

    def pi0(jets):
        return _table_to_matrix({(i, n + i): jets[n + i] for i in range(n)},
                                jets[0])

    def pi1(jets):
        return _table_to_matrix({(i, n + i): jets[i] * jets[n + i]
                                 for i in range(n)}, jets[0])

    def x0_mu(jets):
        return _const_jet(np.repeat([1.0, 0.0], n), jets)

    def x1_mu(jets):
        return jstack([jets[i] for i in range(n)]
                      + [-jets[n + i] for i in range(n)])

    def xm1_mu(jets):
        return jstack([jets[i] ** -1 for i in range(n)]
                      + [jets[n + i] * jets[i] ** -2 for i in range(n)])

    def z_closed(i):
        def z(jets):
            return jstack([jets[k] ** (i + 1) for k in range(n)]
                          + [0.0] * n)
        return z

    def deformation_z(jets):
        return jstack([jets[k] * jets[k] * (-0.5) for k in range(n)]
                      + [0.0] * n)

    def sum_lam(jets):
        out = jets[0]
        for i in range(1, n):
            out = out + jets[i]
        return out

    return System(
        "toda_moser", "Toda lattice, Moser chart", n, labels,
        lo=[0.5] * m, hi=[2.0] * m,
        pi0_fn=pi0, pi1_fn=pi1,
        domain_fn=lambda x: np.all(x > 0, axis=1),
        description="spectral chart; recursion operator diag(lambda, lambda)",
        extras={
            "x0_mu": x0_mu,
            "x1_mu": x1_mu,
            "xm1_mu": xm1_mu,
            "z_closed": z_closed,
            "deformation_z": deformation_z,
            "deformation_div_closed": lambda jets: -sum_lam(jets),
            "h_closed": {k: _power_sum(n, k) for k in (-2, -1, 0, 1, 2, 3)},
            "neg_depth": 2,
            "oevel": {"z0": z_closed(0), "lam": -1.0, "mu": 0.0,
                      "nu": 1.0, "anchor": 1},
        })


# ---- C_n Bogoyavlensky-Toda ----------------------------------------------------

def cn_toda(n):
    """C_n Toda system in the Flaschka chart (a_1..a_n, b_1..b_n).

    The defining pair is the classical linear/cubic bracket pair,
    traditionally written pi1 and pi3 (the degree shift is historical); in
    this catalog they sit in the pi0/pi1 slots, and the cubic table carries
    boundary terms at the doubled C_n root.  Conserved hamiltonians are
    H_{2i} = tr(L^{2i})/(2i) for the symmetric 2n x 2n Lax matrix below.
    """
    n = check_int("cn_toda n", n, 2)
    labels = [f"a{i+1}" for i in range(n)] + [f"b{i+1}" for i in range(n)]

    def pi_linear(jets):
        a = jets[:n]          # a[i] is a_{i+1} in math indexing
        up = {}
        for i in range(n - 1):
            up[(i, n + i)] = -a[i]          # {a_i, b_i}   = -a_i
            up[(i, n + i + 1)] = a[i]       # {a_i, b_i+1} = +a_i
        up[(n - 1, 2 * n - 1)] = a[n - 1] * (-2.0)   # {a_n, b_n} = -2 a_n
        return _table_to_matrix(up, jets[0])

    def pi_cubic(jets):
        a, b = jets[:n], jets[n:]
        up = {}
        # a-a couplings
        for i in range(n - 2):
            up[(i, i + 1)] = a[i] * a[i + 1] * b[i + 1]
        up[(n - 2, n - 1)] = a[n - 2] * a[n - 1] * b[n - 1] * 2.0
        # a-b couplings
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
        # b-b couplings
        for i in range(n - 1):
            up[(n + i, n + i + 1)] = (a[i] * a[i] * (b[i] + b[i + 1])) * 2.0
        return _table_to_matrix(up, jets[0])

    def lax_np(x):
        """Symmetric 2n x 2n Lax matrix at points x of shape (B, 2n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a, b = x[:, :n], x[:, n:]
        B = x.shape[0]
        L = np.zeros((B, 2 * n, 2 * n))
        for i in range(n):
            L[:, i, i] = b[:, i]
            L[:, 2 * n - 1 - i, 2 * n - 1 - i] = -b[:, i]
        for i in range(n - 1):
            L[:, i, i + 1] = L[:, i + 1, i] = a[:, i]
            L[:, 2 * n - 2 - i, 2 * n - 1 - i] = L[:, 2 * n - 1 - i, 2 * n - 2 - i] = -a[:, i]
        L[:, n - 1, n] = L[:, n, n - 1] = a[:, n - 1]
        return L

    def h2_closed(jets):
        # tr(L^2)/2 = sum b^2 + 2 sum_{i<n} a_i^2 + a_n^2
        a, b = jets[:n], jets[n:]
        out = b[0] * b[0]
        for i in range(1, n):
            out = out + b[i] * b[i]
        for i in range(n - 1):
            out = out + a[i] * a[i] * 2.0
        out = out + a[n - 1] * a[n - 1]
        return out

    def printed_flow(jets):
        """The classical equations of motion in (a, b); the engine field
        X_{H2} of pi_linear equals -2 times this (constant included)."""
        a, b = jets[:n], jets[n:]
        adot = [a[i] * (b[i + 1] - b[i]) for i in range(n - 1)]
        adot.append(a[n - 1] * b[n - 1] * (-2.0))
        bdot = [a[0] * a[0] * 2.0]
        for i in range(1, n):
            bdot.append((a[i] * a[i] - a[i - 1] * a[i - 1]) * 2.0)
        return jstack(adot + bdot)

    return System(
        "cn_toda", "C_n Bogoyavlensky-Toda", n, labels,
        lo=[0.3] * n + [-1.0] * n, hi=[1.2] * n + [1.0] * n,
        pi0_fn=pi_linear, pi1_fn=pi_cubic,
        domain_fn=lambda x: np.all(x[:, :n] > 0, axis=1),
        pair_names=("pi1", "pi3"),
        description="linear/cubic bracket pair with doubled-root boundary terms",
        extras={
            "lax_np": lax_np,
            "h2_closed": h2_closed,
            "printed_flow": printed_flow,
            "flow_scale": -2.0,
        })


# ---- open-end Toda chain -------------------------------------------------------

def an_toda(n):
    """Open-end Toda chain in canonical coordinates (q_1..q_n, p_1..p_n).

    pi0 is canonical; pi1 has the constant block A (a_ij = 1 for i < j),
    B = diag(p) and the nearest-neighbour block C[i][i+1] = exp(q_i - q_i+1).
    The Flaschka map sends the physical flow onto the symmetric tridiagonal
    Lax pair whose spectrum the dynamics checks monitor.
    """
    n = check_int("an_toda n", n, 2)
    labels = [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    canonical = _canonical_block(n)

    def pi1(jets):
        q = jets[:n]
        p = jets[n:]
        up = {}
        for i in range(n):
            for j in range(i + 1, n):
                up[(i, j)] = 1.0                          # A block
            up[(i, n + i)] = -p[i]                        # -B block: {q_i, p_i} = -p_i
        for i in range(n - 1):
            up[(n + i, n + i + 1)] = (q[i] - q[i + 1]).exp()   # C block
        return _table_to_matrix(up, jets[0])

    def h1_closed(jets):
        out = jets[n]
        for i in range(1, n):
            out = out + jets[n + i]
        return out

    def h2_closed(jets):
        out = jets[n] * jets[n] * 0.5
        for i in range(1, n):
            out = out + jets[n + i] * jets[n + i] * 0.5
        for i in range(n - 1):
            out = out + (jets[i] - jets[i + 1]).exp()
        return out

    def flaschka_np(x):
        """(q, p) points -> (a_1..a_{n-1}, b_1..b_n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        q, p = x[:, :n], x[:, n:]
        a = 0.5 * np.exp(0.5 * (q[:, :n - 1] - q[:, 1:]))
        return a, -0.5 * p

    def lax_np(x):
        """Symmetric tridiagonal n x n Lax matrix along a (q, p) trajectory."""
        a, b = flaschka_np(x)
        B = a.shape[0]
        L = np.zeros((B, n, n))
        for i in range(n):
            L[:, i, i] = b[:, i]
        for i in range(n - 1):
            L[:, i, i + 1] = L[:, i + 1, i] = a[:, i]
        return L

    def pushed_flow_np(x):
        """Closed-form image of the h2 flow under the Flaschka map:
        da_i = a_i (b_{i+1} - b_i), db_i = 2 (a_i^2 - a_{i-1}^2), a_0 = a_n = 0."""
        a, b = flaschka_np(x)
        adot = a * (b[:, 1:] - b[:, :n - 1])
        a2 = np.concatenate([np.zeros((a.shape[0], 1)), a ** 2,
                             np.zeros((a.shape[0], 1))], axis=1)
        bdot = 2.0 * (a2[:, 1:n + 1] - a2[:, 0:n])
        return adot, bdot

    return System(
        "an_toda", "open Toda chain", n, labels,
        lo=[-0.5] * n + [-1.0] * n, hi=[0.5] * n + [1.0] * n,
        pi0_fn=lambda jets: _const_jet(canonical, jets),
        pi1_fn=pi1,
        description="canonical chart; nearest-neighbour exponential couplings",
        extras={
            "h_closed": {1: h1_closed, 2: h2_closed},
            "flaschka_np": flaschka_np,
            "lax_np": lax_np,
            "pushed_flow_np": pushed_flow_np,
        })


SYSTEMS = {
    "harmonic": harmonic,
    "calogero": calogero,
    "toda_moser": toda_moser,
    "cn_toda": cn_toda,
    "an_toda": an_toda,
}


def make_system(key, n):
    """Instantiate a registered system; RangeError on an unknown key, or
    unless n is an integer at least the chart's smallest size."""
    if key not in SYSTEMS:
        known = ", ".join(k.replace("_", "-") for k in SYSTEMS)
        raise RangeError(f"unknown system {key!r} (catalog: {known})")
    return SYSTEMS[key](n)
