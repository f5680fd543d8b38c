"""Catalog of coordinate models carrying a compatible bivector pair.

Each system packages, for a given size n: coordinate labels, a sampling box,
the open domain of validity, closed-form coordinate tables for the two
bivectors (pi0, pi1), and whatever closed-form reference data the model has
(first flows, master symmetries, Lax matrices, conserved hamiltonians).
The engine never differentiates these tables symbolically -- they are
evaluated on the coordinate jet, so all derivatives come out exact.

Bivector matrices follow the package convention P[i][j] = {x^i, x^j};
a term "a * d/du ^ d/dv" in a classical table means {u, v} = +a, and the
canonical symplectic bracket on (q_1..q_n, p_1..p_n) has {q_i, p_i} = -1,
i.e. Pi_0 = [[0, -I], [I, 0]].

A bivector table (``BivectorTable``) is compiled once, when the chart is
made: a constant (m, m) template that holds the table's plain-number
entries in both triangles, {x^i, x^j} = c above the diagonal and -c below,
and flat upper and lower indices for a few jet blocks.  A block is a run
of entries above the diagonal written as one vector jet over slices of
the coordinate jet X (an_toda's -B block is ``-X[n:]``).  One evaluation
copies the template into the value array, concatenates the blocks' values,
gradients and Hessians once each, and makes one upper write and one
negated lower write per array; so a negated jet entry keeps the sign of
its zeros, as the jet negation does, and every constant entry's
derivatives are +0.0 in both triangles, as a lifted constant's are.  A
table without blocks is constant (the canonical Pi_0, calogero's pi0): its
jets carry the ``constant`` flag of ``jets``, so the product rule skips
their derivative kernels and a flow keeps such a Pi0 and its inverse
(``dynamics.hamiltonian_flow_rhs``).
``tests/table_reference.py`` keeps every table entry by entry, as scalar
jets stacked row by row: the compiled tables match it byte for byte.

The closed forms are vector expressions over slices of X too, kept apart
from the engine so that the ``closed-forms`` row checks one against the
other: a sum over a vector jet v is ``sum(v[1:], v[0])``, left to right, a
vector field ``jstack`` of its runs' entries (``jstack([*-X[n:], *X[:n]])``),
and a Lax matrix is written run by run with index arrays.

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
                 pi0, pi1, domain_fn=None,
                 pair_names=("pi0", "pi1"), description="", extras=None):
        self.key = key
        self.title = title
        self.n = int(n)
        self.labels = list(labels)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.tables = (pi0, pi1)      # BivectorTable each
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
        """The coordinate jet at points x of shape (B, m), domain-checked.

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

    def pi0(self, X):
        return self.tables[0](X)

    def pi1(self, X):
        return self.tables[1](X)


# ---- bivector tables ---------------------------------------------------------

class BivectorTable:
    """An antisymmetric matrix jet compiled from its entries above the diagonal.

    ``const`` maps keys (i, j) to plain numbers; ``blocks`` lists one key
    list per jet block, and ``fill(X)`` returns the blocks, in that order, as
    (B, k) vector jets on the coordinate jet X, k the block's key count.
    Every key must satisfy 0 <= i < j < m and appear once, or compiling
    raises DimensionError, since a diagonal or lower key would break
    antisymmetry and a repeated one overwrite an entry.  At each call a
    block whose length is not its key count, or whose jet order is below
    X's (it has no derivatives to write), raises DimensionError too.  A
    table without blocks is ``constant``, and so are the jets it returns.
    """

    def __init__(self, m, const=None, blocks=(), fill=None):
        const = const or {}
        keys = list(const) + [key for block in blocks for key in block]
        for i, j in keys:
            if not 0 <= i < j < m:
                raise DimensionError(f"bivector table key ({i}, {j}) is not "
                                     f"strictly upper triangular in {m} x {m}")
        if len(set(keys)) < len(keys):
            raise DimensionError("bivector table lists a key twice")
        self.m = m
        self.template = np.zeros((m, m))
        for (i, j), c in const.items():
            self.template[i, j] = float(c)
            self.template[j, i] = -self.template[i, j]
        self.lengths = [(len(block),) for block in blocks]
        pairs = [(i, j) for block in blocks for i, j in block]
        self.upper = np.array([i * m + j for i, j in pairs], dtype=np.intp)
        self.lower = np.array([j * m + i for i, j in pairs], dtype=np.intp)
        self.fill = fill
        self.constant = not blocks

    def __call__(self, X):
        """The matrix jet at the coordinate jet X: its batch and order."""
        B, m = X.val.shape[0], self.m
        val = np.empty((B, m, m))
        val[...] = self.template
        arrays = [val]
        if X.grad is not None:
            arrays.append(np.zeros((B, m, m, m)))
            if X.hess is not None:
                arrays.append(np.zeros((B, m, m, m, m)))
        if not self.constant:
            blocks = self.fill(X)
            lengths = [block.val.shape[1:] for block in blocks]
            if lengths != self.lengths:
                raise DimensionError(f"bivector table blocks of lengths "
                                     f"{self.lengths} got entries of lengths "
                                     f"{lengths}")
            for arr, part in zip(arrays, ("val", "grad", "hess")):
                parts = [getattr(block, part) for block in blocks]
                if any(p is None for p in parts):
                    raise DimensionError(f"bivector table block has no {part}: "
                                         f"its jet order is below {X.order}")
                entries = parts[0] if len(parts) == 1 else np.concatenate(parts, 1)
                flat = arr.reshape(B, m * m, *arr.shape[3:])
                flat[:, self.upper] = entries
                flat[:, self.lower] = -entries    # never negated into out=
        arrays += [None] * (3 - len(arrays))
        return Jet2._new(*arrays, m, self.constant)


def _diagonal(lo, hi, shift):
    """The keys (i, i + shift), lo <= i < hi: a run of one upper diagonal."""
    return [(i, i + shift) for i in range(lo, hi)]


def _canonical(n):
    """Pi_0 = [[0, -I], [I, 0]] on (q_1..q_n, p_1..p_n): {q_i, p_i} = -1."""
    return BivectorTable(2 * n, dict.fromkeys(_diagonal(0, n, n), -1.0))


def _power_sum(n, k):
    """Closed-form h_k = sum_i x_i^k / k (h_0 = sum_i log x_i) over x_1..x_n.

    The ladder of a chart whose recursion operator is diag(x_1..x_n, x_1..x_n).
    """
    def h(X):
        v = X[:n].log() if k == 0 else X[:n] ** k * (1.0 / k)
        return sum(v[1:], v[0])
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

    def actions(X):
        return (X[:n] * X[:n] + X[n:] * X[n:]) * 0.5

    # I_i dp ^ dq  means {p_i, q_i} = I_i, i.e. {q_i, p_i} = -I_i
    pi1 = BivectorTable(m, blocks=[_diagonal(0, n, n)],
                        fill=lambda X: (-actions(X),))

    def xn_closed(X):
        # modular field of the pair: -p_i d/dq_i + q_i d/dp_i
        return jstack([*-X[n:], *X[:n]])

    def deformation_z(X):
        I = actions(X)
        return jstack([*I * X[:n] * -0.25, *I * X[n:] * -0.25])

    def h1_closed(X):
        I = actions(X)
        return sum(I[1:], I[0])

    def domain(x):
        q, p = x[:, :n], x[:, n:]
        return np.all(q ** 2 + p ** 2 > 0, axis=1)

    return System(
        "harmonic", "harmonic oscillators", n, labels,
        lo=[0.3] * m, hi=[1.5] * m,
        pi0=_canonical(n), pi1=pi1, domain_fn=domain,
        description="n uncoupled oscillators; recursion operator diag(I, I)",
        extras={
            "xn_closed": xn_closed,
            "deformation_z": deformation_z,
            "deformation_div_closed": lambda X: -h1_closed(X),
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
    pi0 = BivectorTable(2 * n, dict.fromkeys(_diagonal(0, n, n), 1.0))
    pi1 = BivectorTable(2 * n, blocks=[_diagonal(0, n, n)],
                        fill=lambda X: (X[:n],))

    def x1_closed(X):
        return jstack([0.0] * n + [*X[:n]])

    return System(
        "calogero", "rational Calogero-Moser", n, labels,
        lo=[0.5] * n + [-1.0] * n, hi=[2.0] * n + [1.0] * n,
        pi0=pi0, pi1=pi1,
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

    pi0 = BivectorTable(m, blocks=[_diagonal(0, n, n)],
                        fill=lambda X: (X[n:],))
    pi1 = BivectorTable(m, blocks=[_diagonal(0, n, n)],
                        fill=lambda X: (X[:n] * X[n:],))

    def x0_mu(X):
        return Jet2.const(np.repeat([1.0, 0.0], n), m, batch=X.val.shape[0],
                          order=X.order)

    def x1_mu(X):
        return jstack([*X[:n], *-X[n:]])

    def xm1_mu(X):
        return jstack([*X[:n] ** -1, *X[n:] * X[:n] ** -2])

    def z_closed(i):
        def z(X):
            return jstack([*X[:n] ** (i + 1)] + [0.0] * n)
        return z

    def deformation_z(X):
        return jstack([*X[:n] * X[:n] * -0.5] + [0.0] * n)

    return System(
        "toda_moser", "Toda lattice, Moser chart", n, labels,
        lo=[0.5] * m, hi=[2.0] * m,
        pi0=pi0, pi1=pi1,
        domain_fn=lambda x: np.all(x > 0, axis=1),
        description="spectral chart; recursion operator diag(lambda, lambda)",
        extras={
            "x0_mu": x0_mu,
            "x1_mu": x1_mu,
            "xm1_mu": xm1_mu,
            "z_closed": z_closed,
            "deformation_z": deformation_z,
            "deformation_div_closed": lambda X: -sum(X[1:n], X[0]),
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

    pi_linear = BivectorTable(2 * n, blocks=[
        _diagonal(0, n - 1, n),         # {a_i, b_i}   = -a_i
        _diagonal(0, n - 1, n + 1),     # {a_i, b_i+1} = +a_i
        [(n - 1, 2 * n - 1)],           # {a_n, b_n}   = -2 a_n
    ], fill=lambda X: (-X[:n - 1], X[:n - 1], X[n - 1:n] * (-2.0)))

    def cubic(X):
        a, b = X[:n], X[n:]
        a_i, a_j, b_j = a[:n - 2], a[1:n - 1], b[1:n - 1]   # i < n - 2, j = i + 1
        a_k, b_k = a[:n - 1], b[:n - 1]                      # k < n - 1
        a_p, a_n, b_n = a[n - 2:n - 1], a[n - 1:], b[n - 1:]
        return (a_i * a_j * b_j,
                a_p * a_n * b_n * 2.0,
                -(a_k * b_k * b_k + a_k ** 3),
                (a_n * b_n * b_n + a_n ** 3) * (-2.0),
                a_i * b_j * b_j + a_i ** 3,
                a_p ** 3 + a_p * (b_n * b_n - a_n * a_n),
                a_i * a_j * a_j,
                -(a_i * a_i * a_j),
                a_p * a_p * a_n * (-2.0),
                (a_k * a_k * (b_k + b[1:])) * 2.0)

    pi_cubic = BivectorTable(2 * n, blocks=[
        # a-a couplings
        _diagonal(0, n - 2, 1), [(n - 2, n - 1)],
        # a-b couplings
        _diagonal(0, n - 1, n), [(n - 1, 2 * n - 1)],
        _diagonal(0, n - 2, n + 1), [(n - 2, 2 * n - 1)],
        _diagonal(0, n - 2, n + 2), _diagonal(1, n - 1, n - 1),
        [(n - 1, 2 * n - 2)],
        # b-b couplings
        _diagonal(n, 2 * n - 1, 1),
    ], fill=cubic)

    def lax_np(x):
        """Symmetric 2n x 2n Lax matrix at points x of shape (B, 2n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a, b = x[:, :n], x[:, n:]
        L = np.zeros((x.shape[0], 2 * n, 2 * n))
        d, s = np.arange(2 * n), np.arange(2 * n - 1)
        # diagonal (b, then -b reversed); off-diagonal (a, then -a_{n-1..1})
        L[:, d, d] = np.concatenate([b, -b[:, ::-1]], 1)
        L[:, s, s + 1] = L[:, s + 1, s] = np.concatenate([a, -a[:, n - 2::-1]], 1)
        return L

    def h2_closed(X):
        # tr(L^2)/2 = sum b^2 + 2 sum_{i<n} a_i^2 + a_n^2
        aa, bb = X[:n] * X[:n], X[n:] * X[n:]
        return sum([*bb[1:], *aa[:n - 1] * 2.0, aa[n - 1]], bb[0])

    def printed_flow(X):
        """The classical equations of motion in (a, b); the engine field
        X_{H2} of pi_linear equals -2 times this (constant included)."""
        a, b = X[:n], X[n:]
        aa = a * a
        return jstack([*a[:n - 1] * (b[1:] - b[:n - 1]),
                       a[n - 1] * b[n - 1] * -2.0,
                       aa[0] * 2.0, *(aa[1:] - aa[:n - 1]) * 2.0])

    return System(
        "cn_toda", "C_n Bogoyavlensky-Toda", n, labels,
        lo=[0.3] * n + [-1.0] * n, hi=[1.2] * n + [1.0] * n,
        pi0=pi_linear, pi1=pi_cubic,
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
    pi1 = BivectorTable(
        2 * n,
        {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)},     # A
        [_diagonal(0, n, n),            # -B: {q_i, p_i} = -p_i
         _diagonal(n, 2 * n - 1, 1)],   # C: {p_i, p_i+1} = exp(q_i - q_i+1)
        lambda X: (-X[n:], (X[:n - 1] - X[1:n]).exp()))

    def h1_closed(X):
        return sum(X[n + 1:], X[n])

    def h2_closed(X):
        kinetic = X[n:] * X[n:] * 0.5
        return sum([*kinetic[1:], *(X[:n - 1] - X[1:n]).exp()], kinetic[0])

    def flaschka_np(x):
        """(q, p) points -> (a_1..a_{n-1}, b_1..b_n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        q, p = x[:, :n], x[:, n:]
        a = 0.5 * np.exp(0.5 * (q[:, :n - 1] - q[:, 1:]))
        return a, -0.5 * p

    def lax_np(x):
        """Symmetric tridiagonal n x n Lax matrix along a (q, p) trajectory."""
        a, b = flaschka_np(x)
        L = np.zeros((a.shape[0], n, n))
        i = np.arange(n)
        L[:, i, i] = b
        L[:, i[:-1], i[1:]] = L[:, i[1:], i[:-1]] = a
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
        pi0=_canonical(n), pi1=pi1,
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
