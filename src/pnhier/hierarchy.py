"""Recursion operator, bivector ladder, and hierarchy hamiltonians.

Given a compatible pair (pi0, pi1) the recursion operator is the matrix
N = Pi1 Pi0^{-1} (so that pi1# = N o pi0#), the bivector ladder is
Pi_i = N^i Pi0 for integer i, and the canonical hamiltonians are

    h_i = tr(N^i) / (2 i)        (i != 0)
    h_0 = log|det N| / 2.

These satisfy the cotangent ladder N^* dh_k = dh_{k+1}, the Lenard relations
pi_i# dh_j = pi_{i+1}# dh_{j-1}, involution in every bracket of the ladder,
and commuting flows; the functions here compute the objects and the defects
of each identity, leaving pass/fail policy to the caller.

Every ladder object is a power of the one operator N, and ``Hierarchy`` is
the one place that builds more than one of them, in one walk of N^k
outward from k = 0 (the class docstring describes it).  Built without Pi0
it holds the hamiltonians alone: all that a table of h_k or a monitor
along a flow reads.  It multiplies in the order ``jmatpow`` does, so
Pi_k, Z_k, X^k, div Z_k, h_0 and h_{+-1} are bit-identical to their
single-shot formulas, as are the values and gradients of every h_k
(tests/ladder_reference.py keeps those formulas as the reference); the
Hessians of h_k for |k| >= 2 may differ in their last bits.  It is also
the package's only builder of hamiltonians.  The flow builds no N jet:
its order-1 tail (``dynamics``) forms dh_k from the values and gradients
of the pair on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError, check_int
from .fields import (cotangent_apply, differential, hamiltonian_vf,
                     lie_bracket, poisson_bracket, sharp, worst_defect)
from .jets import (Jet2, jinv, jlogabsdet, jmatmul, jmatpow, jmatvec, jtrace,
                   jtranspose, jtruncate, trace_pair)
from .modular import koszul_d


def recursion_operator(P0, P1):
    """N = Pi1 Pi0^{-1}; raises SingularTensorError where pi0 degenerates."""
    return jmatmul(P1, jinv(P0, "pi0"))


def n_act(N, P):
    """Two-factor action N P N^T of a (1,1) tensor on a bivector."""
    return jmatmul(jmatmul(N, P), jtranspose(N))


# Deepest ladder index in either direction: beyond m independent invariants
# the traces are functionally dependent anyway (see spectral_pairing), so
# deeper ladders only amplify roundoff.
LADDER_CAP = 12


def check_depths(depth, neg_depth):
    """Validate a ladder range; returns (depth, neg_depth) as ints.

    Both are integers (``errors.check_int``): depth in 1..LADDER_CAP and
    neg_depth in 0..LADDER_CAP, with LADDER_CAP = 12.
    """
    return (check_int("depth", depth, 1, LADDER_CAP),
            check_int("neg_depth", neg_depth, 0, LADDER_CAP))


class Hierarchy:
    """Every ladder object of one recursion operator, each built once.

    One walk goes outward from k = 0 in either direction as far as the
    largest |k| requested: N^k = N^(k-1) N and N^-k = N^-(k-1) N^-1, with
    N and N^-1 taken at order 2, N from ``jmatpow`` and N^-1 from ``jinv``
    under the name "recursion operator", the name h_0's inverse has too.
    N is inverted on the first negative index, never again.  Every object
    lands in one table keyed by (kind, k), kept at the order its consumers
    read:

        hamiltonian(k) h_k                  order 2
        bivector(k)    Pi_k = N^k Pi0       order 1    needs P0
        master(k)      Z_k = N^k Z0         order 1    needs Z0
        modular(k)     X^k = D_mu Pi_k      order 1    needs P0
        master_div(k)  D_mu Z_k             order 1    needs Z0

    The walk runs at one jet order: 1 from the first request for a
    hamiltonian, bivector or master field, 2 from the first for a modular
    field or master divergence, which read the Hessians of Pi_k and Z_k.
    An order-2 request made while an order-1 walk runs restarts the walk
    from k = 0 at order 2; the order-1 ends are dropped, every object
    built is kept, and that walk serves every kind from then on.  At each
    k the products N^k Pi0 and N^k Z0 are formed once (at k = 0 none is:
    Pi_0 is Pi0 and Z_0 is Z0).  Pi_k and Z_k are them cut to order 1,
    unless already built; at order 2, X^k and div Z_k are their
    ``koszul_d``.  A contraction's value and gradient do not depend on the
    jet order, so either walk builds the same bits.  After a restart an
    order-1 object beyond the old order-1 end costs an order-2 product; no
    report asks in that order, since the rows that read order-2 objects
    run after the order-1 families have walked past any index read later.

    h_k takes its value and gradient from N^k cut to order 1.  For k != 0,
    with n = |k| and B = N (k > 0) or N^-1 (k < 0), its Hessian is

        +-1/2 [tr(d_b B^(n-1) d_a B) + tr(B^(n-1) d2_ab B)],

    two contractions of B^(n-1), whose gradient already holds the sum over
    j of B^j dB B^(n-2-j), against the order-2 B; at n = 1 it is the trace
    of d2 B.  Powers are held only at the two ends of the walk, besides N
    and N^-1.  h_0 = log|det N|/2 is computed on first request by
    ``jlogabsdet``, which inverts N apart from the walk.  Modular fields
    and divergences are taken in the coordinate Lebesgue density.
    An object that needs P0 or Z0 raises RangeError when it was passed as
    None; so does an index that is not an integer in
    -LADDER_CAP..LADDER_CAP, on every call (True and 1.0 are not 1).
    """

    def __init__(self, P0, N, Z0=None):
        self.P0, self.N, self.Z0 = P0, N, Z0
        self._objects = {}  # (kind, k) -> jet
        self._base = {}     # +1 / -1 -> order-2 N / N^-1
        self._ends = {}     # +1 / -1 -> (k, N^k) at that end of the walk
        self._order = 0     # the walk's jet order; 0 before the first walk

    def bivector(self, k):
        return self._get("bivector", k, 1, needs="P0")

    def modular(self, k):
        return self._get("modular", k, 2, needs="P0")

    def hamiltonian(self, k):
        k = check_int("ladder index", k, -LADDER_CAP, LADDER_CAP)
        if k != 0:
            return self._get("hamiltonian", k, 1)
        if ("hamiltonian", 0) not in self._objects:
            self._objects["hamiltonian", 0] = jlogabsdet(
                self.N, "recursion operator") * 0.5
        return self._objects["hamiltonian", 0]

    def master(self, k):
        return self._get("master", k, 1, needs="Z0")

    def master_div(self, k):
        return self._get("master_div", k, 2, needs="Z0")

    def ladder(self, depth, neg_depth=0):
        """dict {i: h_i} for i = -neg_depth..depth; see check_depths."""
        depth, neg_depth = check_depths(depth, neg_depth)
        return {i: self.hamiltonian(i) for i in range(-neg_depth, depth + 1)}

    def _get(self, kind, k, order, needs=None):
        k = check_int("ladder index", k, -LADDER_CAP, LADDER_CAP)
        if needs is not None and getattr(self, needs) is None:
            raise RangeError(f"this hierarchy was built without {needs}")
        if (kind, k) not in self._objects:
            if self._order < order:
                self._order, self._ends = order, {}
                self._derive(0, None, None)
            step = 1 if k > 0 else -1
            while (kind, k) not in self._objects:
                if step not in self._base:
                    # N^-1 carries the walk's name, as h_0's inverse does
                    self._base[step] = (jmatpow(self.N, step) if step > 0
                                        else jinv(self.N, "recursion operator"))
                base = self._base[step]
                j, prev = self._ends.get(step, (0, None))
                Nj = (jtruncate(base, self._order) if prev is None
                      else jmatmul(prev, base))
                self._ends[step] = (j + step, Nj)
                self._derive(j + step, prev, Nj)
        return self._objects[kind, k]

    def _derive(self, k, prev, Nk):
        """The objects at k from N^k and the power before it, prev; at
        k = 0, Nk is None and N^0 = I acts as the identity, so no product
        is formed, and at |k| = 1 prev is None."""
        objects = self._objects
        if k != 0 and ("hamiltonian", k) not in objects:
            objects["hamiltonian", k] = self._hamiltonian_at(k, prev, Nk)
        for J0, act, low, high in ((self.P0, jmatmul, "bivector", "modular"),
                                   (self.Z0, jmatvec, "master", "master_div")):
            if J0 is None:
                continue
            J = J0 if k == 0 else act(Nk, J0)
            objects.setdefault((low, k), jtruncate(J, 1))
            if self._order == 2:
                objects[high, k] = koszul_d(J)

    def _hamiltonian_at(self, k, prev, Nk):
        """h_k: value and gradient from N^k cut to order 1, the Hessian from
        prev = B^(n-1) and the order-2 B."""
        base = self._base[1 if k > 0 else -1]
        if prev is None:
            return jtrace(base) * (1.0 / (2 * k))
        h = jtrace(jtruncate(Nk, 1)) * (1.0 / (2 * k))
        if base.hess is None:
            return h
        d2 = (np.einsum("...ij,...jiab->...ab", prev.val, base.hess)
              + trace_pair(base.grad, prev.grad))
        return Jet2._new(h.val, h.grad, d2 * (0.5 if k > 0 else -0.5), h.m)


def cotangent_ladder_defect(N, ladder):
    """Per-sample max |N^* dh_i - dh_{i+1}| over consecutive ladder indices.

    Reads values only: N is cut to order 0, so every contraction is."""
    N = jtruncate(N, 0)
    return worst_defect(
        cotangent_apply(N, differential(ladder[i])).val
        - differential(ladder[i + 1]).val
        for i in sorted(ladder) if i + 1 in ladder)


def lenard_defect(hier, ladder):
    """Per-sample max |pi_i# dh_j - pi_{i+1}# dh_{j-1}| over ladder pairs.

    Exercises the bivector ladder of the Hierarchy ``hier`` directly
    (matrix powers of N on pi0), which makes it independent of the
    cotangent-ladder route.  Reads values only: each pi_i is cut to
    order 0, so every contraction is.
    """
    def pi(i):
        return jtruncate(hier.bivector(i), 0)

    return worst_defect(
        sharp(pi(i), differential(ladder[j])).val
        - sharp(pi(i + 1), differential(ladder[j - 1])).val
        for j in sorted(ladder) if j - 1 in ladder for i in (0, 1))


def involution_defect(P0, P1, ladder):
    """Per-sample max |{h_i, h_j}| over both brackets and all ladder pairs.

    Reads values only: P0 and P1 are cut to order 0, so no bracket forms
    a gradient."""
    idx, brackets = sorted(ladder), (jtruncate(P0, 0), jtruncate(P1, 0))
    return worst_defect(poisson_bracket(P, ladder[i], ladder[j]).val
                        for ai, i in enumerate(idx) for j in idx[ai + 1:]
                        for P in brackets)


def commuting_flows_defect(P0, ladder):
    """Per-sample max |[X_i, X_j]| for the pi0-hamiltonian ladder fields."""
    idx = sorted(ladder)
    fields = {i: hamiltonian_vf(P0, ladder[i]) for i in idx}
    return worst_defect(lie_bracket(fields[i], fields[j]).val
                        for ai, i in enumerate(idx) for j in idx[ai + 1:])


def spectrum(N):
    """Eigenvalues of the recursion operator, sorted by real part per point."""
    ev = np.linalg.eigvals(N.val)
    order = np.argsort(ev.real, axis=-1)
    return np.take_along_axis(ev, order, axis=-1)


# Relative gap, to max(1, |lambda|), within which two eigenvalues are one.
SPECTRAL_TOL = 1e-8


def spectral_pairing(N):
    """Sorted eigenvalues of N plus a pairing and multiplicity report.

    Recursion operators built from a bivector pair carry a doubled spectrum;
    per point this reports the sorted real eigenvalues, whether they pair up,
    how many distinct values they collapse to, and whether at least m/2 are
    distinct (the sufficient condition for m/2 independent ladder
    invariants, n on every catalog chart, where m = 2n), at the relative
    gap SPECTRAL_TOL.  Degeneracy is reported, never raised.
    """
    ev = spectrum(N)
    lam = ev.real
    m = lam.shape[-1]
    scale = np.maximum(1.0, np.abs(lam))
    new = np.ones(lam.shape, dtype=bool)
    new[..., 1:] = np.diff(lam, axis=-1) > SPECTRAL_TOL * scale[..., 1:]
    distinct = new.sum(axis=-1)
    if m % 2 == 0:
        paired = np.all(np.abs(lam[..., 0::2] - lam[..., 1::2])
                        <= SPECTRAL_TOL * scale[..., 0::2], axis=-1)
    else:
        paired = np.zeros(lam.shape[:-1], dtype=bool)
    return {
        "eigenvalues": lam,
        "max_imag": float(np.max(np.abs(ev.imag))),
        "paired": paired,
        "distinct": distinct,
        "independent": distinct >= m // 2,
    }
