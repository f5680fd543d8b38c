"""Multivector calculus on jet-evaluated tensor fields.

Fields are batched jets (see jets.py): a function has val shape (B,), a
vector field (B, m), a bivector (B, m, m) stored as the full antisymmetric
matrix P with P[i][j] = {x^i, x^j}, a (1,1) tensor (B, m, m) with N[i][j] =
N^i_j, and a trivector (B, m, m, m), fully antisymmetric.

Every operation is one to three ``jets.jcontract`` calls: each term names
its index contraction and its operands, and the product rule that yields the
gradient and Hessian lives in jets alone.  A derivative enters as
``differential(A)`` (D A, the derivative of A as a jet of one order less),
so an operation that consumes a derivative (brackets, Lie derivatives,
torsion) returns a jet of one order less than the operand it differentiates;
purely algebraic operations (sharp, wedge, n_act) preserve the order.
Terms are summed in the order they are listed (the term-order rule of
jets).  Identities are checked by evaluating both sides on order-2
coordinate jets and comparing values, with one level of bracket nesting
still differentiable.  A defect that reads values only cuts its operands
with ``jtruncate`` first (see there), as the structure defects here and
the ladder, route and family defects built on them do.

Sign conventions (fixed here once, tested in test_fields.py):

  [X, Y]           Lie bracket of vector fields
  [X, f]  = X(f),                  [f, X] = -X(f)
  [P, f]^i = sum_j P^{ij} d_j f,   [f, P] = [P, f]
  [X, P]  = L_X P,                 [P, X] = -[X, P]
  [P, Q]  bivector-bivector bracket, symmetric, overall sign SCHOUTEN_BB_SIGN

The literal sign is pinned by the graded Leibniz rule
[P, X^Y] = [P,X]^Y - X^[P,Y]; the tests verify it on random polynomial
fields, and the opposite sign fails it.

The hamiltonian field of h is X_h = P# dh with (P# a)^i = sum_j P[j][i] a_j,
i.e. X_h = {h, .}; canonical coordinates carry {q, p} = -1 in the matrix
convention above, so that X_h(q) = +dh/dp.
"""

from __future__ import annotations

import numpy as np

from .jets import differential, jcontract, jtranspose, jtruncate

SCHOUTEN_BB_SIGN = -1.0


# ---- algebraic (order-preserving) operations --------------------------------

def sharp(P, alpha):
    """(P# alpha)^i = sum_j P[j][i] alpha_j -- the anchor map of a bivector."""
    return jcontract(("ji,j->i", P, alpha))


def cotangent_apply(N, alpha):
    """(N* alpha)_i = sum_j alpha_j N^j_i -- N acting on covectors."""
    return jcontract(("j,ji->i", alpha, N))


def wedge_vv(X, Y):
    """(X ^ Y)^{ij} = X^i Y^j - X^j Y^i."""
    # one term minus its transpose sums each derivative as (a + b) - (c + d);
    # two signed terms would sum ((a + b) - c) - d, other bits
    J = jcontract(("i,j->ij", X, Y))
    return J - jtranspose(J)


def wedge_vb(Z, P):
    """(Z ^ P)^{ijk} = Z^i P^{jk} + Z^j P^{ki} + Z^k P^{ij}."""
    return jcontract(("i,jk->ijk", Z, P), ("j,ki->ijk", Z, P), ("k,ij->ijk", Z, P))


def scalar_mul(f, A):
    """f * A for a scalar field f and a tensor field A of any rank."""
    idx = "ijkl"[:A.val.ndim - 1]
    return jcontract((f",{idx}->{idx}", f, A))


# ---- derivative-consuming operations ----------------------------------------

def evaluate(X, f):
    """X(f) for a vector field and a function."""
    return jcontract(("i,i->", X, differential(f)))


def hamiltonian_vf(P, h):
    """X_h = P# dh = {h, .}."""
    return sharp(P, differential(h))


def poisson_bracket(P, f, g):
    """{f, g} = sum_{ij} P^{ij} d_i f d_j g."""
    return jcontract(("ij,i,j->", P, differential(f), differential(g)))


def lie_bracket(X, Y):
    """[X, Y]^i = X^l d_l Y^i - Y^l d_l X^i."""
    return jcontract(("l,il->i", X, differential(Y)),
                     (-1, "l,il->i", Y, differential(X)))


def lie_der_bivector(X, P):
    """(L_X P)^{ij} = X^l d_l P^{ij} - P^{lj} d_l X^i - P^{il} d_l X^j."""
    dX = differential(X)
    return jcontract(("l,ijl->ij", X, differential(P)),
                     (-1, "lj,il->ij", P, dX), (-1, "il,jl->ij", P, dX))


def schouten_bf(P, f):
    """[P, f]^i = sum_j P^{ij} d_j f (the hamiltonian field is X_f = -[P, f])."""
    return jcontract(("ij,j->i", P, differential(f)))


def schouten_bb(P, Q):
    """Bivector-bivector Schouten bracket (a trivector); symmetric in P, Q."""
    s = SCHOUTEN_BB_SIGN

    # the two halves are summed apart, then added: one six-term sum would
    # round differently and move the schouten-mixed row in its last digits
    def half(A, dB):
        return jcontract((s, "lk,ijl->ijk", A, dB), (s, "li,jkl->ijk", A, dB),
                         (s, "lj,kil->ijk", A, dB))

    return half(P, differential(Q)) + half(Q, differential(P))


# ---- structure defects -------------------------------------------------------
#
# Every *_defect function returns a per-sample array of shape (B,): the max
# abs defect at each sample point.  A defect over several identity instances
# (index pairs, densities, routes) is ``worst_defect`` of their residuals;
# callers reduce the result with np.max / np.mean.

def per_sample(arr):
    """Max abs over all non-batch axes: defect tensor (B, ...) -> (B,).
    ``worst_defect`` folds it over several residuals."""
    arr = np.abs(np.asarray(arr))
    return np.max(arr, axis=tuple(range(1, arr.ndim))) if arr.ndim > 1 else arr


def worst_defect(diffs):
    """Per-sample max of ``per_sample`` over residual tensors (B, ...), taken
    one at a time (a generator streams them); 0.0 when there are none, and a
    nan at a sample in any residual reaches the result there."""
    out = 0.0
    for d in diffs:
        out = np.maximum(out, per_sample(d))
    return out


def jacobi_trivector(P):
    """J^{abe} = sum_c (P^{ce} d_c P^{ab} + P^{ca} d_c P^{be} + P^{cb} d_c P^{ea}).

    Vanishes iff P satisfies the Jacobi identity; independent of the overall
    Schouten sign convention.
    """
    dP = differential(jtruncate(P, 1))
    return jcontract(("ce,abc->abe", P, dP), ("ca,bec->abe", P, dP),
                     ("cb,eac->abe", P, dP))


def jacobi_defect(P):
    """Per-sample max |J|: 0 for a Poisson bivector."""
    return per_sample(jacobi_trivector(P).val)


def nijenhuis_torsion(N):
    """T^i_{jk} = N^l_j d_l N^i_k - N^l_k d_l N^i_j - N^i_l (d_j N^l_k - d_k N^l_j)."""
    dN = differential(jtruncate(N, 1))
    return jcontract(("lj,ikl->ijk", N, dN), (-1, "lk,ijl->ijk", N, dN),
                     (-1, "il,lkj->ijk", N, dN), ("il,ljk->ijk", N, dN))


def torsion_defect(N):
    """Per-sample max |T_N|: 0 for a Nijenhuis tensor."""
    return per_sample(nijenhuis_torsion(N).val)


def pn_compat_defect(P0, N):
    """Compatibility defect of a bivector-recursion pair, per sample.

    Combines the algebraic defect max |N P0 - P0 N^T| with the coordinate
    (first-derivative) defect

      C^{ij}_k = sum_l [ P0^{lj} d_l N^i_k + P0^{il} d_l N^j_k
                         - P0^{lj} d_k N^i_l - N^l_k d_l P0^{ij}
                         + N^j_l d_k P0^{il} ]

    and returns the pointwise max of the two.  Both vanish exactly when
    (P0, N) is a compatible pair.
    """
    dP0, dN = differential(jtruncate(P0, 1)), differential(jtruncate(N, 1))
    alg = N.val @ P0.val - P0.val @ N.val.swapaxes(-1, -2)
    coord = jcontract(("lj,ikl->ijk", P0, dN), ("il,jkl->ijk", P0, dN),
                      (-1, "lj,ilk->ijk", P0, dN), (-1, "lk,ijl->ijk", N, dP0),
                      ("jl,ilk->ijk", N, dP0)).val
    return worst_defect((alg, coord))


def antisymmetry_defect(P):
    """Per-sample max |P + P^T|: a stored bivector must be antisymmetric."""
    return per_sample(P.val + P.val.swapaxes(-1, -2))
