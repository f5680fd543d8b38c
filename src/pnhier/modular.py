"""Modular vector fields and the degree-lowering Koszul operator.

The Koszul operator D of a volume density g*dx (g > 0, carried here as
log g) lowers multivector degree by one: on vector fields it is the
divergence div X + X(log g); on bivectors it produces the modular vector
field; on trivectors a bivector.  D o D = 0 holds identically, and D is what
ties recursion hierarchies to their modular fields.  ``koszul_d`` is the one
name for all three: the modular field of P is koszul_d(P, logg) and the
divergence of X is koszul_d(X, logg).  For a Poisson bivector the modular
field X generates the measure defect of hamiltonian flows:
X(f) = koszul_d(X_f, logg) for every f.

All inputs are batched jets; like every derivative-consuming operation the
Koszul operator drops the jet order by one.  Each operator here is one
``jets.jcontract`` call against ``jets.differential`` of its operand (its
derivative as a jet one order lower, not the Koszul D): the Koszul operator
contracts the derivative of A on its last slot, with one index pattern for
every degree, and adds the density term A . d(log g) after it.  The product
rule and the order in which its terms are summed live in jets.
"""

from __future__ import annotations

from .errors import DimensionError
from .jets import differential, jcontract, jmatvec


def koszul_d(A, logg=None):
    """Koszul operator of the density exp(logg)*dx applied to a multivector.

    The degree is read off the value shape: (B,m) vector, (B,m,m) bivector,
    (B,m,m,m) trivector.  logg = None means the coordinate Lebesgue density.
    Contraction happens on the last index slot:

      deg 1:  D X     = sum_j d_j X^j        + sum_j X^j d_j(log g)
      deg 2:  (D P)^i = sum_j d_j P^{ij}     + sum_j P^{ij} d_j(log g)
      deg 3:  (D T)^{ij} = sum_k d_k T^{ijk} + sum_k T^{ijk} d_k(log g)
    """
    rank = A.val.ndim - 1
    if rank not in (1, 2, 3):
        raise DimensionError(f"Koszul operator defined for degrees 1..3, got rank {rank}")
    idx = "ijk"[:rank]
    terms = [(f"{idx}{idx[-1]}->{idx[:-1]}", differential(A))]
    if logg is not None:
        terms.append((f"{idx},{idx[-1]}->{idx[:-1]}", A, differential(logg)))
    return jcontract(*terms)


def pn_modular_field(P0, N):
    """The distinguished field of a compatible pair, by direct contraction:

    X_N^i = -sum_{l,k} P0^{lk} d_l N^i_k.

    For a compatible (P0, N) this equals both hamiltonian routes
    X_{-tr(N)/2} w.r.t. P0 and X_{-log|det N|/2} w.r.t. P1 = N P0; the
    equalities are checked in the test-suite/report, never assumed.
    """
    return jcontract((-1, "lk,ikl->i", P0, differential(N)))


def modular_pair_defect_field(P0, P1, N, logg=None):
    """X^1_mu - N X^0_mu, the modular field of the pair via its two members.

    Independent of the density mu (the density terms cancel against
    P1 = N P0); equality with pn_modular_field(P0, N) is the central
    modular-hierarchy identity checked by the verify suite.
    """
    x0 = koszul_d(P0, logg)
    x1 = koszul_d(P1, logg)
    return x1 - jmatvec(N, x0)
