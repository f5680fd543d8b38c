"""Master symmetries and the graded relation families they generate.

A conformal vector field Z0 rescales the bivector pair (L_Z0 pi0 = lam*pi0,
L_Z0 pi1 = mu*pi1) and one ladder hamiltonian (Z0(h_A) = nu*h_A).  Pushing Z0
through powers of the recursion operator produces the family Z_i = N^i Z0,
and the whole hierarchy closes on three coefficient laws plus a pair of
relations tying the Z_i to the modular fields of the hierarchy bivectors.

The family defects read Z_i, pi_j and the modular fields X^j from one
``hierarchy.Hierarchy`` built with Z0, the only code that forms Z_i.  Every
defect function returns per-sample arrays of shape (B,), a family defect
the ``fields.worst_defect`` over its index box; callers reduce with np.max /
np.mean and decide what "small" means.
"""

from .fields import (evaluate, hamiltonian_vf, lie_bracket,
                     lie_der_bivector, per_sample, worst_defect)
from .jets import jtruncate
from .modular import koszul_d


def coeff_h(lam, mu, nu, anchor, i, j):
    """Coefficient in Z_i(h_j) = coeff * h_{i+j} (undefined at i+j = 0)."""
    return nu + (j - anchor + i) * (mu - lam)


def coeff_pi(lam, mu, i, j):
    """Coefficient in L_{Z_i} pi_j = coeff * pi_{i+j}."""
    return mu + (j - i - 1) * (mu - lam)


def coeff_z(lam, mu, i, j):
    """Coefficient in [Z_i, Z_j] = coeff * Z_{i+j}."""
    return (mu - lam) * (j - i)


def conformal_defects(P0, P1, Z0, lam, mu, nu, h_anchor):
    """Per-sample defects of the three conformal conditions on Z0.

    Returns {"pi0", "pi1", "h"} per-sample arrays: how far L_Z0 pi0, L_Z0 pi1
    and Z0(h_anchor) are from lam*pi0, mu*pi1 and nu*h_anchor.  Reads values
    only: Z0 is cut to order 1 where it is differentiated and to order 0
    where it is not.
    """
    Z1 = jtruncate(Z0, 1)
    d0 = lie_der_bivector(Z1, P0).val - lam * P0.val
    d1 = lie_der_bivector(Z1, P1).val - mu * P1.val
    dh = evaluate(jtruncate(Z0, 0), h_anchor).val - nu * h_anchor.val
    return {"pi0": per_sample(d0), "pi1": per_sample(d1), "h": per_sample(dh)}


def hamiltonian_family_defect(hier, ladder, lam, mu, nu, anchor, i_range, j_range):
    """Per-sample max defect of Z_i(h_j) = coeff_h(i,j) * h_{i+j} over the index box.

    Z_i come from the Hierarchy ``hier``.  Pairs with i + j = 0 are
    excluded: there the right-hand side degenerates (h_0 is logarithmic) and
    Z_i(h_{-i}) is a constant instead; see anomaly_defect.  The ladder must
    cover every i + j that occurs.  Reads values only: Z_i is cut to order
    0, so every contraction is.
    """
    return worst_defect(
        evaluate(jtruncate(hier.master(i), 0), ladder[j]).val
        - coeff_h(lam, mu, nu, anchor, i, j) * ladder[i + j].val
        for i in i_range for j in j_range if i + j != 0)


def anomaly_defect(hier, ladder, anomaly, i_range):
    """Per-sample max defect of Z_i(h_{-i}) = anomaly, a constant, over i in i_range.

    The caller supplies the constant: for the open lattice systems it is
    n*(mu - lam) with n the number of degrees of freedom, independent of i.
    Reads values only: Z_i is cut to order 0, so every contraction is.
    """
    return worst_defect(
        evaluate(jtruncate(hier.master(i), 0), ladder[-i]).val - anomaly
        for i in i_range)


def bivector_family_defect(hier, lam, mu, i_range, j_range):
    """Per-sample max defect of L_{Z_i} pi_j = coeff_pi(i,j) * pi_{i+j} over the box."""
    return worst_defect(
        lie_der_bivector(hier.master(i), hier.bivector(j)).val
        - coeff_pi(lam, mu, i, j) * hier.bivector(i + j).val
        for i in i_range for j in j_range)


def commutator_family_defect(hier, lam, mu, i_range, j_range):
    """Per-sample max defect of [Z_i, Z_j] = coeff_z(i,j) * Z_{i+j} over the box."""
    return worst_defect(
        lie_bracket(hier.master(i), hier.master(j)).val
        - coeff_z(lam, mu, i, j) * hier.master(i + j).val
        for i in i_range for j in j_range)


def modular_family_defect(hier, lam, mu, i_range, j_range):
    """Per-sample defects of the two relations mixing Z_i with the modular fields.

    With X^j the modular field of pi_j and f_i = div(Z_i), all from the
    Hierarchy ``hier`` (coordinate Lebesgue density):

        [X^j, Z_i] + coeff_pi(i,j) * X^{i+j} - X^j_{f_i} = 0
        L_{X^i} pi_j + L_{X^j} pi_i = 0

    Returns {"bracket": ..., "exchange": ...} with the max defect of each.
    """
    bracket = worst_defect(
        lie_bracket(hier.modular(j), hier.master(i)).val
        - (-coeff_pi(lam, mu, i, j) * hier.modular(i + j).val
           + hamiltonian_vf(hier.bivector(j), hier.master_div(i)).val)
        for i in i_range for j in j_range)
    exchange = worst_defect(
        lie_der_bivector(hier.modular(i), hier.bivector(j)).val
        + lie_der_bivector(hier.modular(j), hier.bivector(i)).val
        for i in i_range for j in j_range)
    return {"bracket": bracket, "exchange": exchange}


def deformation_defect(P0, P1, Z, logg=None):
    """Per-sample defect of X^1 = [Z, X^0] + X^0_{div Z} for a Z with L_Z pi0 = pi1.

    X^0, X^1 are the modular fields of pi0, pi1 and X^0_f the pi0-hamiltonian
    field of f = div(Z), all taken in the same volume.  X^0 and div Z are
    differentiated; X^1, whose value alone is read, is taken from pi1 cut
    to order 1.
    """
    x0 = koszul_d(P0, logg)
    x1 = koszul_d(jtruncate(P1, 1), logg)
    f = koszul_d(Z, logg)
    rhs = lie_bracket(Z, x0).val + hamiltonian_vf(P0, f).val
    return per_sample(x1.val - rhs)
