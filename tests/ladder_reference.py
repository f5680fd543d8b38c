"""Single-shot ladder formulas: the bit-for-bit reference for ``Hierarchy``.

Each function builds one ladder object (or one ladder) straight from
``jmatpow``, recomputing every power of N anew at the order of N;
``hierarchy_hamiltonian`` is also the jet oracle of the flow right-hand
side.  ``Hierarchy`` walks the powers outward once and multiplies in the
same order, so its bivectors, master fields, modular fields, divergences,
h_0 and h_{+-1} must equal these bit for bit, as must the values and
gradients of every h_k.  For |k| >= 2 it takes the h_k Hessian from
order-1 powers, a different order of the same sums, which
tests/test_hierarchy.py compares against ``hierarchy_hamiltonian`` within a
roundoff bound.  The package itself builds ladders only through
``Hierarchy``.
"""

from pnhier.hierarchy import check_depths
from pnhier.jets import jlogabsdet, jmatmul, jmatpow, jmatvec, jtrace


def hierarchy_bivector(P0, N, i):
    """Pi_i = N^i Pi0 (one factor of N per ladder step; i may be negative)."""
    return jmatmul(jmatpow(N, i), P0)


def hierarchy_hamiltonian(N, i):
    """h_i = tr(N^i)/(2i) for i != 0, h_0 = log|det N|/2."""
    i = int(i)
    if i == 0:
        return jlogabsdet(N, "recursion operator") * 0.5
    return jtrace(jmatpow(N, i)) * (1.0 / (2 * i))


def hamiltonian_ladder(N, depth, neg_depth=0):
    """dict {i: h_i} for i = -neg_depth..depth (0 included); see check_depths."""
    depth, neg_depth = check_depths(depth, neg_depth)
    return {i: hierarchy_hamiltonian(N, i)
            for i in range(-neg_depth, depth + 1)}


def master_field(N, Z0, i):
    """Z_i = N^i Z0 (negative i through the inverse recursion operator)."""
    if i == 0:
        return Z0
    return jmatvec(jmatpow(N, i), Z0)
