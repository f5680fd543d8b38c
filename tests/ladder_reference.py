"""Single-shot ladder formulas: the bit-for-bit reference for ``Hierarchy``.

Each function builds one ladder object (or one ladder) straight from
``jmatpow``, recomputing every power of N anew.  ``Hierarchy`` walks
the powers outward once and multiplies in the same order, so its objects
must equal these bit for bit.  The package itself builds ladders only
through ``Hierarchy``.
"""

from pnhier.hierarchy import check_depths, hierarchy_hamiltonian
from pnhier.jets import jmatmul, jmatpow, jmatvec


def hierarchy_bivector(P0, N, i):
    """Pi_i = N^i Pi0 (one factor of N per ladder step; i may be negative)."""
    return jmatmul(jmatpow(N, i), P0)


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
