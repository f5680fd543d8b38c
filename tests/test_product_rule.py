"""The one product rule: jets.jcontract keeps the hand-written bits.

jcontract adds every derivative component in the order its terms and
operands are given.  The reference helpers below are hand-written kernels
from before jcontract existed, kept verbatim as the oracle of that
term-order contract: a rewrite that reorders a sum moves the last bits of
the verify reports, and these comparisons catch it byte for byte.
"""

import inspect

import numpy as np
import pytest

from pnhier import fields, modular
from pnhier.fields import lie_der_bivector, schouten_bb
from pnhier.hierarchy import recursion_operator
from pnhier.jets import Jet2, jmatmul, jmatvec
from pnhier.modular import koszul_d
from pnhier.systems import make_system


def ref_jmatmul(A, B):
    order = min(A.order, B.order)
    val = np.einsum('...ik,...kj->...ij', A.val, B.val)
    grad = hess = None
    if order >= 1:
        grad = (np.einsum('...ika,...kj->...ija', A.grad, B.val)
                + np.einsum('...ik,...kja->...ija', A.val, B.grad))
        if order >= 2:
            hess = np.einsum('...ikab,...kj->...ijab', A.hess, B.val)
            hess += np.einsum('...ik,...kjab->...ijab', A.val, B.hess)
            cross = np.einsum('...ika,...kjb->...ijab', A.grad, B.grad)
            hess += cross
            hess += cross.swapaxes(-1, -2)
    return Jet2(val, grad, hess, m=A.m)


def ref_lie_der_bivector(X, P):
    order = min(X.order, P.order)
    val = (np.einsum('...l,...ijl->...ij', X.val, P.grad)
           - np.einsum('...lj,...il->...ij', P.val, X.grad)
           - np.einsum('...il,...jl->...ij', P.val, X.grad))
    grad = None
    if order >= 2:
        grad = (np.einsum('...la,...ijl->...ija', X.grad, P.grad)
                + np.einsum('...l,...ijla->...ija', X.val, P.hess)
                - np.einsum('...lja,...il->...ija', P.grad, X.grad)
                - np.einsum('...lj,...ila->...ija', P.val, X.hess)
                - np.einsum('...ila,...jl->...ija', P.grad, X.grad)
                - np.einsum('...il,...jla->...ija', P.val, X.hess))
    return Jet2(val, grad, None, m=X.m)


def ref_koszul_d(A, logg):
    rank = A.val.ndim - 1
    order = min(A.order, logg.order)
    if rank == 1:
        val = np.einsum('...jj->...', A.grad)
        grad = None if order < 2 else np.einsum('...jja->...a', A.hess)
        val = val + np.einsum('...j,...j->...', A.val, logg.grad)
        if grad is not None:
            grad = (grad + np.einsum('...ja,...j->...a', A.grad, logg.grad)
                    + np.einsum('...j,...ja->...a', A.val, logg.hess))
    elif rank == 2:
        val = np.einsum('...ijj->...i', A.grad)
        grad = None if order < 2 else np.einsum('...ijja->...ia', A.hess)
        val = val + np.einsum('...ij,...j->...i', A.val, logg.grad)
        if grad is not None:
            grad = (grad + np.einsum('...ija,...j->...ia', A.grad, logg.grad)
                    + np.einsum('...ij,...ja->...ia', A.val, logg.hess))
    else:
        val = np.einsum('...ijkk->...ij', A.grad)
        grad = None if order < 2 else np.einsum('...ijkka->...ija', A.hess)
        val = val + np.einsum('...ijk,...k->...ij', A.val, logg.grad)
        if grad is not None:
            grad = (grad + np.einsum('...ijka,...k->...ija', A.grad, logg.grad)
                    + np.einsum('...ijk,...ka->...ija', A.val, logg.hess))
    return Jet2(val, grad, None, m=A.m)


def assert_same_bytes(new, ref):
    assert new.order == ref.order
    for a, b in ((new.val, ref.val), (new.grad, ref.grad), (new.hess, ref.hess)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def toda_moser():
    system = make_system("toda_moser", 3)
    jets = system.jets(system.sample(25, 11))
    P0, P1 = system.pi0(jets), system.pi1(jets)
    N = recursion_operator(P0, P1)
    # Z_1 = N Z0 and Pi_2 = N P1 carry full-precision values and non-zero
    # Hessians, where a reordered sum shows in the last bits (the catalog's
    # Z0, P0 and P1 are polynomials of low degree)
    Z1 = jmatvec(N, system.extras["oevel"]["z0"](jets))
    P2 = jmatmul(N, P1)
    logg = jets[0] * jets[-1] * 0.5 + jets[1] * 0.25
    return P0, P1, P2, N, Z1, logg


def test_kernels_match_the_hand_written_product_rule_bit_for_bit(toda_moser):
    P0, P1, P2, N, Z1, logg = toda_moser
    assert min(J.order for J in (P0, P1, P2, N, Z1, logg)) == 2
    assert_same_bytes(jmatmul(N, P0), ref_jmatmul(N, P0))
    assert_same_bytes(jmatmul(N, P2), ref_jmatmul(N, P2))
    assert_same_bytes(lie_der_bivector(Z1, P2), ref_lie_der_bivector(Z1, P2))
    T = schouten_bb(P1, P2)
    for A in (Z1, P2, T):
        assert_same_bytes(koszul_d(A, logg), ref_koszul_d(A, logg))


def test_fields_and_modular_leave_the_product_rule_to_jets():
    for module in (fields, modular):
        assert "einsum" not in inspect.getsource(module)
