"""The one product rule: jets.jcontract keeps the hand-written bits.

jcontract adds every derivative component in the order its terms and
operands are given.  The reference helpers below are hand-written kernels
from before jcontract existed, kept verbatim as the oracle of that
term-order contract: a rewrite that reorders a sum moves the last bits of
the verify reports, and these comparisons catch it byte for byte.

Every two-operand term -- value, gradient, Hessian and cross -- runs as a
batched matmul plan where it fits (jets._matmul_plan), which may reorder
the sum over a contracted index and nothing else: a plan agrees with
c_einsum to a few ulps of the sum of |terms|, and every spec without a
plan keeps c_einsum's bits.
"""

import functools
import inspect
import string

import numpy as np
import pytest

from pnhier import fields, modular
from pnhier.fields import lie_der_bivector, schouten_bb
from pnhier.hierarchy import recursion_operator
from pnhier.jets import (Jet2, _einsum, _matmul_plan, _product_rule,
                         _run_plan, jcontract, jmatmul, jmatvec)
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


def ref_jcontract(spec, *ops):
    """One term's product rule by np.einsum alone, in jcontract's order."""
    ins, _, out = spec.partition("->")
    subs = ins.split(",")
    a, b = [c for c in string.ascii_letters if c not in spec][:2]

    def term(parts, extra):
        lhs = ",".join("..." + s + extra.get(k, "") for k, s in enumerate(subs))
        return np.einsum(lhs + "->..." + out + "".join(extra.values()),
                         *[getattr(J, parts.get(k, "val")) for k, J in enumerate(ops)])

    n = len(ops)
    grads = [term({k: "grad"}, {k: a}) for k in range(n)]
    hesses = [term({k: "hess"}, {k: a + b}) for k in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            cross = term({k: "grad", l: "grad"}, {k: a, l: b})
            hesses += [cross, cross.swapaxes(-1, -2)]
    return Jet2(term({}, {}), functools.reduce(np.add, grads),
                functools.reduce(np.add, hesses), m=ops[0].m)


def random_jet(r, shape, m, batch):
    lead = () if batch is None else (batch,)
    return Jet2(*(r.uniform(-1.0, 1.0, lead + shape + (m,) * d)
                  for d in range(3)), m=m)


# the package's two-operand specs, and spellings with moved axes, a letter
# kept in both operands and the output, and a two-letter contraction
PLANNED = ("ik,kj->ij", "ik,k->i", "ki,kj->ij", "ik,jk->ij", "ij,jk->ik",
           "lk,ijl->ijk", "ijk,ik->ij", "ij,ij->")


def kernels(spec):
    """(kernel, which operands are differentiated) per term of the rule."""
    vkernel, gkernels, hkernels, xkernels = _product_rule(spec, 2)
    return ([(vkernel, {})]
            + [(kern, {k: 1}) for k, kern in enumerate(gkernels)]
            + [(kern, {k: 2}) for k, kern in enumerate(hkernels)]
            + [(kern, {k: 1, l: 1}) for k, l, kern in xkernels])


@pytest.mark.parametrize("m", [2, 6, 8])
@pytest.mark.parametrize("B", [1, 25])
def test_matmul_plans_agree_with_c_einsum_to_a_few_ulps(B, m):
    r = np.random.default_rng(100 * B + m)
    planned = []
    for spec in PLANNED:
        subs = spec.partition("->")[0].split(",")
        for kernel, diff in kernels(spec):
            if kernel.func is not _run_plan:
                continue
            args = [r.uniform(-1.0, 1.0, (B,) + (m,) * (len(s) + diff.get(k, 0)))
                    for k, s in enumerate(subs)]
            kspec = kernel.args[0]
            got, want = kernel(*args), _einsum(kspec, *args)
            assert got.shape == want.shape
            assert got.base is None and got.flags.c_contiguous
            # two orders of one sum of t products: each is within
            # (t - 1) eps / 2 of the exact sum, relative to the sum of |terms|
            ins, _, out = kspec.replace("...", "").partition("->")
            x, y = ins.split(",")
            t = m ** len(set(x) & set(y) - set(out))
            scale = _einsum(kspec, *[np.abs(a) for a in args])
            assert np.all(np.abs(got - want) <= t * np.finfo(float).eps * scale)
            planned.append(kspec)
    # every term of a matrix product runs as a plan: value, gradients,
    # Hessians and the cross term
    assert {"...ik,...kj->...ij", "...ika,...kj->...ija",
            "...ik,...kja->...ija", "...ikab,...kj->...ijab",
            "...ik,...kjab->...ijab", "...ika,...kjb->...ijab"} <= set(planned)


def test_a_planned_product_rule_agrees_with_the_reference_to_a_few_ulps():
    r = np.random.default_rng(7)
    A, B = (random_jet(r, (8, 8), 8, 25) for _ in range(2))
    new, ref = jmatmul(A, B), ref_jcontract("ik,kj->ij", A, B)
    # the product rule taken on |A| and |B| sums |terms| per component
    scale = ref_jcontract("ik,kj->ij", *(Jet2(abs(J.val), abs(J.grad), abs(J.hess))
                                         for J in (A, B)))
    t = 8                                           # the contracted length
    for part in ("val", "grad"):
        got, want = getattr(new, part), getattr(ref, part)
        assert got.shape == want.shape and got.base is None
        assert np.all(np.abs(got - want)
                      <= t * np.finfo(float).eps * getattr(scale, part))
    assert new.hess.base is None
    scale = np.abs(ref.hess).max()
    np.testing.assert_allclose(new.hess, ref.hess, rtol=0, atol=1e-14 * scale)


def test_specs_without_a_plan_stay_on_c_einsum_bit_for_bit():
    r = np.random.default_rng(11)
    A, B, C = (random_jet(r, (6, 6), 6, 25) for _ in range(3))
    v = random_jet(r, (6,), 6, 25)
    const = random_jet(r, (6, 6), 6, None)          # no batch axis
    for spec in ("...ijab,...jj->...iab",           # a repeated letter
                 "...ijab,...jk->...iab",           # k summed in one operand
                 "...ia,...jb->...ijab",            # nothing contracted
                 "...ikab,...k->...iab"):           # a matrix-vector product
        assert _matmul_plan(spec) is None
    for spec, *ops in (("ij,jj->i", A, B), ("ij,jk->i", A, B),
                       ("ik,kj->ij", A, const), ("ik,kj->ij", const, A),
                       ("ik,kl,lj->ij", A, B, C), ("ik,kl,l->i", A, B, v)):
        assert_same_bytes(jcontract((spec, *ops)), ref_jcontract(spec, *ops))
