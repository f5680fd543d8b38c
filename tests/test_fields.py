"""Tensor-field calculus against finite-difference oracles.

Each operation is rebuilt here from the *values* of random polynomial fields
and central differences, so nothing in this file trusts the jet arithmetic
it is testing.  Graded properties (antisymmetry, Leibniz rules) run on fresh
random fields per case.
"""

import numpy as np
import pytest

import polyjets as pj
from pnhier.errors import DimensionError
from pnhier import fields
from pnhier.fields import (SCHOUTEN_BB_SIGN, antisymmetry_defect,
                           cotangent_apply, differential, evaluate,
                           hamiltonian_vf, jacobi_defect, jacobi_trivector,
                           lie_bracket, lie_der_bivector, nijenhuis_torsion,
                           per_sample, pn_compat_defect, poisson_bracket,
                           scalar_mul, schouten_bb, sharp, torsion_defect,
                           wedge_vb, wedge_vv, worst_defect)
from pnhier.jets import Jet2
from pnhier.modular import koszul_d

rng = np.random.default_rng(20260817)


def points(B=9, m=4):
    return rng.uniform(-0.8, 0.8, size=(B, m))


def test_differential_is_the_gradient():
    x = points()
    f = pj.random_scalar(rng, 4)
    alpha = differential(f.jet(x))
    assert np.allclose(alpha.val, pj.fd_grad(f.value, x), atol=1e-9)
    assert np.allclose(alpha.grad, f.hess(x), atol=1e-12)


def test_sharp_contraction_and_derivative():
    x = points()
    P = pj.random_bivector(rng, 4)
    f = pj.random_scalar(rng, 4)
    out = sharp(P.jet(x), differential(f.jet(x)))

    def val_np(y):
        return np.einsum('bji,bj->bi', P.value(y), f.grad(y))

    assert np.allclose(out.val, val_np(x), atol=1e-8)
    assert np.allclose(out.grad, pj.fd_grad(val_np, x), atol=1e-6)


def test_hamiltonian_vf_is_sharp_of_differential():
    x = points()
    P = pj.random_bivector(rng, 4)
    f = pj.random_scalar(rng, 4)
    a = hamiltonian_vf(P.jet(x), f.jet(x))
    b = sharp(P.jet(x), differential(f.jet(x)))
    assert np.allclose(a.val, b.val, atol=1e-14)
    assert np.allclose(a.grad, b.grad, atol=1e-14)


def test_cotangent_apply_against_fd():
    x = points()
    A = pj.PolyField(4, (4, 4), *pj._coeffs(rng, 4, (4, 4)))
    f = pj.random_scalar(rng, 4)

    def val_np(y):
        return np.einsum('bj,bji->bi', pj.fd_grad(f.value, y), A.value(y))

    out = cotangent_apply(A.jet(x), differential(f.jet(x)))
    assert np.allclose(out.val, val_np(x), atol=1e-8)
    assert np.allclose(out.grad, pj.fd_grad(val_np, x), atol=1e-6)


def test_evaluate_and_divergence_against_fd():
    x = points()
    X = pj.random_vector(rng, 4)
    f = pj.random_scalar(rng, 4)
    Xf = evaluate(X.jet(x), f.jet(x))
    assert np.allclose(Xf.val,
                       np.einsum('bi,bi->b', X.value(x), pj.fd_grad(f.value, x)),
                       atol=1e-8)
    div = koszul_d(X.jet(x))
    assert np.allclose(div.val,
                       np.einsum('bii->b', pj.fd_grad(X.value, x)), atol=1e-8)
    assert np.allclose(div.grad, pj.fd_grad(
        lambda y: np.einsum('bii->b', X.grad(y)), x), atol=1e-6)


def test_poisson_bracket_value_and_antisymmetry():
    x = points()
    P = pj.random_bivector(rng, 4)
    f = pj.random_scalar(rng, 4)
    g = pj.random_scalar(rng, 4)
    fg = poisson_bracket(P.jet(x), f.jet(x), g.jet(x))
    oracle = np.einsum('bij,bi,bj->b', P.value(x),
                       pj.fd_grad(f.value, x), pj.fd_grad(g.value, x))
    assert np.allclose(fg.val, oracle, atol=1e-7)
    gf = poisson_bracket(P.jet(x), g.jet(x), f.jet(x))
    assert np.allclose(fg.val, -gf.val, atol=1e-13)


def test_lie_bracket_against_fd():
    x = points()
    X = pj.random_vector(rng, 4)
    Y = pj.random_vector(rng, 4)

    def val_np(y):
        return (np.einsum('bl,bil->bi', X.value(y), Y.grad(y))
                - np.einsum('bl,bil->bi', Y.value(y), X.grad(y)))

    out = lie_bracket(X.jet(x), Y.jet(x))
    assert np.allclose(out.val, val_np(x), atol=1e-8)
    assert np.allclose(out.grad, pj.fd_grad(val_np, x), atol=1e-5)


def test_lie_der_bivector_against_fd():
    x = points()
    X = pj.random_vector(rng, 4)
    P = pj.random_bivector(rng, 4)

    def val_np(y):
        return (np.einsum('bl,bijl->bij', X.value(y), P.grad(y))
                - np.einsum('blj,bil->bij', P.value(y), X.grad(y))
                - np.einsum('bil,bjl->bij', P.value(y), X.grad(y)))

    out = lie_der_bivector(X.jet(x), P.jet(x))
    assert np.allclose(out.val, val_np(x), atol=1e-8)
    assert np.allclose(out.grad, pj.fd_grad(val_np, x), atol=1e-5)


def test_wedges_and_scalar_mul_against_fd():
    x = points()
    X = pj.random_vector(rng, 4)
    Y = pj.random_vector(rng, 4)
    P = pj.random_bivector(rng, 4)
    f = pj.random_scalar(rng, 4)

    vv = wedge_vv(X.jet(x), Y.jet(x))
    vv_np = lambda y: (np.einsum('bi,bj->bij', X.value(y), Y.value(y))
                       - np.einsum('bj,bi->bij', X.value(y), Y.value(y)))
    assert np.allclose(vv.val, vv_np(x), atol=1e-12)
    assert np.allclose(vv.grad, pj.fd_grad(vv_np, x), atol=1e-6)
    assert np.allclose(vv.val, -vv.val.swapaxes(-1, -2), atol=1e-13)

    vb = wedge_vb(X.jet(x), P.jet(x))
    vb_np = lambda y: (np.einsum('bi,bjk->bijk', X.value(y), P.value(y))
                       + np.einsum('bj,bki->bijk', X.value(y), P.value(y))
                       + np.einsum('bk,bij->bijk', X.value(y), P.value(y)))
    assert np.allclose(vb.val, vb_np(x), atol=1e-12)
    assert np.allclose(vb.grad, pj.fd_grad(vb_np, x), atol=1e-6)
    assert np.allclose(vb.val, -vb.val.swapaxes(-2, -3), atol=1e-12)

    fP = scalar_mul(f.jet(x), P.jet(x))
    fP_np = lambda y: f.value(y)[:, None, None] * P.value(y)
    assert np.allclose(fP.val, fP_np(x), atol=1e-13)
    assert np.allclose(fP.grad, pj.fd_grad(fP_np, x), atol=1e-6)
    assert np.allclose(fP.hess, pj.fd_grad(lambda y: pj.fd_grad(fP_np, y), x, h=1e-4),
                       atol=1e-4)


def test_wedge_vb_keeps_the_hessian():
    # an algebraic operation preserves the jet order, second derivatives too
    x = points()
    X = pj.random_vector(rng, 4)
    P = pj.random_bivector(rng, 4)
    vb = wedge_vb(X.jet(x), P.jet(x))
    vb_np = lambda y: (np.einsum('bi,bjk->bijk', X.value(y), P.value(y))
                       + np.einsum('bj,bki->bijk', X.value(y), P.value(y))
                       + np.einsum('bk,bij->bijk', X.value(y), P.value(y)))
    assert vb.order == 2
    assert np.allclose(vb.hess, pj.fd_grad(lambda y: pj.fd_grad(vb_np, y), x, h=1e-4),
                       atol=1e-4)
    assert wedge_vb(X.jet(x, order=1), P.jet(x)).order == 1


def test_leibniz_rules():
    x = points()
    f = pj.random_scalar(rng, 4).jet(x)
    X = pj.random_vector(rng, 4).jet(x)
    Y = pj.random_vector(rng, 4).jet(x)
    P = pj.random_bivector(rng, 4).jet(x)

    lhs = lie_bracket(X, scalar_mul(f, Y))
    rhs = scalar_mul(f, lie_bracket(X, Y)) + scalar_mul(evaluate(X, f), Y)
    assert np.allclose(lhs.val, rhs.val, atol=1e-12)

    lhs = lie_der_bivector(X, scalar_mul(f, P))
    rhs = (scalar_mul(f, lie_der_bivector(X, P))
           + scalar_mul(evaluate(X, f), P))
    assert np.allclose(lhs.val, rhs.val, atol=1e-12)

    g = pj.random_scalar(rng, 4).jet(x)
    h = pj.random_scalar(rng, 4).jet(x)
    lhs = poisson_bracket(P, f, g * h)
    rhs = poisson_bracket(P, f, g) * h + g * poisson_bracket(P, f, h)
    assert np.allclose(lhs.val, rhs.val, atol=1e-12)


def test_schouten_bb_symmetry_and_jacobi_equivalence():
    x = points()
    P = pj.random_bivector(rng, 4).jet(x)
    Q = pj.random_bivector(rng, 4).jet(x)
    PQ = schouten_bb(P, Q)
    QP = schouten_bb(Q, P)
    assert np.allclose(PQ.val, QP.val, atol=1e-12)
    # trivector output is totally antisymmetric
    assert np.allclose(PQ.val, -PQ.val.swapaxes(-1, -2), atol=1e-12)
    assert np.allclose(PQ.val, -PQ.val.swapaxes(-2, -3), atol=1e-12)
    # [P, P] = 2 * SCHOUTEN_BB_SIGN * J with the convention pinned here
    PP = schouten_bb(P, P)
    J = jacobi_trivector(P)
    assert np.allclose(PP.val, 2.0 * SCHOUTEN_BB_SIGN * J.val, atol=1e-11)


def leibniz_defect(P, X, Y):
    """[P, X^Y] - ([P,X]^Y - X^[P,Y]) with [P, X] = -L_X P, and the scale."""
    lhs = schouten_bb(P, wedge_vv(X, Y)).val
    PX, PY = -lie_der_bivector(X, P), -lie_der_bivector(Y, P)
    rhs = wedge_vb(Y, PX).val - wedge_vb(X, PY).val   # [P,X]^Y = Y^[P,X]
    return np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs))


def test_schouten_bb_sign_obeys_the_graded_leibniz_rule(monkeypatch):
    for _ in range(5):
        x = points()
        P = pj.random_bivector(rng, 4).jet(x)
        X = pj.random_vector(rng, 4).jet(x)
        Y = pj.random_vector(rng, 4).jet(x)
        defect, scale = leibniz_defect(P, X, Y)
        assert defect <= 1e-14 * max(1.0, scale), (defect, scale)
        # the rule pins the sign: the opposite convention misses it
        monkeypatch.setattr(fields, "SCHOUTEN_BB_SIGN", -SCHOUTEN_BB_SIGN)
        assert leibniz_defect(P, X, Y)[0] > 0.1 * scale
        monkeypatch.undo()


def test_canonical_bivector_is_poisson_and_constant_n_torsion_free():
    B = 8
    m = 4
    x = rng.uniform(-1.0, 1.0, size=(B, m))
    val = np.zeros((B, m, m))
    val[:, 0, 2] = val[:, 1, 3] = -1.0
    val[:, 2, 0] = val[:, 3, 1] = 1.0
    P = Jet2(val, np.zeros((B, m, m, m)), np.zeros((B, m, m, m, m)), m=m)
    assert np.max(jacobi_defect(P)) == 0.0
    assert np.max(antisymmetry_defect(P)) == 0.0
    Nv = np.tile(np.diag([2.0, 3.0, 2.0, 3.0]), (B, 1, 1))
    N = Jet2(Nv, np.zeros((B, m, m, m)), None, m=m)
    assert np.max(torsion_defect(N)) == 0.0
    assert np.max(pn_compat_defect(P, N)) == 0.0


def test_jacobi_defect_detects_non_poisson():
    x = points()
    P = pj.random_bivector(rng, 4)
    d = jacobi_defect(P.jet(x))
    assert d.shape == (x.shape[0],)
    assert np.max(d) > 1e-2  # a random bivector is nowhere near Poisson


def test_torsion_of_linear_diagonal_recursion_vanishes():
    # N = diag(x1, x1, x2, x2): a function-of-coordinates diagonal operator
    B = 6
    x = rng.uniform(0.5, 1.5, size=(B, 2))
    m = 2
    val = np.zeros((B, m, m))
    grad = np.zeros((B, m, m, m))
    for i in range(m):
        val[:, i, i] = x[:, i]
        grad[:, i, i, i] = 1.0
    N = Jet2(val, grad, np.zeros((B, m, m, m, m)), m=m)
    d = torsion_defect(N)
    assert np.max(d) < 1e-14
    T = nijenhuis_torsion(N)
    assert T.val.shape == (B, m, m, m)


def test_per_sample_and_defect_shapes():
    arr = np.arange(24.0).reshape(2, 3, 4) - 5.0
    d = per_sample(arr)
    assert d.shape == (2,)
    assert d[0] == 6.0 and d[1] == 18.0
    flat = np.array([1.0, -2.0])
    assert np.array_equal(per_sample(flat), np.abs(flat))


def test_worst_defect_folds_per_sample_maxima():
    assert worst_defect([]) == 0.0
    assert worst_defect(iter(())) == 0.0
    tensors = [rng.standard_normal((6, 3, 4)), rng.standard_normal((6, 5)),
               rng.standard_normal(6)]
    assert worst_defect([tensors[0]]).tobytes() == per_sample(tensors[0]).tobytes()
    chain = 0.0
    for t in tensors:
        chain = np.maximum(chain, per_sample(t))
    assert worst_defect(t for t in tensors).tobytes() == chain.tobytes()
    for k, t in enumerate(tensors):
        broken = list(tensors)
        broken[k] = t.copy()
        broken[k][(2,) + (0,) * (t.ndim - 1)] = np.nan
        got = worst_defect(iter(broken))
        assert np.isnan(got[2])
        assert not np.isnan(np.delete(got, 2)).any()


def test_order_requirements_raise():
    x = points()
    f0 = pj.random_scalar(rng, 4).jet(x, order=0)
    with pytest.raises(DimensionError):
        differential(f0)
    with pytest.raises(DimensionError):
        lie_bracket(pj.random_vector(rng, 4).jet(x, order=0),
                    pj.random_vector(rng, 4).jet(x, order=0))
    P0 = pj.random_bivector(rng, 4).jet(x, order=0)
    with pytest.raises(DimensionError):
        jacobi_trivector(P0)
