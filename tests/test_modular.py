"""Koszul operator and modular vector fields.

The degree-lowering operator is pinned on explicit hand-computable examples
first, then its structural laws (D o D = 0, the graded-bracket generator
identities, the density-change rule) are exercised on random polynomial
multivectors for both the Lebesgue density and a weighted one.
"""

import numpy as np
import pytest

import polyjets as pj
from ladder_reference import hierarchy_hamiltonian
from pnhier.errors import DimensionError
from pnhier.fields import (evaluate, hamiltonian_vf, lie_bracket,
                           lie_der_bivector, per_sample, scalar_mul,
                           schouten_bf, wedge_vb, wedge_vv)
from pnhier.hierarchy import recursion_operator
from pnhier.jets import Jet2, jmatvec
from pnhier.modular import (koszul_d, modular_pair_defect_field,
                            pn_modular_field)
from pnhier.systems import make_system

rng = np.random.default_rng(20260818)


def points(B=10, m=4):
    return rng.uniform(-0.8, 0.8, size=(B, m))


def weighted_density(x):
    """A smooth positive density's log, quadratic in the coordinates."""
    lg = pj.PolyField(x.shape[1], (), *pj._coeffs(rng, x.shape[1], ()))
    return lg.jet(x)


def test_koszul_on_vector_is_weighted_divergence():
    x = points()
    X = pj.random_vector(rng, 4)
    lg = pj.random_scalar(rng, 4)
    out = koszul_d(X.jet(x), lg.jet(x))
    oracle = (np.einsum('bjj->b', X.grad(x))
              + np.einsum('bj,bj->b', X.value(x), lg.grad(x)))
    assert np.allclose(out.val, oracle, atol=1e-12)
    assert np.allclose(koszul_d(X.jet(x), lg.jet(x)).val, oracle, atol=1e-12)
    # Lebesgue density: the plain divergence
    assert np.allclose(koszul_d(X.jet(x)).val,
                       np.einsum('bjj->b', X.grad(x)), atol=1e-12)


def test_koszul_on_constant_bivector_with_linear_density():
    # P = constant symplectic block, log g = a . x  =>  (D P)^i = sum_j P^{ij} a_j
    B, m = 7, 4
    x = rng.uniform(-1.0, 1.0, size=(B, m))
    a = np.array([0.3, -1.1, 0.7, 0.2])
    val = np.zeros((B, m, m))
    val[:, 0, 2] = val[:, 1, 3] = -1.0
    val[:, 2, 0] = val[:, 3, 1] = 1.0
    P = Jet2(val, np.zeros((B, m, m, m)), np.zeros((B, m, m, m, m)), m=m)
    lg = Jet2(x @ a, np.tile(a, (B, 1)), np.zeros((B, m, m)), m=m)
    out = koszul_d(P, lg)
    expected = np.einsum('bij,j->bi', val, a)
    assert np.allclose(out.val, expected, atol=1e-14)
    assert out.order == 1  # one derivative consumed


def test_koszul_on_trivector_matches_index_formula():
    x = points()
    T = pj.random_trivector(rng, 4)
    lg = pj.random_scalar(rng, 4)
    out = koszul_d(T.jet(x), lg.jet(x))
    oracle = (np.einsum('bijkk->bij', T.grad(x))
              + np.einsum('bijk,bk->bij', T.value(x), lg.grad(x)))
    assert np.allclose(out.val, oracle, atol=1e-12)


def test_koszul_squares_to_zero():
    x = points()
    lg = weighted_density(x)
    for field in (pj.random_bivector(rng, 4), pj.random_trivector(rng, 4)):
        A = field.jet(x)
        for density in (None, lg):
            dd = koszul_d(koszul_d(A, density), density)
            assert np.max(np.abs(dd.val)) < 1e-12


def test_koszul_generates_the_graded_brackets():
    x = points()
    lg = weighted_density(x)
    X = pj.random_vector(rng, 4).jet(x)
    Y = pj.random_vector(rng, 4).jet(x)
    P = pj.random_bivector(rng, 4).jet(x)
    f = pj.random_scalar(rng, 4).jet(x)
    D = lambda A: koszul_d(A, lg)

    lhs = lie_bracket(X, Y)
    rhs = (-D(wedge_vv(X, Y)) - scalar_mul(D(X), Y) + scalar_mul(D(Y), X))
    assert np.max(np.abs(lhs.val - rhs.val)) < 1e-12

    lhs = lie_der_bivector(X, P)
    rhs = (D(wedge_vb(X, P)) - scalar_mul(D(X), P) - wedge_vv(X, D(P)))
    assert np.max(np.abs(lhs.val - rhs.val)) < 1e-11

    lhs = schouten_bf(P, f)
    rhs = D(scalar_mul(f, P)) - scalar_mul(f, D(P))
    assert np.max(np.abs(lhs.val - rhs.val)) < 1e-12

    lhs = evaluate(X, f)
    rhs = D(scalar_mul(f, X)) - f * D(X)
    assert np.max(np.abs(lhs.val - rhs.val)) < 1e-12


def test_density_change_law_for_arbitrary_bivector():
    # mu -> exp(lg) mu shifts the modular field by -X_lg, Poisson or not
    x = points()
    P = pj.random_bivector(rng, 4).jet(x)
    lg = weighted_density(x)
    lhs = koszul_d(P, lg)
    rhs = koszul_d(P) - hamiltonian_vf(P, lg)
    assert np.max(np.abs(lhs.val - rhs.val)) < 1e-12


def test_modular_field_of_planar_oscillator():
    sys = make_system("harmonic", 1)
    x = sys.sample(samples=12, seed=3)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    N = recursion_operator(P0, P1)
    Xn = pn_modular_field(P0, N)
    q, p = x[:, 0], x[:, 1]
    assert np.allclose(Xn.val, np.stack([-p, q], axis=1), atol=1e-13)


def test_all_modular_routes_agree_on_a_real_pair():
    sys = make_system("toda_moser", 3)
    x = sys.sample(samples=20, seed=5)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    N = recursion_operator(P0, P1)
    direct = pn_modular_field(P0, N)
    pair = modular_pair_defect_field(P0, P1, N)
    ham0 = hamiltonian_vf(P0, hierarchy_hamiltonian(N, 1) * (-1.0))
    ham1 = hamiltonian_vf(P1, hierarchy_hamiltonian(N, 0) * (-1.0))
    for other in (pair, ham0, ham1):
        assert np.max(np.abs(direct.val - other.val)) < 1e-11
    # and the pair route ignores the density used to compute it
    lg = jets[0] * 0.7 + jets[1] * jets[2] * 0.1
    weighted = modular_pair_defect_field(P0, P1, N, lg)
    assert np.max(np.abs(pair.val - weighted.val)) < 1e-11


def test_koszul_rejects_scalars_and_high_rank():
    x = points()
    f = pj.random_scalar(rng, 4).jet(x)
    with pytest.raises(DimensionError):
        koszul_d(f)
    bad = Jet2(np.zeros((3, 4, 4, 4, 4)), np.zeros((3, 4, 4, 4, 4, 4)), m=4)
    with pytest.raises(DimensionError):
        koszul_d(bad)
