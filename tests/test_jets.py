"""Jets vs central finite differences.

Every derivative the engine produces is checked here against a finite
difference oracle on random points, so the rest of the test suite can trust
jet gradients and Hessians blindly.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnhier import jets as jet_module
from pnhier.errors import DimensionError, SingularTensorError
from pnhier.fields import (cotangent_apply, evaluate, hamiltonian_vf,
                           lie_der_bivector, poisson_bracket, schouten_bb,
                           sharp)
from pnhier.hierarchy import Hierarchy, n_act, recursion_operator
from pnhier.jets import (Jet2, check_invertible, differential, jcontract,
                         jinv, jlogabsdet, jmatmul, jmatpow, jmatvec, jstack,
                         jtrace, jtranspose, jtruncate, trace_pair)
from pnhier.modular import koszul_d, pn_modular_field
from pnhier.systems import BivectorTable, make_system

rng = np.random.default_rng(20260816)


def central_grad(f, x, h=1e-5):
    """d f / dx^a by central differences; f maps (B,m) -> (B, *S)."""
    B, m = x.shape
    cols = []
    for a in range(m):
        dx = np.zeros_like(x)
        dx[:, a] = h
        cols.append((f(x + dx) - f(x - dx)) / (2 * h))
    return np.stack(cols, axis=-1)


def central_hess(f, x, h=1e-4):
    """d^2 f / dx^a dx^b by nested central differences."""
    return central_grad(lambda y: central_grad(f, y, h), x, h)


def scalar_expr(jets):
    x0, x1, x2 = jets
    return x0 * x0 * x1 + x0 * x2.exp() - x1.log() / x2 + x1.sqrt() + 2.0 / x0


def scalar_expr_np(x):
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return x0 ** 2 * x1 + x0 * np.exp(x2) - np.log(x1) / x2 + np.sqrt(x1) + 2.0 / x0


def sample_points(B=7, m=3):
    return rng.uniform(0.5, 1.5, size=(B, m))


def test_coordinate_jets_seed():
    x = sample_points()
    jets = Jet2.coords(x)
    for i, j in enumerate(jets):
        assert np.array_equal(j.val, x[:, i])
        assert np.array_equal(j.grad, np.tile(np.eye(3)[i], (x.shape[0], 1)))
        assert not j.hess.any()


def test_scalar_expression_against_fd():
    x = sample_points()
    j = scalar_expr(Jet2.coords(x))
    assert np.allclose(j.val, scalar_expr_np(x), atol=1e-14)
    assert np.allclose(j.grad, central_grad(scalar_expr_np, x), atol=1e-8)
    assert np.allclose(j.hess, central_hess(scalar_expr_np, x), atol=1e-5)


def test_power_and_reciprocal_against_fd():
    x = sample_points()

    def f_np(x):
        return x[:, 0] ** 3 / x[:, 1] ** 2 + x[:, 2] ** -1.5

    x0, x1, x2 = Jet2.coords(x)
    j = x0 ** 3 / x1 ** 2 + x2 ** -1.5
    assert np.allclose(j.val, f_np(x), atol=1e-14)
    assert np.allclose(j.grad, central_grad(f_np, x), atol=1e-7)
    assert np.allclose(j.hess, central_hess(f_np, x), atol=1e-4)


def test_coordinate_gradients_are_rows_of_one_identity_stack():
    for order in (1, 2):
        jets = Jet2.coords(sample_points(B=4, m=5), order=order)
        base = jets[0].grad.base
        assert base is not None and base.shape == (4, 5, 5)
        assert all(j.grad.base is base for j in jets)
        assert np.array_equal(base, np.broadcast_to(np.eye(5), (4, 5, 5)))
    assert all(j.grad is None for j in Jet2.coords(sample_points(), order=0))


@pytest.mark.parametrize("order", (0, 1, 2))
def test_an_entry_of_the_coordinate_jet_is_the_scalar_coordinate_jet(order):
    B, m = 4, 5
    x = sample_points(B=B, m=m)
    X = Jet2.coords(x, order=order)
    assert X.val.shape == (B, m) and X.order == order
    for i in range(m):
        # x^i as scalar coordinate jets were built before X existed
        want = (x[:, i], np.tile(np.eye(m)[i], (B, 1)), np.zeros((B, m, m)))
        got = X[i]
        assert got.m == m and got.order == order
        for k, part in enumerate(("val", "grad", "hess")):
            a = getattr(got, part)
            assert (a is None) == (k > order)
            if a is not None:
                assert a.shape == want[k].shape
                assert a.tobytes() == np.ascontiguousarray(want[k]).tobytes()


def test_slices_of_the_coordinate_jet_are_views():
    X = Jet2.coords(sample_points(B=3, m=5))
    Y = X[1:4]
    assert Y.val.shape == (3, 3) and Y.grad.shape == (3, 3, 5)
    assert Y.hess.shape == (3, 3, 5, 5) and Y.m == 5
    for part in ("val", "grad", "hess"):
        assert np.shares_memory(getattr(Y, part), getattr(X, part))
    assert np.array_equal(Y[1].val, X[2].val)
    assert Jet2.coords(sample_points(B=3, m=5), order=0)[1:].grad is None


def test_the_coordinate_jet_unpacks_and_a_scalar_jet_has_no_entries():
    x = sample_points(B=2, m=3)
    X = Jet2.coords(x)
    with pytest.raises(IndexError):
        X[3]
    x0, x1, x2 = X                      # iteration stops at the IndexError
    assert np.array_equal(x2.val, x[:, 2])
    assert np.array_equal(X[-1].val, x[:, 2])
    with pytest.raises(DimensionError, match="scalar jet"):
        x0[0]


def test_constants_in_a_batch_are_fresh_writable_copies():
    for value in (2.5, np.arange(6.0).reshape(2, 3), -np.eye(3)):
        a = Jet2.const(value, 4, batch=5, order=1)
        b = Jet2.const(value, 4, batch=5, order=1)
        old = np.broadcast_to(np.asarray(value, float),
                              (5,) + np.shape(value)).copy()
        assert a.val.tobytes() == old.tobytes() and a.val.shape == old.shape
        assert a.val.flags.writeable and a.val.flags.c_contiguous
        assert not np.shares_memory(a.val, b.val)
        if isinstance(value, np.ndarray):
            assert not np.shares_memory(a.val, value)
        a.val[...] = 7.0
        assert np.array_equal(b.val, old)


def signed_zero_jet(B=3, m=2):
    """A jet whose value, gradient and Hessian hold +0.0, -0.0 and numbers."""
    pick = np.array([0.0, -0.0, 1.5, -2.0])

    def draw(*shape):
        return pick[rng.integers(0, 4, size=shape)]

    return Jet2(draw(B), draw(B, m), draw(B, m, m))


def test_difference_is_the_sum_with_a_negation_bit_for_bit():
    def const(c):
        return Jet2.const(c, 2, order=2)

    for _ in range(20):
        a, b = signed_zero_jet(), signed_zero_jet()
        for got, want in ((a - b, a + (-b)), (a - 0.0, a + (-const(0.0))),
                          (a - (-0.0), a + (-const(-0.0))),
                          (1.5 - a, (-a) + 1.5), (0.0 - a, (-a) + 0.0),
                          (-0.0 - a, (-a) + (-0.0))):
            for part in ("val", "grad", "hess"):
                assert (getattr(got, part).tobytes()
                        == getattr(want, part).tobytes())
    flat = Jet2(np.ones(3), np.ones((3, 2)))
    assert (signed_zero_jet() - flat).order == 1
    assert (flat - signed_zero_jet()).order == 1


def test_singularity_guard_counts_every_failing_matrix():
    A = np.tile(np.diag([2.0, 3.0, 0.5]), (7, 1, 1))
    A[:, 0, 1] = A[:, 1, 0] = 0.25
    inv = np.linalg.inv(A)
    check_invertible(A, inv, "benign")          # well conditioned: passes
    A[1, 2, 2] = np.nan
    A[3, 0, 0] = np.inf
    A[5, 2] = A[5, 1] + 1e-14 * A[5, 2]         # rank-deficient to roundoff
    inv[5] = np.linalg.inv(A[5])
    with pytest.raises(SingularTensorError, match="at 3 of 7 sample points"):
        check_invertible(A, inv, "mixed")


def test_constant_lifting():
    x = sample_points()
    x0 = Jet2.coords(x)[0]
    j = 3.0 * x0 - 1.0 + (2.0 - x0) / 2.0
    assert np.allclose(j.val, 3.0 * x[:, 0] - 1.0 + (2.0 - x[:, 0]) / 2.0)
    assert np.allclose(j.grad[:, 0], 2.5)
    assert not j.hess.any()


def matrix_field(x):
    """A well-conditioned 3x3 matrix field on points (B,3)."""
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    B = x.shape[0]
    M = np.zeros((B, 3, 3))
    M[:, 0, 0] = 4.0 + x0 * x1
    M[:, 0, 1] = np.exp(x2) * 0.3
    M[:, 0, 2] = x1 ** 2
    M[:, 1, 0] = x2
    M[:, 1, 1] = 4.0 + np.log(x0)
    M[:, 1, 2] = x0 * x2
    M[:, 2, 0] = 0.5 * x1
    M[:, 2, 1] = x0 + x2
    M[:, 2, 2] = 5.0 + x1 * x2
    return M


def matrix_field_jet(x):
    x0, x1, x2 = Jet2.coords(x)
    return jstack([jstack([4.0 + x0 * x1, x2.exp() * 0.3, x1 * x1]),
                   jstack([x2, 4.0 + x0.log(), x0 * x2]),
                   jstack([0.5 * x1, x0 + x2, 5.0 + x1 * x2])])


def test_jstack_matches_direct_field():
    x = sample_points()
    A = matrix_field_jet(x)
    assert A.val.shape == (x.shape[0], 3, 3)
    assert np.allclose(A.val, matrix_field(x), atol=1e-14)
    assert np.allclose(A.grad, central_grad(matrix_field, x), atol=1e-7)
    assert np.allclose(A.hess, central_hess(matrix_field, x), atol=1e-4)


def test_jmatmul_against_fd():
    x = sample_points()
    A = matrix_field_jet(x)
    P = jmatmul(A, jtranspose(A))

    def f_np(x):
        M = matrix_field(x)
        return M @ M.swapaxes(-1, -2)

    assert np.allclose(P.val, f_np(x), atol=1e-12)
    assert np.allclose(P.grad, central_grad(f_np, x), atol=1e-6)
    assert np.allclose(P.hess, central_hess(f_np, x), atol=1e-3)


def test_jmatvec_and_jtrace_against_fd():
    x = sample_points()
    A = matrix_field_jet(x)
    x0, x1, x2 = Jet2.coords(x)
    v = jstack([x0 * x1, x2.exp(), 1.0 + x0])
    w = jmatvec(A, v)

    def f_np(x):
        vv = np.stack([x[:, 0] * x[:, 1], np.exp(x[:, 2]), 1.0 + x[:, 0]], axis=-1)
        return np.einsum('bik,bk->bi', matrix_field(x), vv)

    assert np.allclose(w.val, f_np(x), atol=1e-13)
    assert np.allclose(w.grad, central_grad(f_np, x), atol=1e-7)
    assert np.allclose(w.hess, central_hess(f_np, x), atol=1e-3)

    tr = jtrace(A)
    tr_np = lambda x: np.einsum('bii->b', matrix_field(x))
    assert np.allclose(tr.val, tr_np(x), atol=1e-13)
    assert np.allclose(tr.grad, central_grad(tr_np, x), atol=1e-8)
    assert np.allclose(tr.hess, central_hess(tr_np, x), atol=1e-4)


def test_jinv_against_fd():
    x = sample_points()
    A = matrix_field_jet(x)
    W = jinv(A)
    inv_np = lambda x: np.linalg.inv(matrix_field(x))
    assert np.allclose(W.val, inv_np(x), atol=1e-12)
    assert np.allclose(np.einsum('bik,bkj->bij', W.val, A.val),
                       np.eye(3), atol=1e-12)
    assert np.allclose(W.grad, central_grad(inv_np, x), atol=1e-6)
    assert np.allclose(W.hess, central_hess(inv_np, x), atol=1e-3)


def test_jlogabsdet_against_fd():
    x = sample_points()
    A = matrix_field_jet(x)
    L = jlogabsdet(A)
    f_np = lambda x: np.linalg.slogdet(matrix_field(x))[1]
    assert np.allclose(L.val, f_np(x), atol=1e-12)
    assert np.allclose(L.grad, central_grad(f_np, x), atol=1e-7)
    assert np.allclose(L.hess, central_hess(f_np, x), atol=1e-4)


def test_jmatpow_positive_and_negative():
    x = sample_points()
    A = matrix_field_jet(x)
    A3 = jmatpow(A, 3)
    assert np.allclose(A3.val, A.val @ A.val @ A.val, atol=1e-10)
    Am2 = jmatpow(A, -2)
    W = np.linalg.inv(A.val)
    assert np.allclose(Am2.val, W @ W, atol=1e-12)
    grad_direct = jmatmul(jinv(A), jinv(A)).grad
    assert np.allclose(Am2.grad, grad_direct, atol=1e-10)
    I = jmatpow(A, 0)
    assert np.allclose(I.val, np.eye(3))
    assert not I.grad.any()


# The einsum forms of jinv and jlogabsdet before their Hessians moved to
# batched matmuls, kept verbatim as the reference.

def ref_jinv(A):
    V = np.linalg.inv(A.val)
    grad = hess = None
    if A.grad is not None:
        VA = np.einsum('...ik,...kla->...ila', V, A.grad)
        grad = -np.einsum('...ika,...kj->...ija', VA, V)
        if A.hess is not None:
            t = np.einsum('...ika,...klb,...lj->...ijab', VA, VA, V)
            hess = t + t.swapaxes(-1, -2)
            hess -= np.einsum('...ik,...klab,...lj->...ijab', V, A.hess, V)
    return Jet2(V, grad, hess, m=A.m)


def ref_jlogabsdet(A):
    V = np.linalg.inv(A.val)
    logabs = np.linalg.slogdet(A.val)[1]
    grad = hess = None
    if A.grad is not None:
        grad = np.einsum('...ij,...jia->...a', V, A.grad)
        if A.hess is not None:
            hess = (np.einsum('...ij,...jiab->...ab', V, A.hess)
                    - np.einsum('...ij,...jka,...kl,...lib->...ab',
                                V, A.grad, V, A.grad))
    return Jet2(logabs, grad, hess, m=A.m)


def random_matrix_jet(B, n, m, order=2, seed=0):
    """A well-conditioned n x n matrix jet on a chart of dimension m.

    Its derivative arrays are unrelated random numbers, and the Hessian is
    not symmetric in (a, b): the formulas are algebraic in them, and this
    way a swapped (i, j) or (a, b) axis cannot agree with the reference.
    """
    r = np.random.default_rng(seed)
    val = np.eye(n) * 3.0 + r.uniform(-1.0, 1.0, (B, n, n))
    grad = r.uniform(-1.0, 1.0, (B, n, n, m)) if order >= 1 else None
    hess = r.uniform(-1.0, 1.0, (B, n, n, m, m)) if order >= 2 else None
    return Jet2(val, grad, hess, m=m)


@pytest.mark.parametrize("B, n, m", [(7, 3, 3), (1, 3, 3), (5, 4, 3), (1, 4, 3),
                                     (3, 2, 5), (2, 8, 8)])
def test_inverse_and_logdet_hessians_match_the_einsum_forms(B, n, m):
    A = random_matrix_jet(B, n, m, seed=B * 100 + n * 10 + m)
    for new, ref in ((jinv(A), ref_jinv(A)), (jlogabsdet(A), ref_jlogabsdet(A))):
        assert new.val.tobytes() == ref.val.tobytes()
        assert new.grad.tobytes() == ref.grad.tobytes()
        assert new.hess.shape == ref.hess.shape
        scale = np.abs(ref.hess).max()
        np.testing.assert_allclose(new.hess, ref.hess, rtol=1e-12,
                                   atol=1e-12 * scale)


def test_trace_pair_is_the_trace_of_two_derivative_stacks():
    r = np.random.default_rng(5)
    for lead, n, m in (((4,), 3, 2), ((1,), 6, 6), ((2, 3), 2, 5)):
        X, Y = (r.uniform(-1.0, 1.0, lead + (n, n, m)) for _ in range(2))
        np.testing.assert_allclose(trace_pair(X, Y),
                                   np.einsum('...ika,...kib->...ab', X, Y),
                                   rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("order", [0, 1])
def test_low_order_inverse_and_logdet_are_the_einsum_forms_bit_for_bit(order):
    # the flow right-hand side builds order-1 jets: its bits must not move
    for B, n, m in ((6, 3, 3), (1, 4, 3), (1, 6, 6)):
        A = random_matrix_jet(B, n, m, order=order, seed=B + n + m)
        for new, ref in ((jinv(A), ref_jinv(A)),
                         (jlogabsdet(A), ref_jlogabsdet(A))):
            assert new.order == ref.order == order
            assert new.val.tobytes() == ref.val.tobytes()
            if order:
                assert new.grad.tobytes() == ref.grad.tobytes()


def test_value_only_brackets_read_the_same_bits_from_cut_jets():
    # the value of a contraction does not depend on the jet order, so a row
    # that reads only values may cut its operands: every cut case is order 0
    # and keeps the bytes of the uncut value
    s = make_system("toda_moser", 3)
    jets = s.jets(s.sample(20, 3))
    P0, P1 = s.pi0(jets), s.pi1(jets)
    N = recursion_operator(P0, P1)
    Z = s.extras["oevel"]["z0"](jets)
    hier = Hierarchy(P0, N)
    g, h, lg = hier.hamiltonian(1), hier.hamiltonian(2), jets[0] * jets[-1]

    def one(J):
        return jtruncate(J, 1)

    def zero(J):
        return jtruncate(J, 0)

    # each case: the uncut result's order, the uncut result, the cut result;
    # n_act is algebraic and keeps its operands' order 2, the rest
    # differentiate once
    cases = {
        "schouten_bb": (1, schouten_bb(P0, P1), schouten_bb(one(P0), one(P1))),
        "n_act": (2, n_act(N, P0), n_act(zero(N), zero(P0))),
        "poisson_bracket": (1, poisson_bracket(P1, g, h),
                            poisson_bracket(zero(P1), g, h)),
        "sharp": (1, sharp(P0, differential(h)),
                  sharp(zero(P0), differential(h))),
        "hamiltonian_vf": (1, hamiltonian_vf(P1, h),
                           hamiltonian_vf(one(P1), one(h))),
        "cotangent_apply": (1, cotangent_apply(N, differential(g)),
                            cotangent_apply(zero(N), differential(g))),
        "evaluate": (1, evaluate(Z, h), evaluate(zero(Z), h)),
        "pn_modular_field": (1, pn_modular_field(P0, N),
                             pn_modular_field(one(P0), one(N))),
        "koszul_d": (1, koszul_d(P1, lg), koszul_d(one(P1), lg)),
        "lie_der_bivector": (1, lie_der_bivector(Z, P0),
                             lie_der_bivector(one(Z), one(P0))),
    }
    for name, (want, full, cut) in cases.items():
        assert full.order == want and cut.order == 0, name
        assert cut.val.tobytes() == full.val.tobytes(), name


def test_jtruncate_drops_only_the_higher_derivatives():
    A = random_matrix_jet(2, 3, 3)
    one = jtruncate(A, 1)
    assert one.order == 1 and one.grad is A.grad and one.val is A.val
    assert jtruncate(A, 0).order == 0
    assert jtruncate(one, 2) is one


def vector_field(x):
    return np.stack([x[:, 0] * x[:, 1], np.exp(x[:, 2]), 1.0 + x[:, 0] ** 2],
                    axis=-1)


def vector_field_jet(x):
    x0, x1, x2 = Jet2.coords(x)
    return jstack([x0 * x1, x2.exp(), 1.0 + x0 * x0])


def test_jcontract_three_operand_term_against_fd():
    # every operand pair contributes a cross term to the Hessian
    x = sample_points()
    A, v = matrix_field_jet(x), vector_field_jet(x)
    w = jstack(Jet2.coords(x))
    q = jcontract(("ij,j,i->", A, v, w))

    def f_np(x):
        return np.einsum('bij,bj,bi->b', matrix_field(x), vector_field(x), x)

    assert q.order == 2
    assert np.allclose(q.val, f_np(x), atol=1e-12)
    assert np.allclose(q.grad, central_grad(f_np, x), atol=1e-6)
    assert np.allclose(q.hess, central_hess(f_np, x), atol=1e-3)


def test_jcontract_signed_sum_of_terms_against_fd():
    x = sample_points()
    A, v = matrix_field_jet(x), vector_field_jet(x)
    s = jcontract(("ik,kj->ij", A, A), (-1, "ki,kj->ij", A, A),
                  (2.5, "i,j->ij", v, v))

    def f_np(x):
        M, u = matrix_field(x), vector_field(x)
        return (M @ M - M.swapaxes(-1, -2) @ M
                + 2.5 * u[:, :, None] * u[:, None, :])

    assert np.allclose(s.val, f_np(x), atol=1e-11)
    assert np.allclose(s.grad, central_grad(f_np, x), atol=1e-6)
    assert np.allclose(s.hess, central_hess(f_np, x), atol=1e-2)


def test_jcontract_order_cap():
    x = sample_points()
    A, v = matrix_field_jet(x), vector_field_jet(x)
    full = jcontract(("ik,k->i", A, v))
    # the smallest operand order caps the result: truncating one operand
    # is enough, and the lower orders keep their bits
    one = jcontract(("ik,k->i", A, jtruncate(v, 1)))
    zero = jcontract(("ik,k->i", jtruncate(A, 0), v))
    assert (full.order, one.order, zero.order) == (2, 1, 0)
    assert np.array_equal(one.val, full.val) and np.array_equal(one.grad, full.grad)
    assert np.array_equal(zero.val, full.val)


def test_jcontract_spec_must_match_the_operands():
    x = sample_points()
    A = matrix_field_jet(x)
    with pytest.raises(DimensionError):
        jcontract(("ik,kj->ij", A))
    with pytest.raises(DimensionError):
        jcontract((-1, "ii", A))


def test_jcontract_never_writes_into_an_operand_view():
    # 'ij->ji' is a view of A; the next term must not be added into it
    x = sample_points()
    A, B = matrix_field_jet(x), jmatmul(matrix_field_jet(x), matrix_field_jet(x))
    before = [a.copy() for a in (A.val, A.grad, A.hess)]
    out = jcontract(("ij->ji", A), ("ij,jk->ik", A, A))
    for a, b in zip((A.val, A.grad, A.hess), before):
        assert np.array_equal(a, b)
    T = jtranspose(A)
    assert np.allclose(out.val, T.val + B.val, atol=1e-12)
    assert np.allclose(out.grad, T.grad + B.grad, atol=1e-12)
    assert np.allclose(out.hess, T.hess + B.hess, atol=1e-11)


def test_order_drops_through_missing_derivatives():
    x = sample_points()
    j2 = Jet2.coords(x)[0]
    j1 = Jet2(j2.val, j2.grad, None)
    j0 = Jet2(j2.val, None, None, m=3)
    assert (j2 * j1).order == 1
    assert (j1 + j0).order == 0
    assert (j1.exp()).order == 1


def test_shape_and_dimension_errors():
    with pytest.raises(DimensionError):
        Jet2(np.zeros(3), np.zeros((3, 2, 2)))
    with pytest.raises(DimensionError):
        Jet2.coords(np.zeros((2, 2, 2)))
    x = sample_points()
    a = Jet2.coords(x)[0]
    b = Jet2.coords(x[:, :2])[0]
    with pytest.raises(DimensionError):
        a + b


def test_singular_matrix_raises():
    B = 4
    val = np.tile(np.eye(3), (B, 1, 1))
    val[2, 0, 0] = 0.0
    val[2, 0, 1] = 0.0
    val[2, 0, 2] = 0.0
    A = Jet2(val, np.zeros((B, 3, 3, 3)), np.zeros((B, 3, 3, 3, 3)))
    with pytest.raises(SingularTensorError):
        jinv(A)
    with pytest.raises(SingularTensorError):
        jlogabsdet(A)


def test_near_singular_matrix_raises():
    val = np.tile(np.eye(3), (2, 1, 1))
    val[1, 2, 2] = 1e-14                    # condition number 1e14
    A = Jet2(val, np.zeros((2, 3, 3, 3)))
    with pytest.raises(SingularTensorError, match="1 of 2 sample points"):
        jinv(A)
    val[1, 2, 2] = np.nan
    with pytest.raises(SingularTensorError):
        jlogabsdet(Jet2(val, np.zeros((2, 3, 3, 3))))


def test_small_determinant_alone_is_not_singular():
    # det = 1e-15 but the condition number is only 1e3
    val = np.diag([1.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3])[None]
    A = Jet2(val, np.zeros((1, 6, 6, 6)))
    assert np.allclose(jinv(A).val[0], np.diag([1.0] + [1e3] * 5))
    assert np.isclose(jlogabsdet(A).val[0], 15 * np.log(0.1))


def test_jstack_leaves_no_reference_cycles():
    x = sample_points()
    x0, x1, x2 = Jet2.coords(x)
    gc.collect()
    gc.disable()
    try:
        jstack([jstack([x0 * x1, 1.0]), jstack([x2, 0.5])])
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0))
def test_exp_log_roundtrip(v):
    x = np.full((1, 2), v)
    j = Jet2.coords(x)[0]
    r = j.log().exp()
    assert np.allclose(r.val, j.val, rtol=1e-12)
    assert np.allclose(r.grad, j.grad, atol=1e-12, rtol=1e-10)
    assert np.allclose(r.hess, j.hess, atol=1e-12, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=1, max_value=5))
def test_integer_power_is_repeated_product(v, p):
    x = np.array([[v, 1.0]])
    j = Jet2.coords(x)[0]
    direct = j ** p
    repeated = j
    for _ in range(p - 1):
        repeated = repeated * j
    assert np.allclose(direct.val, repeated.val, atol=1e-12)
    assert np.allclose(direct.grad, repeated.grad, atol=1e-10)
    assert np.allclose(direct.hess, repeated.hess, atol=1e-9)


UNBATCHED = {
    "+": (lambda a, b: a + b, 3.5),
    "-": (lambda a, b: a - b, 0.5),
    "*": (lambda a, b: a * b, 3.0),
    "/": (lambda a, b: a / b, 2.0 / 1.5),
    "neg": (lambda a, b: -a, -2.0),
    "exp": (lambda a, b: a.exp(), np.exp(2.0)),
    "log": (lambda a, b: a.log(), np.log(2.0)),
    "sqrt": (lambda a, b: a.sqrt(), np.sqrt(2.0)),
    "**3": (lambda a, b: a ** 3, 8.0),
    "**0.5": (lambda a, b: a ** 0.5, np.sqrt(2.0)),
    "const+const": (lambda a, b: b + b, 3.0),
}


@pytest.mark.parametrize("op", sorted(UNBATCHED))
def test_arithmetic_on_unbatched_jets_gives_a_0d_array(op):
    # two 0-d operands make numpy return a scalar, which .val must not hold
    a = Jet2(2.0, [1.0, 0.5, 0.0], np.zeros((3, 3)))
    b = Jet2.const(1.5, 3)
    fn, want = UNBATCHED[op]
    r = fn(a, b)
    assert type(r.val) is np.ndarray and r.val.shape == ()
    assert r.val == want
    r.val[...] = 7.0            # a numpy scalar would refuse the write
    assert r.val == 7.0


# ---- constant jets ---------------------------------------------------------

def constant_matrix_jet(B=4, n=3, m=3, seed=1):
    """A well-conditioned batch of n x n matrices as a constant jet."""
    r = np.random.default_rng(seed)
    return Jet2.const(np.eye(n) * 3.0 + r.uniform(-1.0, 1.0, (B, n, n)), m)


def unflagged(J):
    """J's arrays as a jet without the constant flag."""
    return Jet2(J.val, J.grad, J.hess, m=J.m)


def test_the_constant_flag_is_set_by_construction_and_passed_on():
    C, A = constant_matrix_jet(), random_matrix_jet(4, 3, 3)
    X = Jet2.coords(sample_points(B=4, m=4))
    blockless = BivectorTable(4, {(0, 2): -1.0, (1, 3): -1.0})
    with_block = BivectorTable(4, {(0, 2): -1.0}, [[(1, 3)]],
                               lambda X: (X[:1],))
    flagged = {
        "const": Jet2.const(2.5, 3),
        "const order 0": Jet2.const(2.5, 3, order=0),
        "blockless table": blockless(X),
        "order-1 table": blockless(Jet2.coords(X.val, order=1)),
        "entry": C[0], "slice": C[1:], "jtruncate 1": jtruncate(C, 1),
        "jtruncate 0": jtruncate(C, 0), "jtranspose": jtranspose(C),
        "all-constant jcontract": jcontract(("ik,kj->ij", C, C),
                                            (2.0, "ij->ji", C)),
        "jinv": jinv(C), "jinv order 1": jinv(jtruncate(C, 1)),
    }
    plain = {
        "Jet2(...)": unflagged(C), "coords": X, "coordinate": X[0],
        "table with a block": with_block(X),
        "mixed jcontract": jcontract(("ik,kj->ij", A, C)),
        "sum": C + C, "difference": C - C, "negation": -C,
        "sum with a number": C + 1.0, "mixed product": A * C,
        "jinv of a varying jet": jinv(A),
    }
    for name, J in flagged.items():
        assert J.constant is True, name
    for name, J in plain.items():
        assert J.constant is False, name


def test_a_built_constant_owns_fresh_zero_derivatives():
    C = constant_matrix_jet()
    X = Jet2.coords(sample_points(B=4, m=4))
    built = (C, Jet2.const(np.ones(2), 3, batch=5),
             BivectorTable(4, {(0, 2): -1.0})(X), jinv(C),
             jcontract(("ik,kj->ij", C, C)))
    for J in built:
        assert J.constant and J.order == 2
        for k, part in enumerate((J.grad, J.hess), 1):
            assert part.shape == J.val.shape + (J.m,) * k
            assert part.flags.owndata and part.flags.writeable
            assert not part.any() and not np.signbit(part).any()
            assert not any(np.shares_memory(part, other.grad)
                           or np.shares_memory(part, other.hess)
                           for other in built if other is not J)


def test_jcontract_runs_no_derivative_kernel_of_a_constant(monkeypatch):
    calls, rule = [], jet_module._product_rule

    def spy(spec, n):
        value, grads, hessians, crosses = rule(spec, n)

        def tagged(tag, kernel):
            def run(*args):
                calls.append(tag)
                return kernel(*args)
            return run

        return (tagged("val", value),
                tuple(tagged(f"grad{k}", g) for k, g in enumerate(grads)),
                tuple(tagged(f"hess{k}", h) for k, h in enumerate(hessians)),
                tuple((k, l, tagged(f"cross{k}{l}", x))
                      for k, l, x in crosses))

    monkeypatch.setattr(jet_module, "_product_rule", spy)
    A, B = (random_matrix_jet(3, 3, 3, seed=seed) for seed in (1, 2))
    C = constant_matrix_jet(3, 3, 3)
    cases = (
        (("ik,kj->ij", A, B), "val grad0 grad1 hess0 hess1 cross01"),
        (("ik,kj->ij", A, C), "val grad0 hess0"),
        (("ik,kj->ij", C, B), "val grad1 hess1"),
        (("ik,kl,lj->ij", A, C, B), "val grad0 grad2 hess0 hess2 cross02"),
        (("ik,kl,lj->ij", C, A, C), "val grad1 hess1"),
        (("ik,kl,lj->ij", C, C, C), "val"),
        (("ik,kj->ij", jtruncate(A, 1), C), "val grad0"),
    )
    for term, want in cases:
        calls.clear()
        jcontract(term)
        assert calls == want.split(), want


def test_the_inverse_of_a_constant_forms_no_product(monkeypatch):
    calls = []
    for name in ("einsum", "matmul"):
        def spy(*args, real=getattr(np, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    monkeypatch.setattr(jet_module, "_einsum", np.einsum)
    C = constant_matrix_jet()
    assert jinv(C).constant and calls == []
    jinv(unflagged(C))                      # the spy sees the general route
    assert "einsum" in calls and "matmul" in calls


def test_a_product_with_a_constant_equals_its_unflagged_twin():
    # values bit for bit; a skipped term is a product with zeros, so the
    # derivatives agree under == (a zero's sign may differ)
    x = sample_points(B=4)
    x0, x1, _ = Jet2.coords(x)
    A = random_matrix_jet(4, 3, 3, seed=3)
    builds = (
        lambda c: jcontract(("ik,kj->ij", A, c)),
        lambda c: jcontract(("ik,kj->ij", c, A),
                            (-1, "ik,kl,lj->ij", A, c, A)),
        lambda c: jmatmul(A, jinv(c)),
        lambda c: jinv(c),
        lambda c: A * c,
        lambda c: c * A,
        lambda c: x0 * c[0][0],
        lambda c: c[1][2] * (x0 * x1),
        lambda c: jtruncate(x0, 1) * c[0][1],
    )
    C = constant_matrix_jet()
    for build in builds:
        got, want = build(C), build(unflagged(C))
        assert got.order == want.order
        assert got.val.tobytes() == want.val.tobytes()
        assert np.array_equal(got.grad, want.grad)
        assert got.hess is want.hess is None or np.array_equal(got.hess,
                                                               want.hess)
