"""Recursion-operator ladders: traces, defect chains, spectra.

Synthetic operators with known spectra pin the trace conventions exactly;
a real pair then exercises the ladder defect machinery end to end.  Dense
linalg oracles (slogdet, eigvals) cross-check the jet arithmetic.
"""

import numpy as np
import pytest

import ladder_reference as ref
import polyjets as pj
from pnhier.errors import RangeError
from pnhier.fields import per_sample
from pnhier.hierarchy import (Hierarchy, commuting_flows_defect,
                              cotangent_ladder_defect, involution_defect,
                              lenard_defect, n_act, recursion_operator,
                              spectral_pairing, spectrum)
from pnhier import hierarchy, jets
from pnhier.jets import Jet2, jlogabsdet, jmatpow, jtrace
from pnhier.modular import koszul_d
from pnhier.report import verify_report
from pnhier.systems import make_system

rng = np.random.default_rng(20260819)


def tm_workspace(n=2, samples=16, seed=11):
    sys = make_system("toda_moser", n)
    x = sys.sample(samples=samples, seed=seed)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    return x, P0, P1, recursion_operator(P0, P1)


def test_identity_recursion_operator_ladder():
    m, B = 4, 5
    N = Jet2.const(np.eye(m), m, batch=B)
    ladder = Hierarchy(None, N).ladder(depth=3, neg_depth=2)
    for i in range(-2, 4):
        expected = 0.0 if i == 0 else m / (2.0 * i)
        assert np.allclose(ladder[i].val, expected, atol=1e-15)
        assert np.allclose(ladder[i].grad, 0.0, atol=1e-15)
    assert np.max(cotangent_ladder_defect(N, ladder)) == 0.0


def test_diagonal_operator_traces_match_eigenvalues():
    B, m = 6, 4
    lam = rng.uniform(0.5, 2.0, size=(B, m))
    val = np.einsum('bi,ij->bij', lam, np.eye(m))
    N = Jet2(val, np.zeros((B, m, m, m)), np.zeros((B, m, m, m, m)), m=m)
    for i in (-2, -1, 1, 2, 3):
        h = ref.hierarchy_hamiltonian(N, i)
        assert np.allclose(h.val, np.sum(lam ** i, axis=1) / (2 * i), atol=1e-13)
    h0 = ref.hierarchy_hamiltonian(N, 0)
    sign, logdet = np.linalg.slogdet(val)
    assert np.all(sign == 1.0)
    assert np.allclose(h0.val, 0.5 * logdet, atol=1e-13)


def test_probe_ladder_values_of_small_chain():
    sys = make_system("toda_moser", 2)
    x = np.array([[1.0, 2.0, 1.0, 2.0]])
    jets = sys.jets(x)
    N = recursion_operator(sys.pi0(jets), sys.pi1(jets))
    ladder = Hierarchy(None, N).ladder(depth=4, neg_depth=2)
    expected = {-2: -0.625, -1: -1.5, 0: np.log(2.0), 1: 3.0,
                2: 2.5, 3: 3.0, 4: 4.25}
    for i, v in expected.items():
        assert np.allclose(ladder[i].val, v, atol=1e-12), (i, ladder[i].val)


def test_ladder_depth_bounds():
    hier = Hierarchy(None, Jet2.const(np.eye(3), 3, batch=2))
    with pytest.raises(RangeError):
        hier.ladder(depth=13)
    with pytest.raises(RangeError):
        hier.ladder(depth=0)
    with pytest.raises(RangeError):
        hier.ladder(depth=4, neg_depth=13)
    with pytest.raises(RangeError):
        hier.ladder(depth=4, neg_depth=-1)


def test_hierarchy_bivector_matches_two_sided_n_act():
    # n_act is the two-sided action N P N^T, i.e. two ladder steps at once
    # (N P0 = P0 N^T for a compatible pair)
    _, P0, P1, N = tm_workspace(n=3)
    hier = Hierarchy(P0, N)
    assert np.max(np.abs(n_act(N, P0).val
                         - hier.bivector(2).val)) < 1e-12
    assert np.max(np.abs(n_act(N, n_act(N, P0)).val
                         - hier.bivector(4).val)) < 1e-11
    assert np.max(np.abs(hier.bivector(1).val - P1.val)) < 1e-12
    assert np.max(np.abs(hier.bivector(0).val - P0.val)) == 0.0


def test_defect_chain_is_small_on_a_real_pair():
    _, P0, P1, N = tm_workspace(n=3, samples=30)
    ladder = Hierarchy(None, N).ladder(depth=4, neg_depth=1)
    for defect in (cotangent_ladder_defect(N, ladder),
                   lenard_defect(Hierarchy(P0, N), ladder),
                   involution_defect(P0, P1, ladder),
                   commuting_flows_defect(P0, ladder)):
        assert defect.shape == (30,)
        assert np.max(defect) < 1e-7


def test_defect_chain_detects_a_broken_operator():
    x, P0, P1, N = tm_workspace(n=3, samples=30)
    val = N.val.copy()
    grad = N.grad.copy()
    val[:, 0, 0] += 1e-3 * x[:, 0]
    grad[:, 0, 0, 0] += 1e-3
    bad = Jet2(val, grad, N.hess, m=N.m)
    ladder = Hierarchy(None, bad).ladder(depth=3)
    assert np.max(cotangent_ladder_defect(bad, ladder)) > 1e-6


def test_h0_gradient_against_fd_of_slogdet():
    x, P0, P1, N = tm_workspace(n=2, samples=8)
    sys = make_system("toda_moser", 2)

    def h0_np(y):
        jets = sys.jets(y)
        Ny = recursion_operator(sys.pi0(jets), sys.pi1(jets))
        return 0.5 * np.linalg.slogdet(Ny.val)[1]

    h0 = ref.hierarchy_hamiltonian(N, 0)
    assert np.allclose(h0.val, h0_np(x), atol=1e-13)
    assert np.allclose(h0.grad, pj.fd_grad(h0_np, x), atol=1e-7)


@pytest.mark.parametrize("n, samples, seed", [(3, 100, 222), (3, 100, 281),
                                              (6, 50, 0)])
def test_cn_toda_commuting_flows_hold_with_the_lax_h0(n, samples, seed):
    # The oracle of ROADMAP item 1(a).  On cn_toda det N = (det L)^2 and L
    # is linear in x with L(0) = 0, so h_0 = log|det L|, with gradient
    # lax_np(e_a) in each coordinate a and Hessian zero.  cond(L) stays far
    # below cond(N): with this h_0 the row holds at the points where the
    # engine's h_0 Hessian reads 1.2e-7 to 6.0e-7 against tol 1e-7.
    system = make_system("cn_toda", n)
    x = system.sample(samples, seed)
    jets = system.jets(x)
    P0 = system.pi0(jets)
    ladder = Hierarchy(P0, recursion_operator(P0, system.pi1(jets))).ladder(4)
    lax, m = system.extras["lax_np"], system.m
    dL = np.moveaxis(lax(np.eye(m)), 0, -1)              # (2n, 2n, m)
    h0 = jlogabsdet(Jet2(lax(x), np.broadcast_to(dL, (samples,) + dL.shape),
                         np.zeros((samples,) + dL.shape + (m,))))
    for oracle, engine in ((h0.val, ladder[0].val), (h0.grad, ladder[0].grad)):
        assert np.max(np.abs(oracle - engine)) <= 1e-10 * np.max(np.abs(engine))
    assert np.max(commuting_flows_defect(P0, {**ladder, 0: h0})) < 1e-7


def test_spectrum_against_dense_eigvals():
    _, P0, P1, N = tm_workspace(n=3, samples=12)
    ev = spectrum(N)
    oracle = np.sort(np.linalg.eigvals(N.val).real, axis=-1)
    assert np.allclose(ev.real, oracle, atol=1e-12)
    assert np.max(np.abs(ev.imag)) < 1e-10


def test_spectral_pairing_reports_doubling_and_degeneracy():
    _, P0, P1, N = tm_workspace(n=2, samples=10)
    rep = spectral_pairing(N)
    assert rep["eigenvalues"].shape == (10, 4)
    assert bool(np.all(rep["paired"]))
    assert np.all(rep["distinct"] == 2)
    assert bool(np.all(rep["independent"]))

    # an unpaired diagonal operator is reported, not rejected
    val = np.tile(np.diag([1.0, 2.0, 3.0, 4.0]), (3, 1, 1))
    M = Jet2(val, np.zeros((3, 4, 4, 4)), m=4)
    rep = spectral_pairing(M)
    assert not np.any(rep["paired"])
    assert np.all(rep["distinct"] == 4)
    assert bool(np.all(rep["independent"]))


def test_recursion_operator_solves_pi1_factorization():
    _, P0, P1, N = tm_workspace(n=3, samples=12)
    # N pi0 = pi1 by construction; check the matrix identity directly
    assert np.max(np.abs(np.einsum('bij,bjk->bik', N.val, P0.val)
                         - P1.val)) < 1e-12


def same_bits(kept, ref):
    """Every array the hierarchy keeps equals the reference's, bit for bit."""
    assert np.array_equal(kept.val, ref.val)
    if kept.grad is not None:
        assert np.array_equal(kept.grad, ref.grad)
    if kept.hess is not None:
        assert np.array_equal(kept.hess, ref.hess)


def abs_jet(J):
    return Jet2(np.abs(J.val), np.abs(J.grad), np.abs(J.hess), m=J.m)


def same_hamiltonian(kept, N, k):
    """h_k equals the single-shot reference: value and gradient bit for bit,
    the Hessian within the roundoff of two orders of one sum.

    Both Hessians expand into the same products of entries of B = N^(+-1)
    and its derivatives, so the sum of their absolute values is the
    reference formula taken on |B|.  Each side sums at most t = (n + m)
    (m + 4) roundings deep (n steps of an m-term product plus the m^2
    terms of a trace), so each is within t eps of that sum of |terms|.
    """
    want = ref.hierarchy_hamiltonian(N, k)
    assert kept.order == want.order
    if k == 0 or kept.order < 2:
        same_bits(kept, want)
        return
    assert np.array_equal(kept.val, want.val)
    assert np.array_equal(kept.grad, want.grad)
    n, m = abs(k), N.val.shape[-1]
    bound = 2 * (n + m) * (m + 4) * np.finfo(kept.hess.dtype).eps * np.abs(
        jtrace(jmatpow(abs_jet(jmatpow(N, 1 if k > 0 else -1)), n)).hess
        / (2 * n))
    assert np.all(np.abs(kept.hess - want.hess) <= bound)


def test_hierarchy_matches_the_single_shot_references_bit_for_bit():
    sys = make_system("toda_moser", 3)
    jets_ = sys.jets(sys.sample(samples=16, seed=11))
    P0, P1 = sys.pi0(jets_), sys.pi1(jets_)
    N = recursion_operator(P0, P1)
    Z0 = sys.extras["oevel"]["z0"](jets_)
    first = Hierarchy(P0, N, Z0)
    deep = Hierarchy(P0, N, Z0)
    deep.ladder(6, 6)       # the order-1 walk first, as far as it goes
    # out of order on purpose: the walk must not depend on the request order;
    # `first` asks for a master divergence first, so its one walk starts at
    # order 2; `deep` restarts its order-1 walk at order 2 from k = 0
    for k in (3, -6, 0, 6, -1, 1, -3, 2, -2, 5, -5, 4, -4):
        for hier in (first, deep):
            same_bits(hier.master_div(k), koszul_d(ref.master_field(N, Z0, k)))
            same_bits(hier.modular(k), koszul_d(ref.hierarchy_bivector(P0, N, k)))
            same_bits(hier.bivector(k), ref.hierarchy_bivector(P0, N, k))
            same_hamiltonian(hier.hamiltonian(k), N, k)
            same_bits(hier.master(k), ref.master_field(N, Z0, k))
    hier = first
    assert hier.hamiltonian(2).order == 2
    assert hier.bivector(2).order == hier.master(2).order == 1
    assert hier.modular(2).order == hier.master_div(2).order == 1
    # k = 0 forms no product: Pi_0 and Z_0 are the inputs' own arrays
    assert hier.bivector(0).val is P0.val and hier.bivector(0).grad is P0.grad
    assert hier.master(0).val is Z0.val
    assert hier.ladder(6, 6).keys() == ref.hamiltonian_ladder(N, 6, 6).keys()
    # without P0: the ladders of `pnhier hierarchy` (order 2) and of the
    # flow monitors (order 0), on every chart
    for key in ("harmonic", "calogero", "toda_moser", "cn_toda", "an_toda"):
        chart = make_system(key, 3)
        x = chart.sample(samples=16, seed=11)
        neg = int(chart.extras.get("neg_depth", 0))
        for order in (0, 2):
            jets_k = chart.jets(x, order=order)
            M = recursion_operator(chart.pi0(jets_k), chart.pi1(jets_k))
            got = Hierarchy(None, M).ladder(6, neg)
            assert got.keys() == ref.hamiltonian_ladder(M, 6, neg).keys()
            for k in got:
                assert got[k].order == order
                same_hamiltonian(got[k], M, k)


def test_only_modular_fields_and_divergences_multiply_order_2_powers(monkeypatch):
    sys = make_system("toda_moser", 3)
    jets_ = sys.jets(sys.sample(samples=4, seed=11))
    P0 = sys.pi0(jets_)
    N = recursion_operator(P0, sys.pi1(jets_))
    Z0 = sys.extras["oevel"]["z0"](jets_)
    products = []       # the order of every contraction of two or more jets
    real = jets.jcontract

    def spy(*terms):
        out = real(*terms)
        if any(len([J for J in t if isinstance(J, Jet2)]) > 1 for t in terms):
            products.append(out.order)
        return out

    for mod in (jets, hierarchy):
        monkeypatch.setattr(mod, "jcontract", spy, raising=False)
    hier = Hierarchy(P0, N, Z0)
    for k in range(-6, 7):
        assert hier.hamiltonian(k).order == 2
        hier.bivector(k), hier.master(k)
    # N and N^-1 come from jmatpow at order 2; every power past them, and
    # every Pi_k and Z_k, is formed at order 1
    assert products and max(products) == 1
    hier.modular(2)         # restarts the walk at order 2: N Pi0, N N, ...
    assert max(products) == 2


def test_hierarchy_without_z0_refuses_master_fields():
    _, P0, P1, N = tm_workspace(n=2, samples=4)
    hier = Hierarchy(P0, N)
    with pytest.raises(RangeError):
        hier.master(1)
    with pytest.raises(RangeError):
        hier.ladder(13)
    # without P0 the walk holds powers and hamiltonians alone
    bare = Hierarchy(None, N)
    for k in (0, 1, -1):
        with pytest.raises(RangeError, match="without P0"):
            bare.bivector(k)
        with pytest.raises(RangeError, match="without P0"):
            bare.modular(k)
        with pytest.raises(RangeError, match="without Z0"):
            bare.master(k)


def test_hierarchy_indices_are_integers_within_the_ladder_cap():
    sys = make_system("toda_moser", 2)
    jets_ = sys.jets(sys.sample(samples=4, seed=11))
    P0 = sys.pi0(jets_)
    N = recursion_operator(P0, sys.pi1(jets_))
    Z0 = sys.extras["oevel"]["z0"](jets_)
    for name in ("hamiltonian", "bivector", "master"):
        # a fresh Hierarchy each time, before any walk (after one: below)
        for bad in (2.5, True, 13, -13):
            with pytest.raises(RangeError, match="ladder index must be"):
                getattr(Hierarchy(P0, N, Z0), name)(bad)
        hier = Hierarchy(P0, N, Z0)
        got = getattr(hier, name)(np.int64(2))
        assert got is getattr(hier, name)(2)


def test_hierarchy_indices_are_checked_after_a_walk_too():
    sys = make_system("toda_moser", 2)
    jets_ = sys.jets(sys.sample(samples=4, seed=11))
    P0 = sys.pi0(jets_)
    N = recursion_operator(P0, sys.pi1(jets_))
    Z0 = sys.extras["oevel"]["z0"](jets_)
    every = ("hamiltonian", "bivector", "modular", "master", "master_div")
    for hier, names in ((Hierarchy(P0, N, Z0), every),
                        (Hierarchy(None, N), every[:1])):
        for name in names:
            for k in (-1, 0, 1):            # indices 0 and +-1 are reached
                getattr(hier, name)(k)
            for bad in (True, False, 1.0, 0.0, -1.0, 2.5, 13, -13):
                with pytest.raises(RangeError, match="ladder index must be"):
                    getattr(hier, name)(bad)
            assert getattr(hier, name)(np.int64(1)) is getattr(hier, name)(1)
    with pytest.raises(RangeError, match="ladder index must be"):
        Hierarchy(None, N).hamiltonian(0.0)    # h_0 before anything is built


def test_one_verify_report_inverts_n_once(monkeypatch):
    sys = make_system("toda_moser", 3)
    jets_ = sys.jets(sys.sample(samples=20, seed=3))
    N = recursion_operator(sys.pi0(jets_), sys.pi1(jets_))
    seen = []
    real = jets.jinv

    def counting(A, what="matrix"):
        seen.append(A.val.copy())
        return real(A, what)

    for mod in (jets, hierarchy):
        monkeypatch.setattr(mod, "jinv", counting)
    rep = verify_report(sys, samples=20, seed=3)
    assert rep["all_pass"] is True
    assert sum(np.array_equal(v, N.val) for v in seen) == 1


def test_one_verify_report_walks_each_order2_power_once(monkeypatch):
    # the one walk forms each order-2 N^k, Pi_k and Z_k once; a walk that
    # restarted on every order-2 request would multiply them again
    sys = make_system("toda_moser", 3)
    orders = {"jmatmul": [], "jmatvec": []}

    def spy(name):
        real = getattr(hierarchy, name)

        def counting(A, B):
            out = real(A, B)
            orders[name].append(out.order)
            return out
        return counting

    for name in orders:
        monkeypatch.setattr(hierarchy, name, spy(name))
    rep = verify_report(sys, samples=8, seed=3)
    assert rep["all_pass"] is True
    # counting the product N = Pi1 Pi0^-1 of recursion_operator
    assert orders["jmatmul"].count(2) == 15
    assert orders["jmatvec"].count(2) == 8
