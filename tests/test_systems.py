"""The example-system catalog: construction, sampling, chart guards.

Every registered builder is exercised for shape and antisymmetry; the
chain systems additionally pin a handful of closed-form quantities their
bivector pairs must reproduce (checked in depth by the report suite).
"""

import numpy as np
import pytest

from ladder_reference import hierarchy_hamiltonian
from table_reference import reference_pair
from pnhier.errors import DimensionError, DomainError, RangeError
from pnhier.fields import antisymmetry_defect
from pnhier.hierarchy import recursion_operator, spectrum
from pnhier.jets import Jet2
from pnhier.report import probe_point
from pnhier.systems import SYSTEMS, BivectorTable, make_system

rng = np.random.default_rng(20260820)

ALL_KEYS = ("harmonic", "calogero", "toda_moser", "cn_toda", "an_toda")


def test_registry_contents():
    assert sorted(SYSTEMS) == sorted(ALL_KEYS)
    with pytest.raises(RangeError):
        make_system("kepler", 2)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_builder_shapes_and_antisymmetry(key):
    sys = make_system(key, 2)
    assert sys.key == key
    assert sys.m == len(sys.labels) == sys.lo.size == sys.hi.size
    x = sys.sample(samples=14, seed=7)
    assert x.shape == (14, sys.m)
    assert np.all(x >= sys.lo) and np.all(x <= sys.hi)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    assert P0.val.shape == P1.val.shape == (14, sys.m, sys.m)
    assert np.max(antisymmetry_defect(P0)) < 1e-14
    assert np.max(antisymmetry_defect(P1)) < 1e-14
    assert len(sys.pair_names) == 2
    assert sys.description


# toda_moser 4 (m = 8) adds coordinate columns with a 64-byte stride, where
# numpy 2.4.6 negates wrongly into a non-contiguous ``out=``
CHARTS = (("harmonic", 2), ("calogero", 2), ("toda_moser", 3),
          ("toda_moser", 4), ("cn_toda", 2), ("cn_toda", 3), ("an_toda", 3))


@pytest.mark.parametrize("batch", (1, 5))
@pytest.mark.parametrize("order", (0, 1, 2))
@pytest.mark.parametrize("key,n", CHARTS)
def test_scatter_assembly_matches_nested_jstack_bit_for_bit(key, n, order,
                                                            batch):
    sys = make_system(key, n)
    X = sys.jets(sys.sample(samples=batch, seed=11), order=order)
    got = (sys.pi0(X), sys.pi1(X))
    for g, w in zip(got, reference_pair(sys, X)):
        assert g.m == w.m == sys.m and g.order == w.order == order
        for k, part in enumerate(("val", "grad", "hess")):
            a, b = getattr(g, part), getattr(w, part)
            assert (a is None) == (b is None) == (k > order)
            if a is not None:
                # bytes, not np.array_equal: signed zeros must match too
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("key", ((1, 1), (2, 1), (-1, 2), (0, 4)))
def test_bivector_table_keys_must_be_strictly_upper(key):
    with pytest.raises(DimensionError, match="strictly upper"):
        BivectorTable(4, {key: 1.0})
    with pytest.raises(DimensionError, match="strictly upper"):
        BivectorTable(4, blocks=[[(0, 3), key]], fill=lambda X: (X[:2],))
    with pytest.raises(DimensionError, match="twice"):
        BivectorTable(4, {(0, 3): 1.0}, [[(0, 3)]], lambda X: (X[:1],))


def test_bivector_table_entries_carry_the_matrix_order():
    X = Jet2.coords(np.ones((2, 4)))
    flat = Jet2.coords(np.ones((2, 4)), order=1)
    with pytest.raises(DimensionError, match="below 2"):
        BivectorTable(4, blocks=[[(0, 3)]], fill=lambda _: (flat[:1],))(X)
    P = BivectorTable(4, blocks=[[(0, 3)]], fill=lambda _: (flat[:1],))(flat)
    assert np.array_equal(P.val[:, 0, 3], -P.val[:, 3, 0])


def test_bivector_table_blocks_have_their_key_count():
    X = Jet2.coords(np.ones((2, 4)))
    table = BivectorTable(4, blocks=[[(0, 3), (1, 2)]], fill=lambda X: (X[:2],))
    for block in (X[:1], X[:3], X[0]):     # a scalar jet is no block either
        with pytest.raises(DimensionError, match=r"lengths \[\(2,\)\]"):
            BivectorTable(4, blocks=[[(0, 3), (1, 2)]],
                          fill=lambda _, b=block: (b,))(X)
    with pytest.raises(DimensionError, match="lengths"):
        BivectorTable(4, blocks=[[(0, 3)]], fill=lambda X: (X[:1], X[:1]))(X)
    P = table(X)
    assert np.array_equal(P.val[:, [0, 1], [3, 2]], -P.val[:, [3, 2], [0, 1]])


def test_bivector_table_constants_are_entries_without_derivatives():
    X = Jet2.coords(np.ones((2, 4)))
    table = BivectorTable(4, {(1, 2): 2.5}, [[(0, 3)]], lambda X: (X[:1],))
    assert not table.constant and BivectorTable(4, {(1, 2): 2.5}).constant
    P = table(X)
    assert np.array_equal(P.val[:, 1, 2], [2.5, 2.5])
    assert np.array_equal(P.val[:, 2, 1], [-2.5, -2.5])
    for part in (P.grad, P.hess):
        # +0.0 in both triangles, as a lifted constant's derivatives are
        assert not np.signbit(part[:, [1, 2], [2, 1]]).any()
        assert not part[:, [1, 2], [2, 1]].any()
        assert np.array_equal(part[:, 3, 0], -part[:, 0, 3])


def scattered(table, entries):
    """Entry derivatives written +entries above and -entries below the
    diagonal into zeros, as (B, m, m, ...) arrays."""
    B, m = entries.shape[0], table.m
    flat = np.zeros((B, m * m) + entries.shape[2:])
    flat[:, table.upper] = entries
    flat[:, table.lower] = -entries
    return flat.reshape((B, m, m) + entries.shape[2:])


@pytest.mark.parametrize("key", ALL_KEYS)
def test_the_sparse_reader_has_the_bytes_of_the_matrix_jet(key):
    sys = make_system(key, 3)
    m = sys.m
    for B in (1, 7):
        x = sys.sample(samples=B, seed=43)
        for order in (1, 2):
            X = Jet2.coords(x, order=order)
            for j, table in enumerate(sys.tables):
                P = table(X)
                val, G = table.sparse(X)
                assert val.shape == P.val.shape
                assert val.tobytes() == P.val.tobytes()
                assert G.shape == (B, table.upper.size, m)
                assert scattered(table, G).tobytes() == P.grad.tobytes()
                # a constant table has no entries: K = 0, zero derivatives
                assert (G.shape[1] == 0) == table.constant
                entries = table.entries(X)
                if table.constant:
                    assert entries == []
                    entries = [None, G, np.zeros((B, 0, m, m))]
                assert entries[1].tobytes() == G.tobytes()
                if order == 2:
                    assert (scattered(table, entries[2]).tobytes()
                            == P.hess.tobytes())
    # the constant tables: the canonical Pi_0 and calogero's pi0
    assert [t.constant for t in sys.tables] == [
        key in ("harmonic", "calogero", "an_toda"), False]


@pytest.mark.parametrize("key", ALL_KEYS)
def test_half_trace_contracts_like_the_dense_trace(key):
    """half_trace(R) @ G is 1/2 tr(R dPi_a), dPi from the matrix jet."""
    sys = make_system(key, 3)
    m = sys.m
    for B in (1, 7):
        X = Jet2.coords(sys.sample(samples=B, seed=47), order=1)
        R = rng.standard_normal((B, m, m))
        for table in sys.tables:
            c = table.half_trace(R)
            assert c.shape == (B, 1, table.upper.size)
            assert (c.shape[2] == 0) == table.constant
            got = np.matmul(c, table.sparse(X)[1])[:, 0]
            want = 0.5 * np.einsum("bij,bjia->ba", R, table(X).grad)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(
                1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("key", ALL_KEYS)
def test_probe_point_is_in_domain(key):
    sys = make_system(key, 2)
    x = probe_point(sys)
    assert x.shape == (sys.m,)
    assert np.all(sys.domain_ok(x[None, :]))
    sys.jets(x[None, :])  # must not raise


def test_sampling_is_deterministic_and_guarded():
    sys = make_system("harmonic", 2)
    a = sys.sample(samples=9, seed=123)
    b = sys.sample(samples=9, seed=123)
    assert np.array_equal(a, b)
    c = sys.sample(samples=9, seed=124)
    assert not np.array_equal(a, c)
    with pytest.raises(RangeError):
        sys.sample(samples=0, seed=1)


def test_builder_n_guards():
    for key, n_bad in (("harmonic", 0), ("calogero", 0), ("toda_moser", 0),
                       ("cn_toda", 1), ("an_toda", 1)):
        with pytest.raises(RangeError):
            make_system(key, n_bad)


def test_jets_order_parameter():
    sys = make_system("toda_moser", 2)
    x = sys.sample(samples=4, seed=2)
    full = sys.jets(x)
    assert all(j.order == 2 for j in full)
    lean = sys.jets(x, order=1)
    assert all(j.order == 1 for j in lean)
    flat = sys.jets(x, order=0)
    assert all(j.order == 0 and j.grad is None for j in flat)
    with pytest.raises(DimensionError):
        sys.jets(x[:, :3])


def test_domain_guards_reject_bad_points():
    tm = make_system("toda_moser", 2)
    bad = np.array([[1.0, 0.0, 1.0, 1.0]])  # a zero coordinate
    assert not np.all(tm.domain_ok(bad))
    with pytest.raises(DomainError):
        tm.jets(bad)
    cn = make_system("cn_toda", 2)
    bad = np.array([[-0.1, 0.5, 0.0, 0.0]])  # negative leading a
    assert not np.all(cn.domain_ok(bad))
    ho = make_system("harmonic", 1)
    # zero action degenerates the recursion operator -> excluded
    assert not np.all(ho.domain_ok(np.array([[0.0, 0.0]])))
    assert np.all(ho.domain_ok(np.array([[0.5, -0.5]])))


def test_closed_form_energies():
    ho = make_system("harmonic", 2)
    x = ho.sample(samples=10, seed=3)
    jets = ho.jets(x)
    h1 = ho.extras["h_closed"][1](jets)
    N = recursion_operator(ho.pi0(jets), ho.pi1(jets))
    assert np.allclose(h1.val, hierarchy_hamiltonian(N, 1).val, atol=1e-12)

    an = make_system("an_toda", 3)
    x = an.sample(samples=10, seed=4)
    jets = an.jets(x)
    N = recursion_operator(an.pi0(jets), an.pi1(jets))
    for i in (1, 2):
        hi = an.extras["h_closed"][i](jets)
        assert np.allclose(hi.val, hierarchy_hamiltonian(N, i).val, atol=1e-11)


def test_cn_lax_matrix_and_doubled_spectrum():
    cn = make_system("cn_toda", 3)
    x = cn.sample(samples=12, seed=9)
    L = cn.extras["lax_np"](x)
    # the Lax matrix doubles the chain: 2n x 2n, symmetric, +/- spectrum
    assert L.shape == (12, 6, 6)
    assert np.allclose(L, L.swapaxes(-1, -2), atol=1e-14)
    lam = np.sort(np.linalg.eigvalsh(L), axis=-1)
    assert np.allclose(lam, -lam[:, ::-1], atol=1e-10)
    jets = cn.jets(x)
    N = recursion_operator(cn.pi0(jets), cn.pi1(jets))
    evN = np.sort(spectrum(N).real, axis=-1)
    assert np.allclose(evN, np.sort(lam ** 2, axis=-1), atol=1e-9)


def test_an_flaschka_map_and_lax():
    an = make_system("an_toda", 3)
    x = an.sample(samples=8, seed=10)
    a, b = an.extras["flaschka_np"](x)
    q, p = x[:, :3], x[:, 3:]
    assert np.allclose(a, 0.5 * np.exp(0.5 * (q[:, :-1] - q[:, 1:])),
                       atol=1e-14)
    assert np.allclose(b, -0.5 * p, atol=1e-14)
    L = an.extras["lax_np"](x)
    assert np.allclose(L, L.swapaxes(-1, -2), atol=1e-14)
    # tridiagonal: diagonal b, off-diagonal a
    assert np.allclose(np.diagonal(L, axis1=-2, axis2=-1), b, atol=1e-14)
    assert np.allclose(np.diagonal(L, offset=1, axis1=-2, axis2=-1), a,
                       atol=1e-14)


def test_titles_and_labels_scale_with_n():
    for key in ALL_KEYS:
        s2 = make_system(key, 2)
        s3 = make_system(key, 3)
        assert s3.m - s2.m in (1, 2)  # one or two coordinates per site
        assert len(set(s2.labels)) == s2.m  # labels are unique
