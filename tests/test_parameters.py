"""One rule per parameter kind across the public API.

``errors.check_int`` refuses a float, a bool, a string and None with a
RangeError instead of truncating or leaking a TypeError, and accepts numpy
integers as the ints they are; a jet order is one in 0..2.  The flow index
and ``record_every`` take the same cases in tests/test_dynamics.py.
``errors.check_positive`` refuses zero, negatives, nan, infinities and
non-numbers alike.
"""

import numpy as np
import pytest

from pnhier.dynamics import integrate, rk4, rkf45
from pnhier.errors import RangeError, check_int
from pnhier.hierarchy import Hierarchy
from pnhier.jets import Jet2, jmatpow
from pnhier.report import render_report, verify_report
from pnhier.systems import SYSTEMS, make_system


def _ladder(depth, neg_depth):
    ladder = Hierarchy(None, Jet2.const(np.eye(2), 2, batch=1)).ladder(
        depth, neg_depth)
    return {k: h.val.tolist() for k, h in ladder.items()}


DIAG = Jet2.const(np.diag([2.0, 3.0]), 2, batch=1)


def _chart(key, n):
    system = make_system(key, n)
    return type(system.n), system.n, system.labels


# each entry point takes the value under test and returns something that
# compares equal when two values act the same
ENTRY_POINTS = {
    "sample-samples": lambda v: make_system("harmonic", 1).sample(v, 5).tolist(),
    "sample-seed": lambda v: make_system("harmonic", 1).sample(2, v).tolist(),
    "verify_report-depth": lambda v: render_report(verify_report(
        make_system("harmonic", 1), samples=2, seed=1, depth=v,
        checks="torsion")),
    "ladder-depth": lambda v: _ladder(v, 0),
    "ladder-neg_depth": lambda v: _ladder(1, v),
    "jmatpow-exponent": lambda v: jmatpow(DIAG, v).val.tolist(),
    "Hierarchy.hamiltonian-index": lambda v: Hierarchy(
        None, DIAG).hamiltonian(v).val.tolist(),
    **{f"make_system-{key}": (lambda key: lambda v: _chart(key, v))(key)
       for key in SYSTEMS},
    "Jet2-m": lambda v: repr(Jet2(np.zeros(2), m=v)),
    "Jet2.const-m": lambda v: repr(Jet2.const(1.0, v)),
    "Jet2.const-batch": lambda v: Jet2.const(1.0, 2, batch=v).val.tolist(),
}

# None reads m off the derivatives, and asks const for an unbatched value
NONE_IS_A_DEFAULT = ("Jet2-m", "Jet2.const-batch")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_parameters_refuse_non_integers_and_take_numpy_ints(entry):
    call = ENTRY_POINTS[entry]
    for bad in (2.5, True, "2", None):
        if bad is None and entry in NONE_IS_A_DEFAULT:
            continue
        with pytest.raises(RangeError, match="must be an integer"):
            call(bad)
    assert call(np.int64(3)) == call(3)


JET_ORDERS = {
    "Jet2.coords-order": lambda v: repr(Jet2.coords(np.zeros((1, 2)), order=v)),
    "Jet2.const-order": lambda v: repr(Jet2.const(1.0, 2, order=v)),
    "System.jets-order": lambda v: repr(
        make_system("harmonic", 1).jets([[0.5, 0.5]], order=v)),
}


@pytest.mark.parametrize("entry", JET_ORDERS)
def test_jet_orders_are_integers_in_0_to_2(entry):
    call = JET_ORDERS[entry]
    for bad in (1.5, True, "1", None):
        with pytest.raises(RangeError, match="must be an integer"):
            call(bad)
    for bad in (-1, 3):
        with pytest.raises(RangeError, match=r"order must be in 0\.\.2"):
            call(bad)
    assert [call(np.int64(k)) for k in range(3)] == [call(k) for k in range(3)]


def _never(t, x):
    raise AssertionError("an integration started on a bad parameter")


POSITIVE = {
    "verify_report-tol": lambda v: verify_report(
        make_system("harmonic", 1), samples=2, seed=1, tol=v,
        checks="torsion"),
    "rk4-t_end": lambda v: rk4(_never, [1.0], t_end=v, dt=0.1),
    "rk4-dt": lambda v: rk4(_never, [1.0], t_end=1.0, dt=v),
    "rkf45-dt_init": lambda v: rkf45(_never, [1.0], t_end=1.0, dt_init=v),
    "rkf45-atol": lambda v: rkf45(_never, [1.0], t_end=1.0, atol=v),
    "rkf45-rtol": lambda v: rkf45(_never, [1.0], t_end=1.0, rtol=v),
    "integrate-rkf45-dt": lambda v: integrate(_never, [1.0], t_end=1.0,
                                              method="rkf45", dt=v),
}


@pytest.mark.parametrize("entry", POSITIVE)
def test_positive_parameters_refuse_everything_but_a_finite_positive(entry):
    for bad in (0.0, -1.0, np.nan, np.inf, "1", None):
        if bad is None and entry == "rkf45-dt_init":
            continue        # None asks rkf45 to pick its first step
        with pytest.raises(RangeError, match="must be finite and positive"):
            POSITIVE[entry](bad)


def test_check_int_takes_either_bound_alone():
    assert check_int("x", 3, hi=3) == 3 and check_int("x", -50, hi=3) == -50
    with pytest.raises(RangeError, match="x must be <= 3, got 5"):
        check_int("x", 5, hi=3)
    assert check_int("x", 3, lo=3) == 3
    with pytest.raises(RangeError, match="x must be >= 3, got 2"):
        check_int("x", 2, lo=3)
    with pytest.raises(RangeError, match="x must be in 0..3, got 4"):
        check_int("x", 4, 0, 3)
    assert check_int("x", -(10 ** 30)) == -(10 ** 30)
