"""Integrators, flow assembly, monitors, and the symmetric eigensolver.

Closed-form flows (rigid rotation, exponential growth) pin the integrators;
the eigensolver is checked against dense LAPACK on random symmetric
matrices and real Lax matrices.
"""

import numpy as np
import pytest

from pnhier.dynamics import (MAX_STEPS, Trajectory, _ql_implicit,
                             conservation_report, hamiltonian_flow_rhs,
                             hierarchy_monitors, integrate, lax_eigenvalues,
                             lax_monitors, rk4, rkf45)
from pnhier.errors import (ConvergenceError, DimensionError, DomainError,
                           ExclusionBreach, RangeError, StepUnderflow)
from pnhier.fields import hamiltonian_vf
from pnhier.hierarchy import hierarchy_hamiltonian, recursion_operator
from pnhier.jets import Jet2
from pnhier.systems import make_system

rng = np.random.default_rng(20260821)


def rotation(t, x):
    return np.array([x[1], -x[0]])


def growth(t, x):
    return x.copy()


def test_rk4_tracks_a_rigid_rotation():
    traj = integrate(rotation, [1.0, 0.0], t_end=1.0, method="rk4", dt=1e-3)
    want = np.array([np.cos(1.0), -np.sin(1.0)])
    assert np.max(np.abs(traj.states[-1] - want)) < 1e-12
    assert traj.truncated is None
    assert np.isclose(traj.times[-1], 1.0)


def test_rkf45_tracks_exponential_growth():
    traj = integrate(growth, [1.0, 2.0], t_end=1.0, method="rkf45",
                     atol=1e-12, rtol=1e-12)
    want = np.array([np.e, 2.0 * np.e])
    assert np.max(np.abs(traj.states[-1] - want)) < 1e-9
    assert len(traj) == traj.states.shape[0] == traj.times.size


def test_rk4_is_fourth_order():
    errs = []
    for dt in (0.2, 0.1):
        traj = rk4(rotation, np.array([1.0, 0.0]), t_end=2.0, dt=dt)
        want = np.array([np.cos(2.0), -np.sin(2.0)])
        errs.append(np.max(np.abs(traj.states[-1] - want)))
    assert errs[0] / errs[1] > 10.0  # ~16 for a clean 4th-order scheme


def test_parameter_validation():
    x0 = [1.0, 0.0]
    with pytest.raises(RangeError):
        integrate(rotation, x0, t_end=0.0)
    with pytest.raises(RangeError):
        integrate(rotation, x0, t_end=-1.0, method="rkf45")
    with pytest.raises(RangeError):
        rk4(rotation, x0, t_end=1.0, dt=0.0)
    with pytest.raises(RangeError):
        rkf45(rotation, x0, t_end=1.0, atol=0.0)
    with pytest.raises(RangeError):
        rkf45(rotation, x0, t_end=1.0, rtol=0.5)  # above the 1e-2 cap
    with pytest.raises(RangeError):
        rkf45(rotation, x0, t_end=1.0, dt_init=-0.1)
    with pytest.raises(RangeError):
        integrate(rotation, x0, t_end=1.0, method="euler")


def never(t, x):
    raise AssertionError("an integration started on a non-finite time setting")


@pytest.mark.parametrize("t_end", [np.inf, np.nan, -np.inf])
def test_non_finite_t_end_is_refused_before_any_step(t_end):
    x0 = [1.0, 0.0]
    for method in ("rk4", "rkf45"):
        with pytest.raises(RangeError, match="t_end must be finite"):
            integrate(never, x0, t_end=t_end, method=method)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_non_finite_step_is_refused_before_any_step(dt):
    x0 = [1.0, 0.0]
    with pytest.raises(RangeError, match="dt must be finite"):
        rk4(never, x0, t_end=1.0, dt=dt)
    with pytest.raises(RangeError, match="dt_init must be finite"):
        rkf45(never, x0, t_end=1.0, dt_init=dt)


@pytest.mark.parametrize("t_end, dt", [
    (1.0, 5e-324),            # t_end / dt overflows to inf
    (1.0, 1e-300),            # a finite ratio of 1e300 steps
    (1e300, 1e-3),            # the same from a huge t_end
    (1.0, 1.0 / (MAX_STEPS * 1.5)),
])
def test_rk4_refuses_more_steps_than_the_cap_before_any_step(t_end, dt):
    with pytest.raises(RangeError, match="exceeds the cap"):
        rk4(never, [1.0, 0.0], t_end=t_end, dt=dt)
    with pytest.raises(RangeError, match="exceeds the cap"):
        integrate(never, [1.0, 0.0], t_end=t_end, method="rk4", dt=dt)


def test_rk4_runs_a_step_count_at_the_cap():
    # t_end / dt == MAX_STEPS exactly is allowed; the guard stops the run
    # after its first step, so the cap itself is never iterated through
    calls = []

    def count(t, x):
        calls.append(t)
        return np.ones_like(x)

    traj = rk4(count, [0.0], t_end=1.0, dt=1.0 / MAX_STEPS,
               guard=lambda x: x[:, 0] <= 0.0)
    assert traj.truncated is not None
    assert len(calls) == 4 and len(traj) == 1


def test_guard_truncates_and_rejects_bad_start():
    guard = lambda x: x[:, 0] < 2.0
    traj = rk4(growth, np.array([1.0, 1.0]), t_end=2.0, dt=1e-2, guard=guard)
    assert traj.truncated is not None
    assert "domain" in traj.truncated
    assert traj.times[-1] < 2.0
    assert np.all(traj.states[:, 0] < 2.0)
    with pytest.raises(ExclusionBreach):
        rk4(growth, np.array([3.0, 0.0]), t_end=1.0, dt=1e-2, guard=guard)
    # rkf45 honors the same guard
    traj = rkf45(growth, np.array([1.0, 1.0]), t_end=2.0, guard=guard)
    assert traj.truncated is not None


def test_non_finite_rhs_underflows_the_step():
    def bad(t, x):
        return np.full_like(x, np.nan)

    with pytest.raises(StepUnderflow):
        rkf45(bad, np.array([1.0]), t_end=1.0)


def test_record_every_and_zero_field():
    traj = rk4(lambda t, x: np.zeros_like(x), np.array([1.0, -1.0]),
               t_end=1.0, dt=1e-2, record_every=10)
    assert len(traj) == 11  # initial + every 10th of 100 steps
    assert np.all(traj.states == traj.states[0])
    assert repr(traj).startswith("Trajectory(11 records")


def test_flow_rhs_from_index_and_closed_form_agree():
    sys = make_system("toda_moser", 2)
    x = sys.sample(samples=1, seed=17)[0]
    by_index = hamiltonian_flow_rhs(sys, index=1)
    by_closed = hamiltonian_flow_rhs(sys, h=sys.extras["h_closed"][1])
    assert np.allclose(by_index(0.0, x), by_closed(0.0, x), atol=1e-12)
    with pytest.raises(RangeError):
        hamiltonian_flow_rhs(sys)
    with pytest.raises(RangeError):
        hamiltonian_flow_rhs(sys, index=1, h=sys.extras["h_closed"][1])
    with pytest.raises(RangeError):
        hamiltonian_flow_rhs(sys, index=1, bivector="pi7")
    with pytest.raises(DimensionError):
        by_index(0.0, x[:3])


@pytest.mark.parametrize("leg", ("pi0", "pi1"))
def test_index_flow_evaluates_each_bivector_once_per_stage(leg):
    sys = make_system("an_toda", 3)
    calls = {"pi0": 0, "pi1": 0}
    for name in calls:
        def counted(jets, _fn=getattr(sys, name), _name=name):
            calls[_name] += 1
            return _fn(jets)
        setattr(sys, name, counted)
    x = sys.sample(samples=1, seed=19)[0]
    rhs = hamiltonian_flow_rhs(sys, index=2, bivector=leg)
    got = rhs(0.0, x)
    assert calls == {"pi0": 1, "pi1": 1}
    # the shared bivectors give the same bits as evaluating them apart
    jets = Jet2.coords(x[None, :], order=1)
    N = recursion_operator(sys.pi0(jets), sys.pi1(jets))
    P = getattr(sys, leg)(jets)
    want = hamiltonian_vf(P, hierarchy_hamiltonian(N, 2)).val[0]
    assert got.tobytes() == want.tobytes()


def test_spectral_chain_flow_is_exponential_in_r():
    sys = make_system("toda_moser", 2)
    rhs = hamiltonian_flow_rhs(sys, index=1)
    x0 = np.array([1.0, 2.0, 1.0, 2.0])
    traj = integrate(rhs, x0, t_end=1.0, method="rk4", dt=1e-3,
                     guard=sys.domain_ok)
    lam0, r0 = x0[:2], x0[2:]
    assert np.max(np.abs(traj.states[-1][:2] - lam0)) < 1e-12
    assert np.max(np.abs(traj.states[-1][2:] - r0 * np.e)) < 1e-10


def test_ladder_flows_commute():
    sys = make_system("toda_moser", 2)
    r1 = hamiltonian_flow_rhs(sys, index=1)
    r2 = hamiltonian_flow_rhs(sys, index=2)
    x0 = np.array([1.0, 2.0, 1.0, 2.0])

    def run(rhs, x, t):
        return rkf45(rhs, x, t_end=t, atol=1e-12, rtol=1e-12,
                     guard=sys.domain_ok).states[-1]

    ab = run(r2, run(r1, x0, 0.1), 0.1)
    ba = run(r1, run(r2, x0, 0.1), 0.1)
    assert np.max(np.abs(ab - ba)) < 1e-6


def test_monitors_and_conservation_report():
    sys = make_system("an_toda", 2)
    rhs = hamiltonian_flow_rhs(sys, index=2)
    x0 = np.array([1.0, 2.0, 1.0, 2.0])
    traj = integrate(rhs, x0, t_end=2.0, method="rk4", dt=1e-3,
                     guard=sys.domain_ok, record_every=50)
    mon = hierarchy_monitors(sys, traj.states, depth=3)
    assert sorted(mon) == ["h_0", "h_1", "h_2", "h_3"]
    rep = conservation_report(traj, mon)
    for name in ("h_1", "h_2", "h_3"):
        assert rep[name] < 1e-10, (name, rep[name])
    lx = lax_monitors(sys, traj.states)
    assert sorted(lx) == ["lambda_1", "lambda_2"]
    rep = conservation_report(traj, lx)
    assert max(rep.values()) < 1e-10
    # callable quantities work too
    rep = conservation_report(traj, {"x0": lambda s: s[:, 0]})
    assert rep["x0"] > 0.0
    # no Lax map on the spectral chain: empty dict, never an error
    assert lax_monitors(make_system("toda_moser", 2), traj.states) == {}


def test_eigensolver_matches_lapack():
    for k in (1, 2, 3, 5, 9, 16):
        A = rng.normal(size=(k, k))
        A = 0.5 * (A + A.T)
        ev = lax_eigenvalues(A)
        assert np.allclose(ev, np.linalg.eigvalsh(A), atol=1e-11)
        assert np.all(np.diff(ev) >= 0.0)
    batch = rng.normal(size=(4, 6, 6))
    batch = 0.5 * (batch + batch.swapaxes(-1, -2))
    ev = lax_eigenvalues(batch)
    assert ev.shape == (4, 6)
    assert np.allclose(ev, np.linalg.eigvalsh(batch), atol=1e-11)


def test_eigensolver_on_a_real_lax_matrix():
    sys = make_system("an_toda", 3)
    x = sys.sample(samples=5, seed=19)
    L = sys.extras["lax_np"](x)
    assert np.allclose(lax_eigenvalues(L), np.linalg.eigvalsh(L), atol=1e-12)


def test_eigensolver_guards():
    with pytest.raises(DimensionError):
        lax_eigenvalues(np.ones((2, 3)))
    with pytest.raises(DomainError):
        lax_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConvergenceError):
        A = rng.normal(size=(6, 6))
        A = 0.5 * (A + A.T)
        from pnhier.dynamics import _tridiagonalize
        d, e = _tridiagonalize(A)
        _ql_implicit(d, e, budget=0, tag="test")
