"""Integrators, flow assembly, monitors, and the Lax spectra.

Closed-form flows (rigid rotation, exponential growth) pin the integrators.
``lax_eigenvalues`` is one LAPACK call; it is cross-checked, within
ULPS units of eps * max(1, |lambda|), against the per-matrix Householder-QL
solver in eigen_reference.py on random symmetric stacks and on Lax stacks
along a flow, and that solver's rare underflow branch is checked against
LAPACK on assembled tridiagonal matrices.
"""

import numpy as np
import pytest

from eigen_reference import reference_eigenvalues, reference_ql
from ladder_reference import hierarchy_hamiltonian
from pnhier import dynamics
from pnhier.dynamics import (MAX_STEPS, Trajectory, hamiltonian_flow_rhs,
                             hierarchy_monitors, integrate, lax_eigenvalues,
                             lax_monitors, rk4, rkf45)
from pnhier.errors import (ConvergenceError, DimensionError, DomainError,
                           RangeError, SingularTensorError, StepUnderflow)
from pnhier.fields import hamiltonian_vf
from pnhier.hierarchy import recursion_operator
from pnhier.jets import Jet2
from pnhier.report import probe_point
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
    traj = rkf45(growth, [1.0, 2.0], t_end=1.0, atol=1e-12, rtol=1e-12)
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


@pytest.mark.parametrize("t_end", [1e-12, 1e-300])
def test_rk4_takes_a_step_when_t_end_is_below_the_rounding_slack(t_end):
    # t_end / dt <= 1e-9 lies within the step count's rounding slack, and
    # the run still takes its one step to t_end
    traj = rk4(rotation, [1.0, 0.0], t_end=t_end, dt=1e-3)
    assert traj.truncated is None
    assert traj.rhs_evals == 4 and traj.accepted == 1
    assert list(traj.times) == [0.0, t_end]


@pytest.mark.parametrize("t_end", [1e-13, 1e-300])
def test_rkf45_reaches_a_t_end_below_the_step_floor(t_end):
    # the step that reaches t_end ends the run: the next step it proposes
    # lies below DT_MIN but is never taken, so it is no underflow
    traj = rkf45(rotation, [1.0, 0.0], t_end=t_end)
    assert traj.truncated is None
    assert traj.rhs_evals == 6 and traj.accepted == 1 and traj.rejected == 0
    assert list(traj.times) == [0.0, t_end]


def test_guard_truncates_and_rejects_bad_start():
    guard = lambda x: x[:, 0] < 2.0
    traj = rk4(growth, np.array([1.0, 1.0]), t_end=2.0, dt=1e-2, guard=guard)
    assert traj.truncated is not None
    assert "domain" in traj.truncated
    assert traj.times[-1] < 2.0
    assert np.all(traj.states[:, 0] < 2.0)
    with pytest.raises(DomainError, match="initial point"):
        rk4(growth, np.array([3.0, 0.0]), t_end=1.0, dt=1e-2, guard=guard)
    # rkf45 honors the same guard
    traj = rkf45(growth, np.array([1.0, 1.0]), t_end=2.0, guard=guard)
    assert traj.truncated is not None


@pytest.mark.parametrize("method, options, stages", [
    ("rk4", {"dt": 0.1}, 4),
    ("rkf45", {"dt_init": 0.5}, 6),       # a first step too large: rejections
])
def test_a_guard_exit_between_records_ends_on_the_last_good_step(
        method, options, stages):
    passed = []

    def guard(x):
        inside = x[:, 0] < np.e
        if inside.all():
            passed.append(x[0].copy())
        return inside

    run = rk4 if method == "rk4" else rkf45
    traj = run(growth, [1.0], t_end=2.0, record_every=3, guard=guard, **options)
    prefix = "left the chart domain at t = "
    assert traj.truncated.startswith(prefix)
    assert traj.times[-1] < float(traj.truncated[len(prefix):]) < 2.0
    # the exit falls between records, and the last good step is recorded
    assert traj.accepted % 3 != 0
    assert len(traj) == 1 + traj.accepted // 3 + 1
    assert np.array_equal(traj.states[-1], passed[-1])
    assert (traj.rejected > 0) == (method == "rkf45")
    # the refused step's stages count, though it is neither accepted nor
    # rejected
    assert traj.rhs_evals == stages * (traj.accepted + traj.rejected + 1)


def singular_beyond(t_stop):
    """A rotation whose right-hand side turns singular at times > t_stop,
    and the list of times it was called at (the raising calls included)."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        if t > t_stop:
            raise SingularTensorError("pi0 is numerically singular at 1 of 1 "
                                      "sample points")
        return rotation(t, x)
    return rhs, calls


def test_a_singular_stage_truncates_an_rk4_run():
    rhs, calls = singular_beyond(0.0425)
    traj = rk4(rhs, [1.0, 0.0], t_end=1.0, dt=1e-2)
    # the step from 0.04 raises at its second stage, t = 0.045
    assert traj.accepted == 4 and len(traj) == 5
    assert traj.times[-1] == pytest.approx(0.04)
    assert traj.rhs_evals == len(calls) == 4 * 4 + 2
    assert traj.truncated == ("singular right-hand side in the step to "
                              "t = 0.05: pi0 is numerically singular at 1 "
                              "of 1 sample points")
    want = integrate(rotation, [1.0, 0.0], t_end=0.04, dt=1e-2)
    assert np.array_equal(traj.states, want.states)
    # recorded every third step, the last good step is still the last record
    rhs, calls = singular_beyond(0.0425)
    assert rk4(rhs, [1.0, 0.0], t_end=1.0, dt=1e-2,
               record_every=3).times[-1] == pytest.approx(0.04)


def test_a_singular_stage_truncates_an_rkf45_run():
    rhs, calls = singular_beyond(0.3)
    traj = rkf45(rhs, [1.0, 0.0], t_end=1.0, dt_init=0.05, record_every=4)
    assert traj.truncated.startswith("singular right-hand side in the step "
                                     "to t = ")
    assert traj.truncated.endswith(": pi0 is numerically singular at 1 of 1 "
                                   "sample points")
    assert traj.rhs_evals == len(calls)
    # the failed step's evaluations count, up to the raising one
    assert 6 * (traj.accepted + traj.rejected) < traj.rhs_evals
    assert traj.times[-1] <= 0.3 and traj.times[-1] == traj.times.max()
    assert np.allclose(traj.states[-1], [np.cos(traj.times[-1]),
                                         -np.sin(traj.times[-1])], atol=1e-8)


@pytest.mark.parametrize("method", ("rk4", "rkf45"))
def test_a_singular_start_point_still_raises(method):
    rhs, calls = singular_beyond(-1.0)
    with pytest.raises(SingularTensorError, match="pi0"):
        integrate(rhs, [1.0, 0.0], t_end=1.0, method=method)
    assert calls == [0.0]


def test_rkf45_rejects_a_step_whose_stage_point_overflows():
    """cn_toda's index-4 flow overflows at the stage points of rkf45's
    first step from the probe point.  The step is rejected before the rhs
    is evaluated at a non-finite point (where a singular-Pi0 guard would
    end the run for a false reason), so the run shrinks its step and goes
    on until it leaves the chart domain."""
    sys = make_system("cn_toda", 2)
    rhs = hamiltonian_flow_rhs(sys, index=4)
    points = []

    def recorded(t, x):
        points.append(x)
        return rhs(t, x)

    with np.errstate(over="ignore", invalid="ignore"):
        traj = rkf45(recorded, probe_point(sys), t_end=0.5,
                     guard=sys.domain_ok)
    assert np.isfinite(points).all()
    assert traj.truncated.startswith("left the chart domain at t = ")
    assert traj.rejected > 0 and traj.accepted > 0


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


@pytest.mark.parametrize("method", ("rk4", "rkf45"))
def test_record_every_must_be_a_positive_integer(method):
    for bad in (0, -3, 2.5, 2.7, 2.0, np.nan, True, "2", None):
        with pytest.raises(RangeError, match="record_every"):
            integrate(rotation, [1.0, 0.0], t_end=0.1, method=method,
                      record_every=bad)
    # numpy integers are integers; the last step is recorded when the
    # stride does not divide the step count
    traj = integrate(rotation, [1.0, 0.0], t_end=0.1, method=method,
                     dt=1e-2, record_every=np.int64(3))
    assert traj.times[-1] == pytest.approx(0.1)
    assert len(traj) == 1 + traj.accepted // 3 + (traj.accepted % 3 != 0)


def counting(fn):
    """fn and the list of times it was called at."""
    calls = []

    def counted(t, x):
        calls.append(t)
        return fn(t, x)
    return counted, calls


def test_trajectories_carry_their_step_statistics():
    rhs, calls = counting(rotation)
    traj = rk4(rhs, [1.0, 0.0], t_end=1.0, dt=0.3)
    assert traj.rhs_evals == len(calls) == 16
    assert (traj.accepted, traj.rejected) == (4, 0)
    assert traj.dt_max == 0.3 and np.isclose(traj.dt_min, 0.1)
    # a step that leaves the domain is evaluated but not accepted
    rhs, calls = counting(growth)
    traj = rk4(rhs, [1.0, 1.0], t_end=2.0, dt=1e-2,
               guard=lambda x: x[:, 0] < 2.0)
    assert traj.truncated is not None
    assert traj.rhs_evals == len(calls) == 4 * (traj.accepted + 1)
    assert traj.rejected == 0 and traj.dt_min == traj.dt_max == 1e-2
    # rkf45 from a far too large first step: error control must reject
    rhs, calls = counting(growth)
    traj = rkf45(rhs, [1.0, 2.0], t_end=1.0, atol=1e-12, rtol=1e-12,
                 dt_init=1.0)
    assert traj.rejected > 0 and traj.accepted > 0
    assert traj.rhs_evals == len(calls) == 6 * (traj.accepted + traj.rejected)
    assert 0.0 < traj.dt_min < traj.dt_max < 1.0
    assert repr(traj) == f"Trajectory({len(traj)} records, t in [0, 1])"
    # no accepted step: no step-size range
    traj = rk4(growth, [1.9, 1.0], t_end=1.0, dt=0.5,
               guard=lambda x: x[:, 0] < 2.0)
    assert (traj.accepted, traj.rhs_evals) == (0, 4)
    assert np.isnan(traj.dt_min) and np.isnan(traj.dt_max)


def test_flow_rhs_from_index_and_closed_form_agree():
    sys = make_system("toda_moser", 2)
    x = sys.sample(samples=1, seed=17)[0]
    by_index = hamiltonian_flow_rhs(sys, index=1)
    jets = Jet2.coords(x[None, :], order=1)
    by_closed = hamiltonian_vf(sys.pi0(jets), sys.extras["h_closed"][1](jets))
    assert np.allclose(by_index(0.0, x), by_closed.val[0], atol=1e-12)
    with pytest.raises(DimensionError):
        by_index(0.0, x[:3])


def jet_oracle(sys, x, index, leg):
    """The index flow's field on the jet route: P# d(h_k), h_k from N."""
    jets = Jet2.coords(x[None, :], order=1)
    N = recursion_operator(sys.pi0(jets), sys.pi1(jets))
    P = getattr(sys, leg)(jets)
    return hamiltonian_vf(P, hierarchy_hamiltonian(N, index)).val[0]


def assert_matches_oracle(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_index_flow_evaluates_each_bivector_once_per_stage():
    sys = make_system("an_toda", 3)
    calls = {"pi0": 0, "pi1": 0}

    def counted(name, sparse):
        def reader(jets):
            calls[name] += 1
            return sparse(jets)
        return reader

    for name, table in zip(calls, sys.tables):
        table.sparse = counted(name, table.sparse)
    x = sys.sample(samples=1, seed=19)[0]
    rhs = hamiltonian_flow_rhs(sys, index=2)
    got = rhs(0.0, x)
    assert calls == {"pi0": 1, "pi1": 1}
    assert_matches_oracle(got, jet_oracle(sys, x, 2, "pi0"))


# Jet2 constructions of an index-2 flow at n=3, checked (``Jet2(...)``) and
# unchecked (``Jet2._new``) alike: the one coordinate jet, built once with
# the rhs, and per stage the blocks of the pair's tables and the slices of
# the coordinate jet they read (the flow reads each table as plain arrays,
# ``BivectorTable.sparse``, so no table jet is built); a constant Pi0
# builds nothing.  A change that makes a flow build more
# jets must say so here.
RHS_JETS = 1
STAGE_JETS = {"harmonic": 10, "calogero": 1, "toda_moser": 4, "cn_toda": 58,
              "an_toda": 6}


@pytest.mark.parametrize("key", sorted(STAGE_JETS))
def test_an_index_flow_stage_builds_a_pinned_number_of_jets(key, monkeypatch):
    sys = make_system(key, 3)
    x = sys.sample(samples=1, seed=19)[0]
    built = []
    init, new = Jet2.__init__, Jet2._new.__func__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_new(cls, *args):
        built.append(1)
        return new(cls, *args)

    monkeypatch.setattr(Jet2, "__init__", counted_init)
    monkeypatch.setattr(Jet2, "_new", classmethod(counted_new))
    rhs = hamiltonian_flow_rhs(sys, index=2)
    assert len(built) == RHS_JETS
    rhs(0.0, x)
    built.clear()
    rhs(0.0, x)             # the second stage: what every stage pays
    assert len(built) == STAGE_JETS[key]


# pi0 evaluations (``system.tables[0].sparse(X)``) over ten index-2
# stages: a constant Pi0 is evaluated once per rhs, a varying one at every
# stage.
TEN_STAGE_PI0S = {"harmonic": 1, "calogero": 1, "toda_moser": 10,
                  "cn_toda": 10, "an_toda": 1}


@pytest.mark.parametrize("key", sorted(TEN_STAGE_PI0S))
def test_an_index_flow_evaluates_a_constant_pi0_once(key):
    sys = make_system(key, 3)
    calls = []
    sparse = sys.tables[0].sparse

    def counted(X):
        calls.append(1)
        return sparse(X)

    sys.tables[0].sparse = counted
    rhs = hamiltonian_flow_rhs(sys, index=2)
    for x in sys.sample(samples=10, seed=19):
        rhs(0.0, x)
    assert len(calls) == TEN_STAGE_PI0S[key]


# np.linalg.inv calls over ten index-2 stages: a constant Pi0 is inverted
# once per rhs, a varying one (and N, for k <= 0) at every stage.
TEN_STAGE_INVS = {"harmonic": 1, "calogero": 1, "toda_moser": 10,
                  "cn_toda": 10, "an_toda": 1}


@pytest.mark.parametrize("key", sorted(TEN_STAGE_INVS))
def test_an_index_flow_inverts_a_pinned_number_of_times(key, monkeypatch):
    sys = make_system(key, 3)
    xs = sys.sample(samples=10, seed=19)
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(1)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    rhs = hamiltonian_flow_rhs(sys, index=2)  # a constant Pi0 is inverted here
    for x in xs:
        rhs(0.0, x)
    assert len(calls) == TEN_STAGE_INVS[key]


@pytest.mark.parametrize("index", (1, 2))
def test_a_kept_contraction_forms_no_matrix_product(index, monkeypatch):
    """With a constant Pi0, dh_1 contracts Q against pi1's entries, so
    after the first stage of an index-1 or index-2 flow the stage makes one
    (1, K) @ (K, m) product and one P# dh contraction: no m x m product
    (no N, no power of N) and no (., m, m, m) operand."""
    sys = make_system("an_toda", 3)
    m = sys.m
    x, y = sys.sample(samples=2, seed=41)
    rhs = hamiltonian_flow_rhs(sys, index=index)
    rhs(0.0, x)
    calls = {"matmul": [], "einsum": []}

    def spy(name, fn):
        def shapes(*args):
            calls[name].append([np.shape(a) for a in args
                                if not isinstance(a, str)])
            return fn(*args)
        return shapes

    monkeypatch.setattr(np, "matmul", spy("matmul", np.matmul))
    monkeypatch.setattr(dynamics, "_einsum", spy("einsum", dynamics._einsum))
    rhs(0.0, y)
    monkeypatch.undo()
    assert len(calls["matmul"]) == len(calls["einsum"]) == 1
    for operands in calls["matmul"] + calls["einsum"]:
        assert sum(s[-2:] == (m, m) for s in operands) <= 1, operands
        assert all(len(s) < 4 for s in operands), operands


def integrate_both_ways(sys, x0, index, steps=200, dt=1e-3):
    """rk4 states from one rhs for the whole run, and from a fresh rhs for
    every call."""
    def fresh(t, x):
        return hamiltonian_flow_rhs(sys, index=index)(t, x)

    one = hamiltonian_flow_rhs(sys, index=index)
    return [rk4(f, x0, t_end=steps * dt, dt=dt).states for f in (one, fresh)]


@pytest.mark.parametrize("key", ("harmonic", "calogero", "toda_moser",
                                 "cn_toda", "an_toda"))
def test_reused_stage_state_is_bit_identical_to_a_fresh_rhs(key):
    sys = make_system(key, 2)
    x0 = sys.sample(samples=1, seed=29)[0]
    for index in (2, -1):
        kept, fresh = integrate_both_ways(sys, x0, index)
        assert kept.shape == (201, sys.m)
        assert np.array_equal(kept, fresh), index


def test_a_returned_field_does_not_alias_the_rhs_state():
    sys = make_system("an_toda", 2)
    x, y = sys.sample(samples=2, seed=31)
    for index in (2, -1):
        rhs = hamiltonian_flow_rhs(sys, index=index)
        first = rhs(0.0, x)
        want = first.copy()
        first[:] = np.nan           # a caller may write into what it got
        assert np.array_equal(rhs(0.0, x), want)
        # a later stage does not write into an earlier result either
        fresh = hamiltonian_flow_rhs(sys, index=index)(0.0, y)
        assert np.array_equal(rhs(0.0, y), fresh)
        assert np.all(np.isnan(first))
        # the rhs does not keep the caller's point either
        z = x.copy()
        got = rhs(0.0, z)
        z[:] = y
        assert np.array_equal(got, want)


def test_a_wrong_size_point_leaves_the_rhs_usable():
    sys = make_system("an_toda", 2)
    x = sys.sample(samples=1, seed=37)[0]
    rhs = hamiltonian_flow_rhs(sys, index=2)
    want = rhs(0.0, x)
    with pytest.raises(DimensionError, match="expects 4 coordinates, got 3"):
        rhs(0.0, x[:3])
    assert np.array_equal(rhs(0.0, x), want)


@pytest.mark.parametrize("key", ("harmonic", "calogero", "toda_moser",
                                 "cn_toda", "an_toda"))
def test_order_one_tail_matches_the_jet_oracle(key):
    sys = make_system(key, 3)
    for x in sys.sample(samples=3, seed=23):
        for index in range(-2, 5):
            got = hamiltonian_flow_rhs(sys, index=index)(0.0, x)
            assert_matches_oracle(got, jet_oracle(sys, x, index, "pi0"))


@pytest.mark.parametrize("key", ("harmonic", "calogero", "toda_moser",
                                 "cn_toda", "an_toda"))
def test_the_pi1_flow_of_h_k_is_the_index_k_plus_1_flow(key):
    """Lenard: pi1# dh_k = pi0# dh_(k+1), so no flow needs a pi1 leg."""
    sys = make_system(key, 3)
    for x in sys.sample(samples=3, seed=23):
        for k in range(-2, 4):
            got = hamiltonian_flow_rhs(sys, index=k + 1)(0.0, x)
            assert_matches_oracle(got, jet_oracle(sys, x, k, "pi1"))


def rank_one(table):
    """Make the table's reader return a value whose rows 2.. vanish."""
    sparse = table.sparse

    def degenerate(jets):
        P, G = sparse(jets)
        P = P.copy()
        P[:, 1:] = 0.0          # rows 2.. vanish: rank <= 1
        return P, G

    table.sparse = degenerate


def test_a_singular_constant_pi0_raises_when_the_rhs_is_made():
    sys = make_system("an_toda", 2)
    rank_one(sys.tables[0])
    for index in range(-12, 13):
        with pytest.raises(SingularTensorError, match="pi0"):
            hamiltonian_flow_rhs(sys, index=index)


def test_order_one_tail_keeps_the_singularity_guards():
    # a varying Pi0 is guarded at every stage
    sys = make_system("toda_moser", 2)
    x = sys.sample(samples=1, seed=5)[0]
    rank_one(sys.tables[0])
    for index in (-1, 0, 2):
        rhs = hamiltonian_flow_rhs(sys, index=index)
        for _ in range(2):      # a failed guard stores no inverse to reuse
            with pytest.raises(SingularTensorError, match="pi0"):
                rhs(0.0, x)
    # a singular pi1 makes N singular: only the indices that invert N notice
    sys = make_system("an_toda", 2)
    x = sys.sample(samples=1, seed=5)[0]
    rank_one(sys.tables[1])
    for index in (-1, 0):
        with pytest.raises(SingularTensorError, match="recursion operator"):
            hamiltonian_flow_rhs(sys, index=index)(0.0, x)
    # k = 1 (pi0 leg) and k >= 2 (pi1 leg, dh_(k-1)) never invert N
    for index in (1, 2, 3):
        assert np.all(np.isfinite(hamiltonian_flow_rhs(sys, index=index)(0.0, x)))


@pytest.mark.parametrize("index", [2.5, 2.0, "2", True, None, 13, -13, 400])
def test_flow_index_must_be_an_integer_within_the_ladder_cap(index):
    sys = make_system("an_toda", 2)

    def never(jets):
        raise AssertionError("a stage was evaluated for a bad flow index")

    sys.pi0 = sys.pi1 = sys.tables[0].sparse = sys.tables[1].sparse = never
    with pytest.raises(RangeError, match="flow index"):
        hamiltonian_flow_rhs(sys, index=index)


def test_flow_index_accepts_every_integer_within_the_cap():
    sys = make_system("an_toda", 2)
    x = sys.sample(samples=1, seed=3)[0]
    for index in (-12, np.int64(-3), 0, np.int32(4), 12):
        assert np.all(np.isfinite(hamiltonian_flow_rhs(sys, index=index)(0.0, x)))


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

    def drift(q):
        return float(np.max(np.abs(q - q[0])))

    mon = hierarchy_monitors(sys, traj.states, depth=3)
    assert sorted(mon) == ["h_0", "h_1", "h_2", "h_3"]
    for name in ("h_1", "h_2", "h_3"):
        assert drift(mon[name]) < 1e-10, (name, drift(mon[name]))
    lx = lax_monitors(sys, traj.states)
    assert sorted(lx) == ["lambda_1", "lambda_2"]
    assert max(drift(ev) for ev in lx.values()) < 1e-10
    # the coordinates themselves move
    assert drift(traj.states[:, 0]) > 0.0
    # no Lax map on the spectral chain: empty dict, never an error
    assert lax_monitors(make_system("toda_moser", 2), traj.states) == {}


# LAPACK and the reference QL are two algorithms: across 40000 random
# matrices per size (k <= 16, the stacks below) they differed by at most
# 37 units of eps * max(1, |lambda|)
ULPS = 64


def assert_close_in_ulps(got, want):
    assert got.shape == want.shape
    gap = np.abs(got - want) / (np.finfo(float).eps
                                * np.maximum(1.0, np.abs(want)))
    assert np.max(gap, initial=0.0) <= ULPS, np.max(gap)


def test_eigensolver_matches_lapack():
    for k in (1, 2, 3, 5, 9, 16):
        A = rng.normal(size=(k, k))
        A = 0.5 * (A + A.T)
        ev = lax_eigenvalues(A)
        assert_close_in_ulps(ev, reference_eigenvalues(A[None])[0])
        assert np.all(np.diff(ev) >= 0.0)
    batch = rng.normal(size=(4, 6, 6))
    batch = 0.5 * (batch + batch.swapaxes(-1, -2))
    ev = lax_eigenvalues(batch)
    assert ev.shape == (4, 6)
    assert_close_in_ulps(ev, reference_eigenvalues(batch))


def test_eigensolver_on_a_real_lax_matrix():
    sys = make_system("an_toda", 3)
    x = sys.sample(samples=5, seed=19)
    L = sys.extras["lax_np"](x)
    assert_close_in_ulps(lax_eigenvalues(L), reference_eigenvalues(L))


def test_eigensolver_guards(monkeypatch):
    with pytest.raises(DimensionError):
        lax_eigenvalues(np.ones((2, 3)))
    with pytest.raises(DomainError):
        lax_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def no_convergence(L):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(ConvergenceError,
                       match="^an_toda Lax: Eigenvalues did not converge$"):
        lax_eigenvalues(np.eye(3), tag="an_toda Lax")


def random_symmetric(B, k):
    A = rng.normal(size=(B, k, k))
    return 0.5 * (A + A.swapaxes(-1, -2))


@pytest.mark.parametrize("k", (1, 2, 3, 5, 9, 16))
def test_batched_eigensolver_matches_the_reference_in_ulps(k):
    A = random_symmetric(40, k)
    A[::4, 0, 1:] = A[::4, 1:, 0] = 0.0     # a reduced column: norm == 0
    got = lax_eigenvalues(A)
    assert got.shape == (40, k)
    assert_close_in_ulps(got, reference_eigenvalues(A))
    # a 2-D input is a batch of one
    assert_close_in_ulps(lax_eigenvalues(A[3]), got[3])


@pytest.mark.parametrize("key", ("an_toda", "cn_toda"))
def test_batched_eigensolver_on_lax_stacks_along_a_flow(key):
    sys = make_system(key, 3)
    traj = integrate(hamiltonian_flow_rhs(sys, index=2), sys.sample(1, 5)[0],
                     t_end=0.2, dt=1e-3, guard=sys.domain_ok)
    L = sys.extras["lax_np"](traj.states)
    assert_close_in_ulps(lax_eigenvalues(L), reference_eigenvalues(L))


def test_reference_ql_takes_the_underflow_branch_and_matches_lapack(
        monkeypatch):
    # tridiagonal rows found by search to reach r == 0 mid-sweep in the
    # reference QL (the last three with p != 0 there), beside one ordinary row
    d = np.array([[-2e-310, -1e-310, -1e-310, -2e-310, 0.0],
                  [0.0, 1e-320, 0.0, -2e-320, 0.0],
                  [0.0, -1e-310, 2e-310, 1e-310, -1e-310],
                  [-1e-310, -2e-310, -1e-310, 0.0, -2e-310],
                  [1.0, 2.0, 3.0, 4.0, 5.0],
                  [0.0, 0.0, 2e-300, -2e-100, 2e-300],
                  [1e-250, -1e-300, 0.0, -2e-300, 1e-100],
                  [2.0, 0.0, -2e-300, 1e-200, 2e-100]])
    e = np.array([[-2e-310, -1e-160, 1e-320, 1.0],
                  [2e-160, -1e-160, -1e-320, 1.0],
                  [2e-320, 1e-160, -2e-160, 0.0],
                  [-1e-320, -2e-320, 2e-160, 2e-320],
                  [0.5, 0.25, 0.125, 1.0],
                  [-2e-320, -1e-100, 1.0, -1e-200],
                  [0.0, -1e-250, 2e-100, 2.0],
                  [-2e-300, 2e-250, -1e-100, 1.0]])
    # a zero hypot is a sweep's r == 0: the shift's hypot(g, 1) is >= 1
    hypot, zeros = np.hypot, []

    def counted(a, b):
        r = hypot(a, b)
        zeros.append(r == 0.0)
        return r

    monkeypatch.setattr(np, "hypot", counted)
    for row, (di, ei) in enumerate(zip(d, e)):
        zeros.clear()
        got = reference_ql(di, ei, 150, "ref")
        assert any(zeros) == (row != 4), row
        T = np.diag(di) + np.diag(ei, 1) + np.diag(ei, -1)
        assert_close_in_ulps(got, np.linalg.eigvalsh(T))


def test_empty_lax_batch_has_no_eigenvalues():
    ev = lax_eigenvalues(np.zeros((0, 3, 3)))
    assert ev.shape == (0, 3)
    assert lax_eigenvalues(np.zeros((2, 0, 0))).shape == (2, 0)
    with pytest.raises(DimensionError):
        lax_eigenvalues(np.zeros((0, 3, 2)))


def test_eigensolver_refuses_non_finite_matrices():
    nan_stack = np.stack([np.eye(3)] * 4)
    nan_stack[2, 0, 1] = np.nan
    inf_stack = np.stack([np.eye(3)] * 4)
    inf_stack[1, 2, 2] = np.inf
    nan_matrix = np.eye(3)
    nan_matrix[1, 1] = np.nan
    for L in (nan_stack, inf_stack, nan_matrix):
        with pytest.raises(DomainError, match="non-finite entries"):
            lax_eigenvalues(L, tag="an_toda Lax")


def test_eigensolver_guards_apply_per_matrix():
    # each matrix is held to its own scale, not the batch's largest entry
    big = 1e6 * np.eye(2)
    for skew in (1e-3, 1e-6):
        with pytest.raises(DomainError):
            lax_eigenvalues(np.stack([big, [[0.0, skew], [0.0, 0.0]]]))
