"""Flow integration with conservation monitoring.

Hierarchy flows are ordinary ODEs in the chart; this module integrates them
with fixed-step RK4 or adaptive RKF45, two steps under one run loop
(``_run``) that guards the chart domain along the way (a run that leaves
it, or whose right-hand side turns singular, is truncated at its last good
step) and keeps the step statistics, and evaluates the quantities the
flows are supposed to conserve (ladder hamiltonians, Lax spectra).  A
flow's right-hand side reads each bivector table as its value and the
gradients of its entries, contracts dh against those entries (both through
the table, ``systems.BivectorTable``), takes the pi1 leg for indices
k >= 2 (Lenard), and makes once, with the right-hand side, what does not
change between its stages: the coordinate jet, and a constant Pi0 with its
inverse and, for dh_1, its contraction row.  The Lax
spectra of a whole trajectory come from one LAPACK call
(``np.linalg.eigvalsh``), as N's spectrum (``hierarchy.spectrum``) does; a
per-matrix Householder-QL solver in the tests (tests/eigen_reference.py)
is their independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConvergenceError, DimensionError, DomainError,
                     RangeError, SingularTensorError, StepUnderflow,
                     check_int, check_positive)
from .hierarchy import LADDER_CAP, Hierarchy, recursion_operator
from .jets import Jet2, _einsum, _guarded_inv

DT_MIN = 1e-12
# rk4 refuses a run of more fixed steps than this (t_end / dt above it).
MAX_STEPS = 10**7

# Fehlberg 4(5) pair: six stages, 4th-order propagation, embedded 5th-order
# solution for the local error estimate.
RKF45 = {
    "c": (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2),
    "a": {
        1: (1 / 4,),
        2: (3 / 32, 9 / 32),
        3: (1932 / 2197, -7200 / 2197, 7296 / 2197),
        4: (439 / 216, -8.0, 3680 / 513, -845 / 4104),
        5: (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
    },
    "b4": (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0),
    "b5": (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
}


class Trajectory:
    """Recorded flow: times, states, truncation flag and step statistics.

    ``truncated`` is None for a complete run, otherwise a short reason
    string; ``rhs_evals``, ``accepted``, ``rejected``, ``dt_min`` and
    ``dt_max`` are the run's statistics, as ``_run`` defines them.
    """

    def __init__(self, times, states, truncated=None, rhs_evals=0,
                 accepted=0, rejected=0, dt_min=np.nan, dt_max=np.nan):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.truncated = truncated
        self.rhs_evals, self.accepted, self.rejected = rhs_evals, accepted, rejected
        self.dt_min, self.dt_max = dt_min, dt_max

    def __len__(self):
        return self.times.size

    def __repr__(self):
        flag = "" if self.truncated is None else f", truncated: {self.truncated}"
        return (f"Trajectory({len(self)} records, t in "
                f"[{self.times[0]:g}, {self.times[-1]:g}]{flag})")


def _start_state(x0, t_end, guard):
    x0 = np.asarray(x0, dtype=float).ravel()
    check_positive("t_end", t_end)
    if guard is not None and not np.all(guard(x0[None, :])):
        raise DomainError("initial point is outside the chart domain")
    return x0


def _run(rhs, x, t_end, dt, record_every, guard, step, control):
    """The one run loop of ``rk4`` and ``rkf45``, and their run contract.

    Each pass tries a step of h = min(dt, t_end - t): ``step(f, t, x, h)``
    returns the new state and its scaled error, accepted when <= 1 (f is
    rhs, counted).  ``control(t, h, err, accepted)`` then gives the next dt,
    or None to end the run, which always takes a first step.
    Records: the start, every ``record_every``-th accepted step, and the
    last step reached.  An accepted step that leaves the guarded domain, or
    a stage that raises SingularTensorError, truncates the run at its last
    good step with a reason; only a singular start point (the first
    evaluation) raises, and a flow with a singular constant Pi0 raises
    before, when its right-hand side is made (``hamiltonian_flow_rhs``).
    ``rhs_evals`` counts every evaluation, the raising one too;
    ``accepted`` counts the steps the run advanced by and ``rejected``
    those error control refused (a truncating step is neither); ``dt_min``
    and ``dt_max`` bound the accepted steps (nan when there are none).
    """
    evals = 0

    def counted(t, x):
        nonlocal evals
        evals += 1
        return rhs(t, x)

    times, states = [0.0], [x]
    truncated = None
    t = 0.0
    accepted, rejected, lo, hi = 0, 0, np.nan, np.nan  # fmin/fmax skip the nan
    while dt is not None:
        h = min(dt, t_end - t)
        try:
            x_new, err = step(counted, t, x, h)
        except SingularTensorError as exc:
            if evals == 1:
                raise
            truncated = (f"singular right-hand side in the step to "
                         f"t = {t + h:.6g}: {exc}")
            break
        if err <= 1.0:
            if guard is not None and not np.all(guard(x_new[None, :])):
                truncated = f"left the chart domain at t = {t + h:.6g}"
                break
            t, x = t + h, x_new
            accepted, lo, hi = accepted + 1, np.fmin(lo, h), np.fmax(hi, h)
            if accepted % record_every == 0:
                times.append(t)
                states.append(x)
        else:
            rejected += 1
        dt = control(t, h, err, accepted)
    if times[-1] != t:
        times.append(t)
        states.append(x)
    return Trajectory(times, states, truncated, rhs_evals=evals,
                      accepted=accepted, rejected=rejected, dt_min=lo, dt_max=hi)


# written out, not as a tableau: the same bits (signed zeros too), less work
def _rk4_step(f, t, x, h):
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0


def rk4(rhs, x0, t_end, dt, record_every=1, guard=None):
    """Classical fixed-step RK4 from t=0 to t_end (run contract: ``_run``).

    ceil(t_end / dt) steps (less a last step of roundoff), each of dt or
    what is left to t_end, none rejected.  Finite positive t_end and dt, an
    integer record_every >= 1 and at most MAX_STEPS steps, or a RangeError
    before the first step.
    """
    x = _start_state(x0, t_end, guard)
    check_positive("dt", dt)
    record_every = check_int("record_every", record_every, 1)
    ratio = t_end / dt               # inf when it overflows
    if not ratio <= MAX_STEPS:
        raise RangeError(f"t_end / dt = {ratio:.3g} exceeds the cap of "
                         f"{MAX_STEPS:g} rk4 steps")
    # the 1e-9 slack drops a last step of roundoff, never the only one
    steps = max(1, int(np.ceil(ratio - 1e-9)))
    return _run(rhs, x, t_end, dt, record_every, guard, _rk4_step,
                lambda t, h, err, accepted: dt if accepted < steps else None)


def rkf45(rhs, x0, t_end, atol=1e-10, rtol=1e-10, dt_init=None,
          record_every=1, guard=None):
    """Adaptive Fehlberg 4(5) from t=0 to t_end (run contract: ``_run``).

    Propagates the 4th-order solution; the embedded 5th-order solution gives
    the local error, compared against atol + rtol*|x| per component.  A
    step with a non-finite error, or with a stage point that overflowed
    (where rhs is then not evaluated), is rejected and shrunk.  Raises
    StepUnderflow when step control pushes dt below 1e-12 while the run has
    time left; a step that reaches t_end ends the run whatever it proposes
    next, so a t_end below 1e-12 takes one step.  dt_init is checked as
    rk4's dt is, and atol and rtol as well (``errors.check_positive``), each
    also <= 1e-2.
    """
    x = _start_state(x0, t_end, guard)
    for name, tol in (("atol", atol), ("rtol", rtol)):
        if check_positive(name, tol) > 1e-2:
            raise RangeError(f"{name} must lie in (0, 1e-2], got {tol}")
    record_every = check_int("record_every", record_every, 1)
    c, a, b4, b5 = RKF45["c"], RKF45["a"], RKF45["b4"], RKF45["b5"]
    dt = (min(t_end, 1e-2) if dt_init is None
          else float(check_positive("dt_init", dt_init)))
    t_stop = t_end * (1.0 - 1e-14)

    def step(f, t, x, h):
        ks = [f(t, x)]
        for s in range(1, 6):
            xs = x + h * sum(aa * kk for aa, kk in zip(a[s], ks))
            if not np.isfinite(xs).all():
                return x, np.inf    # an overflowed stage: reject, never evaluate
            ks.append(f(t + c[s] * h, xs))
        x4 = x + h * sum(bb * kk for bb, kk in zip(b4, ks))
        x5 = x + h * sum(bb * kk for bb, kk in zip(b5, ks))
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x4))
        err = float(np.max(np.abs(x5 - x4) / scale))
        if not np.isfinite(err):
            err = np.inf  # reject and shrink until StepUnderflow
        return x4, err

    def control(t, h, err, accepted):
        if not t < t_stop:
            return None
        factor = 0.9 * (1.0 / max(err, 1e-16)) ** 0.2
        dt = h * float(np.clip(factor, 0.2, 5.0))
        if dt < DT_MIN:
            raise StepUnderflow(f"adaptive step fell below {DT_MIN:g} "
                                f"at t = {t:.6g}")
        return dt

    return _run(rhs, x, t_end, dt, record_every, guard, step, control)


def integrate(rhs, x0, t_end, method="rk4", dt=1e-3, record_every=1,
              guard=None):
    """Dispatch to rk4 (fixed dt) or rkf45 (adaptive, atol = rtol = 1e-10).

    dt must be finite and positive under either method, though rkf45 picks
    its own steps; the other parameters are checked by the method itself.
    """
    if method == "rk4":
        return rk4(rhs, x0, t_end, dt, record_every=record_every, guard=guard)
    if method == "rkf45":
        check_positive("dt", dt)
        return rkf45(rhs, x0, t_end, record_every=record_every, guard=guard)
    raise RangeError(f"unknown method '{method}' (rk4 or rkf45)")


# ---- right-hand sides --------------------------------------------------------

def _stage_point(system, x):
    """A stage point as a flat array of the chart's m coordinates.

    Shape-checked but not domain-checked: RK stages may probe slightly
    outside the open region, and the integrators' guard is what enforces the
    domain along the flow.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != system.m:
        raise DimensionError(f"{system.key}(n={system.n}) expects {system.m} "
                             f"coordinates, got {x.size}")
    return x


def hamiltonian_flow_rhs(system, index):
    """rhs(t, x) for the pi0-hamiltonian flow of the ladder invariant h_k.

    ``index`` is the ladder index k, an integer in -12..12 (the ladder cap
    of ``check_depths``; not a float, bool or string); a bad index is a
    RangeError here, before any stage.

    Two legs.  For k <= 1 the field is Pi0# dh_k; for k >= 2 it is
    Pi1# dh_j with j = k - 1, the same field by the Lenard relation
    pi0# dh_k = pi1# dh_(k-1), with one power of N fewer and still no
    inverse of N.  Each table is read through its ``sparse`` reader on an
    order-1 coordinate jet: its value and the gradients of its entries
    above the diagonal.  The rest is an order-1 tail on plain arrays that
    builds no jet and no dense derivative tensor.  For every integer j,
    h_j = tr(N^j)/2j (h_0 = log|det N|/2) has dh_j,a = 1/2 tr(N^(j-1) dN_a).
    With Q = Pi0^-1, N = Pi1 Q and dN_a = dPi1_a Q - N dPi0_a Q, the cyclic
    trace gives

        dh_j,a = 1/2 tr(R dPi1_a) - 1/2 tr(R N dPi0_a),    R = Q N^(j-1),

    and each half trace is one (1, K) @ (K, m) product of the table's
    ``half_trace`` row and its entry gradients.  For j <= 0, N^-1 comes
    from the guarded inverse, so a singular N raises SingularTensorError
    as on the jet route ``hamiltonian_vf(pi0, h_k)``, with h_k built from
    N, which is the test oracle.

    What does not change between stages is made here, once:

    * one (1, m) point buffer and its order-1 coordinate jet.  A stage
      shape-checks its point (DimensionError) and writes it into the
      buffer, which is the jet's value; its gradient is one identity stack,
      shared by every stage.  Nothing downstream writes into an operand and
      every result is a fresh array, so a returned field never aliases the
      buffer.  The buffer is the rhs's one state between calls, so it is
      not reentrant.
    * for a constant Pi0 (a table without jet blocks: harmonic, calogero,
      an_toda), its value and guarded inverse Q, so a singular constant Pi0
      raises SingularTensorError("pi0 ...") here; its dPi0 term is zero.
      At j = 1 (k = 1 and k = 2) R = Q, so Q's ``half_trace`` row against
      pi1's entries is fixed too, and a stage forms no m x m product.  A
      varying Pi0 (toda_moser, cn_toda) is evaluated, inverted and guarded
      at every stage.
    """
    index = check_int("flow index", index, -LADDER_CAP, LADDER_CAP)
    leg = 1 if index >= 2 else 0
    j = index - leg                     # the ladder index of the differential
    point = np.zeros((1, system.m))
    X = Jet2.coords(point, order=1)
    pi0, pi1 = system.tables
    if pi0.constant:
        P = pi0.sparse(X)[0]
        Q = _guarded_inv(P, "pi0")
        fixed = P, Q, (pi1.half_trace(Q) if j == 1 else None)

    def rhs(t, x):
        point[0] = _stage_point(system, x)
        if pi0.constant:
            P0, Q, c = fixed
        else:
            P0, G0 = pi0.sparse(X)
            Q, c = _guarded_inv(P0, "pi0"), None
        P1, G1 = pi1.sparse(X)
        R = Q
        if c is None:
            N = np.matmul(P1, Q)
            base = N if j >= 1 else _guarded_inv(N, "recursion operator")
            for _ in range(abs(j - 1)):
                R = np.matmul(R, base)
            c = pi1.half_trace(R)
        dh = np.matmul(c, G1)
        if not pi0.constant:
            dh = dh - np.matmul(pi0.half_trace(np.matmul(R, N)), G0)
        return _einsum("...ji,...j->...i", P1 if leg else P0, dh[:, 0])[0]

    return rhs


# ---- conservation monitoring ---------------------------------------------------

def hierarchy_monitors(system, states, depth):
    """h_0..h_depth evaluated along recorded states.

    Uses order-0 jets: one batched evaluation over the whole trajectory.
    """
    jets = system.jets(states, order=0)
    N = recursion_operator(system.pi0(jets), system.pi1(jets))
    ladder = Hierarchy(None, N).ladder(depth)
    return {f"h_{i}": h.val.copy() for i, h in ladder.items()}


def lax_monitors(system, states):
    """Sorted Lax eigenvalues along states ({} when no Lax map exists)."""
    lax_fn = system.extras.get("lax_np")
    if lax_fn is None:
        return {}
    ev = lax_eigenvalues(lax_fn(states), tag=f"{system.key} Lax")
    return {f"lambda_{j + 1}": ev[:, j] for j in range(ev.shape[1])}


# ---- Lax spectra -------------------------------------------------------------

def lax_eigenvalues(L, tag="lax"):
    """Sorted eigenvalues of a real symmetric matrix or a (B, k, k) stack.

    One LAPACK call (``np.linalg.eigvalsh``, the ``dsyevd`` route) on the
    whole stack; a failure to converge there is a ConvergenceError naming
    ``tag``.  A 2-D input is a batch of one and gives a (k,) result; an
    empty stack gives a (0, k) one.  Input must be square
    (DimensionError), finite, and each matrix symmetric to roundoff at its
    own scale max(|L|, 1) (DomainError otherwise).  The per-matrix
    Householder-QL solver in tests/eigen_reference.py is the independent
    cross-check.
    """
    L = np.asarray(L, dtype=float)
    if L.ndim not in (2, 3) or L.shape[-1] != L.shape[-2]:
        raise DimensionError(f"{tag}: expected a square matrix or a stack "
                             f"of them, got {L.shape}")
    # before the symmetry test, which a nan passes (nan > tol is false)
    if not np.isfinite(L).all():
        raise DomainError(f"{tag}: matrix has non-finite entries")
    # each matrix at its own scale (initial=0.0: a 0 x 0 matrix has no
    # entries to take the maximum of)
    scale = np.maximum(np.max(np.abs(L), axis=(-2, -1), initial=0.0), 1.0)
    asym = np.max(np.abs(L - L.swapaxes(-2, -1)), axis=(-2, -1), initial=0.0)
    if np.any(asym > 1e-10 * scale):
        raise DomainError(f"{tag}: matrix is not symmetric")
    try:
        return np.linalg.eigvalsh(L)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{tag}: {exc}") from exc
