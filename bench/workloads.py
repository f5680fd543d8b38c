"""The three benchmark workloads, each a closed loop of one caller.

``build(name, seed)`` makes the workload's systems and inputs from the seed
and returns an operation: a callable that runs one unit of work through
pnhier's public API and returns ``(text, problems)``.  ``text`` is what the
operation rendered (compared byte for byte between operations) and
``problems`` lists every way the result missed the correctness gate; an
empty list is a passing operation.

Operations look pnhier functions up as module attributes at call time
(``report.verify_report``, not an imported name), so the tracer's patches
apply to them.
"""

from __future__ import annotations

import numpy as np

from pnhier import dynamics, report, systems

SAMPLES = 100
DEPTH = 4

# toda_moser is the only chart that carries a conformal master symmetry, so it
# is the only one that runs the oevel family rows and their N-powers.
OEVEL_CHARTS = (("toda_moser", 3),)
# The other four charts: oevel rows are not applicable, time goes to the
# first-order identities and the ladder at larger m with shallow N-powers.
CATALOG_CHARTS = (("harmonic", 4), ("calogero", 3), ("cn_toda", 3),
                  ("an_toda", 4))

# The `pnhier integrate` pipeline at B=1 jets, from a seeded start point.
FLOW_CHART = ("an_toda", 3)
FLOW_INDEX = 2
FLOW_T_END = 2.0
FLOW_DT = 1e-3
MONITOR_DEPTH = 3

# acceptance-gate bounds on conservation along the flow
H_DRIFT = 1e-8
LAX_DRIFT = 1e-6

NAMES = ("verify-oevel", "verify-catalog", "flow-an-toda")


def build(name, seed):
    """Systems and inputs for workload ``name`` at ``seed``; returns the op."""
    if name == "verify-oevel":
        return _verify_op(OEVEL_CHARTS, seed)
    if name == "verify-catalog":
        return _verify_op(CATALOG_CHARTS, seed)
    if name == "flow-an-toda":
        return _flow_op(seed)
    raise ValueError(f"unknown workload {name!r} (one of {', '.join(NAMES)})")


def _verify_op(charts, seed):
    built = [systems.make_system(key, n) for key, n in charts]

    def op():
        texts, problems = [], []
        for system in built:
            rep = report.verify_report(system, samples=SAMPLES, seed=seed,
                                       depth=DEPTH)
            texts.append(report.render_report(rep))
            where = f"{system.key} n={system.n}"
            if not rep["all_pass"]:
                problems.append(f"{where}: rows failed: {rep['failed']}")
            for row in rep["checks"]:
                if "floor" in row and not row["max_abs_defect"] > row["floor"]:
                    problems.append(f"{where}: control {row['name']} "
                                    f"{row['max_abs_defect']:.3e} does not "
                                    f"exceed its floor {row['floor']:g}")
        return "".join(texts), problems

    return op


def _flow_op(seed):
    key, n = FLOW_CHART
    system = systems.make_system(key, n)
    x0 = system.sample(1, seed)[0]

    def op():
        rhs = dynamics.hamiltonian_flow_rhs(system, index=FLOW_INDEX)
        traj = dynamics.integrate(rhs, x0, FLOW_T_END, method="rk4",
                                  dt=FLOW_DT, guard=system.domain_ok)
        ladder = dynamics.hierarchy_monitors(system, traj.states, MONITOR_DEPTH)
        monitors = {f"h_{k}": ladder[f"h_{k}"] for k in range(MONITOR_DEPTH + 1)}
        lax = dynamics.lax_monitors(system, traj.states)
        monitors.update(lax)
        text = report.trajectory_csv(traj, system.labels, monitors)

        problems = []
        if traj.truncated:
            problems.append(f"trajectory truncated: {traj.truncated}")
        for k in range(MONITOR_DEPTH + 1):
            h = monitors[f"h_{k}"]
            drift = float(np.max(np.abs(h - h[0])))
            if not drift < H_DRIFT:
                problems.append(f"h_{k} drift {drift:.3e} (bound {H_DRIFT:g})")
        if not lax:
            problems.append("no Lax eigenvalues to monitor")
        for name, ev in lax.items():
            drift = float(np.max(np.abs(ev - ev[0])))
            if not drift < LAX_DRIFT:
                problems.append(f"{name} drift {drift:.3e} "
                                f"(bound {LAX_DRIFT:g})")
        return text, problems

    return op
