"""Integrate a lattice flow and watch its invariants stand still.

Usage:  python3 demos/lattice_flow.py

The second ladder hamiltonian of the three-site open lattice drives the
canonical coordinates through a visible excursion while every ladder
invariant and every eigenvalue of the Lax matrix stays frozen at machine
precision.  The same trajectory is then replayed at coarser steps to show
the classical fourth-order error decay of the integrator.
"""

import numpy as np

from pnhier.dynamics import (hamiltonian_flow_rhs, hierarchy_monitors,
                             integrate, lax_monitors)
from pnhier.report import probe_point
from pnhier.systems import make_system

system = make_system("an_toda", 3)
x0 = probe_point(system)
rhs = hamiltonian_flow_rhs(system, index=2)

print(f"system: {system.title}, coordinates {system.labels}")
print(f"start:  {x0}")

traj = integrate(rhs, x0, t_end=5.0, method="rk4", dt=1e-3,
                 record_every=200, guard=system.domain_ok)
print(f"\nintegrated: {traj!r}")
print(f"end state:  {np.round(traj.states[-1], 6)}")

monitors = hierarchy_monitors(system, traj.states, depth=3)
monitors.update(lax_monitors(system, traj.states))
drift = {name: np.max(np.abs(q - q[0])) for name, q in monitors.items()}
print("\nmax drift of each conserved quantity over the whole run:")
for name in sorted(drift):
    print(f"  {name:<10s} {drift[name]:.3e}")

print("\ncoordinates moved, invariants did not:")
span = np.max(traj.states, axis=0) - np.min(traj.states, axis=0)
for label, s in zip(system.labels, span):
    print(f"  {label:<4s} travelled {s:.3f}")

print("\nfourth-order convergence under step halving (h_2 drift):")
prev = None
for dt in (4e-2, 2e-2, 1e-2):
    t = integrate(rhs, x0, t_end=5.0, method="rk4", dt=dt,
                  record_every=25, guard=system.domain_ok)
    h2 = hierarchy_monitors(system, t.states, depth=2)["h_2"]
    d = np.max(np.abs(h2 - h2[0]))
    line = f"  dt={dt:.0e}  max drift {d:.3e}"
    if prev is not None:
        line += f"   ({prev / d:.1f}x smaller)"
    prev = d
    print(line)
