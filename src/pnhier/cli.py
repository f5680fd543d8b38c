"""Command-line front end: verify | hierarchy | integrate | catalog.

Exit codes: 0 success / all checks pass, 1 check failure or engine failure
(an EngineError other than a usage error: StepUnderflow, ConvergenceError,
a singular flow start point; ``failed: <message>`` on stderr), 2 usage
error, 3 file I/O failure.  Reports go to --out or stdout; human-readable
progress goes to stderr so captured stdout stays byte-identical across
reruns.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import (
    hamiltonian_flow_rhs,
    hierarchy_monitors,
    integrate,
    lax_monitors,
)
from .errors import DimensionError, EngineError, RangeError
from .hierarchy import check_depths
from .report import (
    catalog_report,
    hierarchy_report,
    probe_point,
    render_report,
    summary_lines,
    trajectory_csv,
    verify_report,
)
from .systems import make_system


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _note(line):
    print(line, file=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pnhier",
        description="verify, tabulate, and integrate compatible bivector pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", required=True,
                       help="catalog id (see the catalog subcommand)")
        p.add_argument("--n", type=int, default=2, help="degrees of freedom")
        p.add_argument("--out", default=None, help="write the result here "
                       "instead of stdout")

    p = sub.add_parser("verify", help="run the seeded identity suite")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--depth", type=int, default=4, help="ladder depth")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of check names")

    p = sub.add_parser("hierarchy", help="ladder table at the probe point")
    common(p)
    p.add_argument("--depth", type=int, default=4)

    p = sub.add_parser("integrate", help="integrate a ladder flow from the "
                       "probe point and emit a CSV trajectory")
    common(p)
    p.add_argument("--flow", type=int, default=2,
                   help="ladder index k of the hamiltonian h_k driving the "
                   "flow, -12..12")
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "rkf45"), default="rk4")
    p.add_argument("--depth", type=int, default=3,
                   help="monitor columns h_0..h_depth, depth in 1..12")

    p = sub.add_parser("catalog", help="list the model catalog")
    p.add_argument("--n", type=int, default=2,
                   help="representative size for boxes and labels")
    p.add_argument("--out", default=None)
    return parser


def _cmd_verify(args):
    system = make_system(args.system.replace("-", "_"), args.n)
    report = verify_report(system, samples=args.samples, seed=args.seed,
                           tol=args.tol, depth=args.depth, checks=args.checks)
    _emit(render_report(report), args.out)
    for line in summary_lines(report):
        _note(line)
    return 0 if report["all_pass"] else 1


def _cmd_hierarchy(args):
    system = make_system(args.system.replace("-", "_"), args.n)
    report = hierarchy_report(system, depth=args.depth)
    _emit(render_report(report), args.out)
    for row in report["table"]:
        _note(f"h_{row['index']} = {row['value']!r}")
    worst = max((max(r) for r in report["involution_matrix"]), default=0.0)
    _note(f"worst involution entry {worst:.3e}")
    return 0


def _cmd_integrate(args):
    system = make_system(args.system.replace("-", "_"), args.n)
    check_depths(args.depth, 0)      # before the flow, not after it
    rhs = hamiltonian_flow_rhs(system, index=args.flow)
    x0 = probe_point(system)
    traj = integrate(rhs, x0, args.t_end, method=args.method, dt=args.dt,
                     guard=system.domain_ok)
    monitors = hierarchy_monitors(system, traj.states, args.depth)
    monitors.update(lax_monitors(system, traj.states))
    _emit(trajectory_csv(traj, system.labels, monitors), args.out)
    if traj.truncated:
        _note(f"trajectory truncated: {traj.truncated}")
    _note(f"{len(traj)} records, t in [0, {float(traj.times[-1])!r}]")
    _note(f"{traj.rhs_evals} rhs evaluations, {traj.accepted} steps accepted, "
          f"{traj.rejected} rejected, dt in [{traj.dt_min:.6g}, "
          f"{traj.dt_max:.6g}]")
    return 0


def _cmd_catalog(args):
    _emit(render_report(catalog_report(n=args.n)), args.out)
    return 0


_DISPATCH = {
    "verify": _cmd_verify,
    "hierarchy": _cmd_hierarchy,
    "integrate": _cmd_integrate,
    "catalog": _cmd_catalog,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (RangeError, DimensionError) as exc:
        _note(f"error: {exc}")
        return 2
    except OSError as exc:
        _note(f"i/o error: {exc}")
        return 3
    except EngineError as exc:
        _note(f"failed: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
