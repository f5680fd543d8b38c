"""Seeded identity-verification reports and deterministic emitters.

The verify suite evaluates the structural identities of a catalog system on
a seeded sample cloud.  Every check reduces a per-sample defect array to
max/mean statistics; a row passes iff max_abs_defect < tol.  Checks that need
catalog data a system does not carry (a conformal master symmetry, a
deformation generator) appear with status "not-applicable" and a reason
instead of being dropped.

Two control rows rerun the torsion and compatibility checks against a
deliberately broken recursion operator (entry (1,1) += 1e-3 * x^1).  They
pass only when the measured defect EXCEEDS a floor, proving the suite can
see a violation; their rows carry a "floor" key instead of "tol" and invert
the pass rule.

Reports are plain dicts with fixed key order and native scalar types, so the
rendered JSON is byte-identical for identical inputs: no timestamps, no
environment-dependent iteration order.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .errors import EngineError, RangeError, check_positive
from .fields import (
    antisymmetry_defect,
    cotangent_apply,
    differential,
    hamiltonian_vf,
    jacobi_defect,
    lie_bracket,
    lie_der_bivector,
    per_sample,
    pn_compat_defect,
    poisson_bracket,
    scalar_mul,
    schouten_bb,
    sharp,
    torsion_defect,
    wedge_vb,
    wedge_vv,
    worst_defect,
)
from .hierarchy import (
    Hierarchy,
    check_depths,
    cotangent_ladder_defect,
    commuting_flows_defect,
    involution_defect,
    lenard_defect,
    n_act,
    recursion_operator,
    spectral_pairing,
)
from .jets import Jet2, jtruncate
from .master import (
    anomaly_defect,
    bivector_family_defect,
    commutator_family_defect,
    conformal_defects,
    deformation_defect,
    hamiltonian_family_defect,
    modular_family_defect,
)
from .modular import koszul_d, modular_pair_defect_field, pn_modular_field
from .systems import SYSTEMS

CONTROL_FLOOR = 1e-5

# Commuting flows compare second derivatives of ladder hamiltonians through
# repeated N-powers and carry an extra conditioning factor; the acceptance
# bounds keep the same 10x ratio relative to the first-order identities.
TOL_SCALE = {"commuting-flows": 10.0}


# ---- shared per-report state -------------------------------------------------

class _Workspace:
    """Sampled jets and derived tensors, built once per report.

    Every row takes its powers of N, ladder bivectors, hamiltonians, modular
    fields and master fields from the one Hierarchy ``hier``.
    """

    def __init__(self, system, samples, seed, depth):
        self.system = system
        self.x = system.sample(samples, seed)     # checks samples and seed
        self.samples, self.seed, self.depth = int(samples), int(seed), depth
        self.jets = system.jets(self.x)
        self.P0 = system.pi0(self.jets)
        self.P1 = system.pi1(self.jets)
        self.N = recursion_operator(self.P0, self.P1)
        self.neg_depth = system.extras.get("neg_depth", 0)
        oevel = system.extras.get("oevel")
        Z0 = None if oevel is None else oevel["z0"](self.jets)
        self.hier = Hierarchy(self.P0, self.N, Z0)
        # two smooth log-densities besides Lebesgue; any polynomials work
        self.lg_b = self.jets[0]
        self.lg_c = self.jets[0] * self.jets[-1] * 0.5 + self.jets[1] * 0.25

    def ladder(self, depth=None, neg_depth=None):
        return self.hier.ladder(self.depth if depth is None else depth,
                                self.neg_depth if neg_depth is None else neg_depth)


# ---- check runners -----------------------------------------------------------

def _r_antisymmetry(ws):
    return worst_defect(antisymmetry_defect(P) for P in (ws.P0, ws.P1))


def _r_jacobi_pi0(ws):
    return jacobi_defect(ws.P0)


def _r_jacobi_pi1(ws):
    return jacobi_defect(ws.P1)


def _r_mixed(ws):
    # the value alone: order-1 inputs spare the bracket its gradient terms
    return per_sample(schouten_bb(jtruncate(ws.P0, 1), jtruncate(ws.P1, 1)).val)


def _r_torsion(ws):
    return torsion_defect(ws.N)


def _r_compat(ws):
    return pn_compat_defect(ws.P0, ws.N)


def _r_nact(ws):
    two = n_act(jtruncate(ws.N, 0), jtruncate(ws.P0, 0))
    one = ws.hier.bivector(2)
    return per_sample(two.val - one.val)


# The modular-route rows read values alone: their operands are cut to
# order 1, the most a value differentiates, so every contraction is order 0.

def _r_modular_routes(ws):
    P0, P1 = jtruncate(ws.P0, 1), jtruncate(ws.P1, 1)
    direct = pn_modular_field(P0, jtruncate(ws.N, 1))
    pair = modular_pair_defect_field(P0, P1, ws.N)
    ham0 = hamiltonian_vf(P0, jtruncate(ws.hier.hamiltonian(1), 1) * (-1.0))
    ham1 = hamiltonian_vf(P1, jtruncate(ws.hier.hamiltonian(0), 1) * (-1.0))
    return worst_defect(route.val - direct.val for route in (pair, ham0, ham1))


def _r_mu_independence(ws):
    P0, P1 = jtruncate(ws.P0, 1), jtruncate(ws.P1, 1)
    routes = [modular_pair_defect_field(P0, P1, ws.N, lg).val
              for lg in (None, ws.lg_b, ws.lg_c)]
    return worst_defect(routes[a] - routes[b] for a, b in ((0, 1), (0, 2), (1, 2)))


def _r_density_change(ws):
    lgs = [jtruncate(lg, 1) for lg in (ws.lg_b, ws.lg_c)]
    flat = [(P, koszul_d(P).val)
            for P in (jtruncate(ws.P0, 1), jtruncate(ws.P1, 1))]
    return worst_defect(koszul_d(P, lg).val - base + hamiltonian_vf(P, lg).val
                        for P, base in flat for lg in lgs)


def _r_koszul_d2(ws):
    weighted = koszul_d(koszul_d(ws.P1, ws.lg_b), ws.lg_b)
    flat = koszul_d(koszul_d(ws.P0))
    return worst_defect((weighted.val, flat.val))


def _r_koszul_generator(ws):
    lg = ws.lg_b
    lad = ws.ladder()
    X = hamiltonian_vf(ws.P0, lad[1])
    Y = hamiltonian_vf(ws.P1, lad[0])
    # vector-bivector: L_X P = D(X^P) - (DX) P - X ^ (DP); X ^ (DP) is
    # differentiated nowhere, so it is formed from cut operands at order 0
    vb = lie_der_bivector(X, ws.P1).val - (
        koszul_d(wedge_vb(X, ws.P1), lg).val
        - scalar_mul(koszul_d(X, lg), ws.P1).val
        - wedge_vv(jtruncate(X, 0), koszul_d(jtruncate(ws.P1, 1), lg)).val)
    # vector-vector: [X, Y] = -D(X^Y) - (DX) Y + (DY) X
    vv = lie_bracket(X, Y).val - (
        -koszul_d(wedge_vv(X, Y), lg).val
        - scalar_mul(koszul_d(X, lg), Y).val
        + scalar_mul(koszul_d(Y, lg), X).val)
    return worst_defect((vb, vv))


def _r_cotangent(ws):
    return cotangent_ladder_defect(ws.N, ws.ladder())


def _r_lenard(ws):
    return lenard_defect(ws.hier, ws.ladder())


def _r_involution(ws):
    return involution_defect(ws.P0, ws.P1, ws.ladder())


def _r_commuting(ws):
    return commuting_flows_defect(ws.P0, ws.ladder())


def _need_oevel(ws):
    if "oevel" not in ws.system.extras:
        return "catalog entry carries no conformal master symmetry (extras['oevel'])"
    return None


def _oevel_data(ws):
    ov = ws.system.extras["oevel"]
    return ov["lam"], ov["mu"], ov["nu"], ov["anchor"]


def _r_oevel_conformal(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    lad = ws.ladder()
    return worst_defect(conformal_defects(ws.P0, ws.P1, ws.hier.Z0, lam, mu,
                                          nu, lad[anchor]).values())


def _r_oevel_h_family(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    lad = ws.ladder(6, 6)
    rng = range(-3, 4)
    return hamiltonian_family_defect(ws.hier, lad, lam, mu, nu, anchor, rng, rng)


def _r_oevel_anomaly(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    lad = ws.ladder(6, 6)
    anomaly = ws.system.n * (mu - lam)
    return anomaly_defect(ws.hier, lad, anomaly, range(-2, 3))


def _r_oevel_pi_family(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    rng = range(-3, 4)
    return bivector_family_defect(ws.hier, lam, mu, rng, rng)


def _r_oevel_z_family(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    rng = range(-3, 4)
    return commutator_family_defect(ws.hier, lam, mu, rng, rng)


def _r_oevel_modular(ws):
    lam, mu, nu, anchor = _oevel_data(ws)
    rng = range(-2, 3)
    return worst_defect(modular_family_defect(ws.hier, lam, mu, rng, rng).values())


def _need_deformation(ws):
    if "deformation_z" not in ws.system.extras:
        return "catalog entry carries no deformation generator (extras['deformation_z'])"
    return None


def _r_deformation(ws):
    Z = ws.system.extras["deformation_z"](ws.jets)
    return worst_defect(deformation_defect(ws.P0, ws.P1, Z, logg)
                        for logg in (None, ws.lg_b))


def _r_closed_forms(ws):
    """Every closed-form table the catalog entry carries, against the engine.

    Both sides read values only, and no value reads more than a gradient:
    the closed forms take the coordinate jet cut to order 1, and the
    engine's operands are cut to order 1 too, so every contraction is
    order 0."""
    sysm = ws.system
    extras = sysm.extras
    jets = jtruncate(ws.jets, 1)
    lad = {k: jtruncate(h, 1) for k, h in ws.ladder().items()}
    P0, P1 = jtruncate(ws.P0, 1), jtruncate(ws.P1, 1)
    d = []
    for k, fn in extras.get("h_closed", {}).items():
        if k in lad:
            d.append(fn(jets).val - lad[k].val)
    if "deformation_z" in extras:
        Z = extras["deformation_z"](jets)
        d.append(lie_der_bivector(Z, P0).val - P1.val)
        if "deformation_div_closed" in extras:
            d.append(koszul_d(Z).val - extras["deformation_div_closed"](jets).val)
    if "xn_closed" in extras:
        d.append(extras["xn_closed"](jets).val
                 - pn_modular_field(P0, jtruncate(ws.N, 1)).val)
    if "x1_closed" in extras:
        x1 = extras["x1_closed"](jets)
        d.append(hamiltonian_vf(P0, lad[2]).val - x1.val)
        d.append(hamiltonian_vf(P1, lad[1]).val - x1.val)
    if "x0_mu" in extras:
        d.append(koszul_d(P0).val - extras["x0_mu"](jets).val)
    if "x1_mu" in extras:
        d.append(koszul_d(P1).val - extras["x1_mu"](jets).val)
    if "xm1_mu" in extras:
        d.append(ws.hier.modular(-1).val - extras["xm1_mu"](jets).val)
    if "z_closed" in extras and ws.hier.Z0 is not None:
        for i in (-1, 1, 2):
            d.append(ws.hier.master(i).val - extras["z_closed"](i)(jets).val)
    if "h2_closed" in extras:
        h2 = extras["h2_closed"](jets)
        d.append(h2.val - ws.hier.hamiltonian(1).val)
        L = extras["lax_np"](ws.x)
        d.append(np.einsum('bii->b', ws.N.val) - np.einsum('bij,bji->b', L, L))
        d.append(lad[0].val - np.log(np.abs(np.linalg.det(L))))
        if "printed_flow" in extras:
            flow = hamiltonian_vf(P0, h2)
            printed = extras["printed_flow"](jets)
            d.append(flow.val - extras["flow_scale"] * printed.val)
        d.append(sharp(P1, differential(lad[0])).val
                 - sharp(P0, differential(h2)).val)
    if "pushed_flow_np" in extras:
        n = sysm.n
        h2 = extras["h_closed"][2](jets)
        X = hamiltonian_vf(P0, h2).val
        a, b = extras["flaschka_np"](ws.x)
        adot = a * (X[:, :n - 1] - X[:, 1:n]) * 0.5
        bdot = -0.5 * X[:, n:]
        adot_ref, bdot_ref = extras["pushed_flow_np"](ws.x)
        d.append(adot - adot_ref)
        d.append(bdot - bdot_ref)
    return worst_defect(d)


def _perturbed_n(ws):
    """N with entry (1,1) shifted by 1e-3 * x^1: must break the suite."""
    N = ws.N
    val = N.val.copy()
    val[:, 0, 0] += 1e-3 * ws.x[:, 0]
    grad = N.grad.copy()
    grad[:, 0, 0, 0] += 1e-3
    return Jet2._new(val, grad, N.hess, N.m)


def _r_control_torsion(ws):
    return torsion_defect(_perturbed_n(ws))


def _r_control_compat(ws):
    return pn_compat_defect(ws.P0, _perturbed_n(ws))


REGISTRY = (
    ("antisymmetry", "pi^T = -pi for both stored bivectors", None, _r_antisymmetry),
    ("jacobi-pi0", "[pi0, pi0] = 0", None, _r_jacobi_pi0),
    ("jacobi-pi1", "[pi1, pi1] = 0", None, _r_jacobi_pi1),
    ("schouten-mixed", "[pi0, pi1] = 0", None, _r_mixed),
    ("torsion", "T_N = 0 for N = pi1# o (pi0#)^{-1}", None, _r_torsion),
    ("pn-compatibility", "N pi0 = pi0 N^T and the coupling tensor vanishes",
     None, _r_compat),
    ("nact-consistency", "N pi0 N^T = N^2 pi0", None, _r_nact),
    ("modular-routes",
     "X^1 - N X^0 = pi0# d(-tr N / 2) = pi1# d(-log|det N| / 2) = X_N",
     None, _r_modular_routes),
    ("mu-independence", "X^1_mu - N X^0_mu does not depend on the density mu",
     None, _r_mu_independence),
    ("density-change", "X_{g mu} = X_mu - X_{ln g} for both bivectors",
     None, _r_density_change),
    ("koszul-d2", "D_mu o D_mu = 0 on both bivectors", None, _r_koszul_d2),
    ("koszul-generator",
     "D_mu generates the bracket: L_X P = D(X^P) - (DX)P - X^(DP)",
     None, _r_koszul_generator),
    ("cotangent-ladder", "N^* dh_k = dh_{k+1}", None, _r_cotangent),
    ("lenard-ladder", "pi_{i+1}# dh_k = pi_i# dh_{k+1}", None, _r_lenard),
    ("involution", "{h_i, h_j} = 0 in both brackets", None, _r_involution),
    ("commuting-flows", "[X_{h_i}, X_{h_j}] = 0 for the pi0 flows",
     None, _r_commuting),
    ("oevel-conformal",
     "L_{Z0} pi0 = lam pi0, L_{Z0} pi1 = mu pi1, Z0(h_A) = nu h_A",
     _need_oevel, _r_oevel_conformal),
    ("oevel-h-family",
     "Z_i(h_j) = (nu + (j - A + i)(mu - lam)) h_{i+j} off the anomaly",
     _need_oevel, _r_oevel_h_family),
    ("oevel-anomaly", "Z_i(h_{-i}) = n (mu - lam)", _need_oevel, _r_oevel_anomaly),
    ("oevel-pi-family",
     "L_{Z_i} pi_j = (mu + (j - i - 1)(mu - lam)) pi_{i+j}",
     _need_oevel, _r_oevel_pi_family),
    ("oevel-z-family", "[Z_i, Z_j] = (mu - lam)(j - i) Z_{i+j}",
     _need_oevel, _r_oevel_z_family),
    ("oevel-modular-relations",
     "[X^j, Z_i] = -c_ij X^{i+j} + X^j_{div Z_i}; L_{X^i} pi_j = -L_{X^j} pi_i",
     _need_oevel, _r_oevel_modular),
    ("oevel-deformation", "L_Z pi0 = pi1 implies X^1 = [Z, X^0] + X^0_{div Z}",
     _need_deformation, _r_deformation),
    ("closed-forms", "engine objects match the catalog's closed-form tables",
     None, _r_closed_forms),
)

CONTROLS = (
    ("control-torsion",
     "perturbed N (entry (1,1) += 1e-3 x^1) must fail the torsion check",
     _r_control_torsion),
    ("control-compatibility",
     "perturbed N must fail the compatibility check",
     _r_control_compat),
)

CHECK_NAMES = tuple(name for name, _, _, _ in REGISTRY) + tuple(
    name for name, _, _ in CONTROLS)


def _tokens(checks):
    if checks is None:
        return None
    if isinstance(checks, str):
        parts = [t.strip() for t in checks.split(",")]
    else:
        parts = [str(t).strip() for t in checks]
    return [t for t in parts if t]


def _selected(name, tokens):
    if tokens is None:
        return True
    words = name.split("-")
    return any(t == name or t in words or name.startswith(t + "-") for t in tokens)


# ---- verify ------------------------------------------------------------------

def verify_report(system, samples=100, seed=42, tol=1e-8, depth=4, checks=None):
    """Run the identity suite on seeded samples and assemble the report dict:
    integer samples >= 1, seed in [0, 2**128) and depth in 1..12, a finite
    positive tol, or a RangeError before a sample is drawn."""
    check_positive("tol", tol)
    depth, _ = check_depths(depth, 0)
    tokens = _tokens(checks)
    if tokens is not None:
        if not tokens:
            raise RangeError(f"check selection {checks!r} names no check")
        unknown = [t for t in tokens
                   if not any(_selected(name, [t]) for name in CHECK_NAMES)]
        if unknown:
            raise RangeError(f"unknown check selector(s): {', '.join(unknown)}")
    ws = _Workspace(system, samples, seed, depth)

    rows = []
    for name, identity, need, run in REGISTRY:
        if not _selected(name, tokens):
            continue
        reason = need(ws) if need is not None else None
        if reason is not None:
            rows.append({"name": name, "identity": identity,
                         "status": "not-applicable", "reason": reason})
            continue
        row_tol = float(tol) * TOL_SCALE.get(name, 1.0)
        rows.append(_judged_row(ws, name, identity, run, "tol", row_tol))
    for name, identity, run in CONTROLS:
        if not _selected(name, tokens):
            continue
        rows.append(_judged_row(ws, name, identity, run, "floor", CONTROL_FLOOR))

    pairing = spectral_pairing(ws.N)
    spectrum = {
        "max_imag": float(pairing["max_imag"]),
        "paired_all": bool(np.all(pairing["paired"])),
        "distinct_min": int(np.min(pairing["distinct"])),
        "independent_all": bool(np.all(pairing["independent"])),
    }
    judged = [r for r in rows if "pass" in r]
    report = {
        "meta": _meta("verify", system, version_extras={
            "samples": ws.samples, "seed": ws.seed, "tol": float(tol),
            "depth": ws.depth, "checks": tokens}),
        "spectrum": spectrum,
        "checks": rows,
        "failed": [r["name"] for r in judged if not r["pass"]],
        "all_pass": bool(all(r["pass"] for r in judged)),
    }
    return report


def _judged_row(ws, name, identity, run, bound_key, bound):
    """Run one check and reduce its defects: a "tol" row passes below its
    bound, a "floor" row (a control) above it.  An engine error inside the
    runner fails this row alone."""
    row = {"name": name, "identity": identity, "samples": ws.samples}
    try:
        d = np.asarray(run(ws), dtype=float).ravel()
    except EngineError as exc:
        row.update({"status": "error", "message": str(exc), "pass": False})
        return row
    mx = float(np.max(d))
    row.update({"max_abs_defect": mx, "mean_abs_defect": float(np.mean(d)),
                bound_key: bound,
                "pass": mx < bound if bound_key == "tol" else mx > bound})
    return row


def _meta(command, system, version_extras):
    meta = {
        "command": command,
        "system": system.key.replace("_", "-"),
        "title": system.title,
        "n": int(system.n),
        "m": int(system.m),
        "box": {"lo": [float(v) for v in system.lo],
                "hi": [float(v) for v in system.hi]},
    }
    meta.update(version_extras)
    meta["version"] = __version__
    return meta


def summary_lines(report):
    """Human-readable one-line-per-check digest of a verify report."""
    lines = []
    for row in report["checks"]:
        if row.get("status") == "not-applicable":
            lines.append(f"SKIP {row['name']}: {row['reason']}")
            continue
        if row.get("status") == "error":
            lines.append(f"ERROR {row['name']}: {row['message']}")
            continue
        word = "PASS" if row["pass"] else "FAIL"
        bound = ("floor", row["floor"]) if "floor" in row else ("tol", row["tol"])
        lines.append(f"{word} {row['name']}  max {row['max_abs_defect']:.3e}"
                     f"  mean {row['mean_abs_defect']:.3e}  ({bound[0]} {bound[1]:g})")
    judged = [r for r in report["checks"] if "pass" in r]
    passed = sum(1 for r in judged if r["pass"])
    lines.append(f"{passed}/{len(judged)} checks passed")
    return lines


# ---- hierarchy ---------------------------------------------------------------

def probe_point(system):
    """The deterministic probe (1..n, 1..n) used by hierarchy and integrate."""
    base = np.arange(1.0, system.n + 1.0)
    return np.concatenate([base, base])


def hierarchy_report(system, depth=4):
    """Ladder table and pairwise defect matrices at the probe point."""
    x = probe_point(system)[None, :]
    jets = system.jets(x, order=1)      # values and first derivatives only
    P0 = system.pi0(jets)
    P1 = system.pi1(jets)
    N = recursion_operator(P0, P1)
    neg_depth = system.extras.get("neg_depth", 0)
    ladder = Hierarchy(None, N).ladder(depth, neg_depth)
    indices = sorted(ladder)

    table = [{"index": k, "value": float(ladder[k].val[0])} for k in indices]
    cotangent = []
    for k in indices:
        if k + 1 not in ladder:
            continue
        lhs = cotangent_apply(N, differential(ladder[k]))
        rhs = differential(ladder[k + 1])
        cotangent.append({"index": k,
                          "defect": float(np.max(np.abs(lhs.val - rhs.val)))})
    matrix = []
    for i in indices:
        row = []
        for j in indices:
            b0 = float(np.max(np.abs(poisson_bracket(P0, ladder[i], ladder[j]).val)))
            b1 = float(np.max(np.abs(poisson_bracket(P1, ladder[i], ladder[j]).val)))
            row.append(max(b0, b1))
        matrix.append(row)

    pairing = spectral_pairing(N)
    return {
        "meta": _meta("hierarchy", system, version_extras={"depth": int(depth)}),
        "probe": [float(v) for v in x[0]],
        "indices": indices,
        "table": table,
        "cotangent_defects": cotangent,
        "involution_matrix": matrix,
        "spectrum": {
            "eigenvalues": [float(v) for v in pairing["eigenvalues"][0]],
            "max_imag": float(pairing["max_imag"]),
            "paired": bool(np.all(pairing["paired"])),
            "distinct": int(pairing["distinct"][0]),
        },
    }


# ---- catalog -----------------------------------------------------------------

def catalog_report(n=2):
    """All catalog entries instantiated at a representative size; one
    that does not exist at size n is "not-available" with the reason, like
    a verify row that does not apply, and none at all is a RangeError."""
    entries = []
    for key, build in SYSTEMS.items():
        entries.append({"system": key.replace("_", "-")})
        try:
            s = build(n)
        except RangeError as exc:
            entries[-1].update(status="not-available", reason=str(exc))
            continue
        entries[-1].update({
            "title": s.title,
            "n": int(s.n),
            "m": int(s.m),
            "labels": list(s.labels),
            "box": {"lo": [float(v) for v in s.lo],
                    "hi": [float(v) for v in s.hi]},
            "pair": list(s.pair_names),
            "description": s.description,
            "closed_forms": sorted(s.extras),
        })
    if all("status" in e for e in entries):
        raise RangeError(f"no catalog system exists at n = {n!r}")
    return {"meta": {"command": "catalog", "n": int(n), "version": __version__},
            "systems": entries}


# ---- emitters ------------------------------------------------------------------

def render_report(report):
    """Stable JSON text: fixed key order, native types, trailing newline."""
    return json.dumps(report, indent=2) + "\n"


def trajectory_csv(traj, labels, monitors):
    """CSV text: t, chart coordinates, then monitor columns in given order;
    a row per record, each value the repr of its Python float."""
    table = np.column_stack([traj.times, traj.states] + [
        np.asarray(a, dtype=float) for a in monitors.values()])
    lines = [",".join(["t", *labels, *monitors])]
    # a row at a time: the whole table as Python floats at once raises the
    # peak RSS of a 2001-record flow by about 1 MB
    lines.extend(",".join(map(repr, row.tolist())) for row in table)
    return "\n".join(lines) + "\n"
