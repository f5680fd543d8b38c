"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line with the measured numbers, then
asserts.  The catalog grid used throughout is the full supported range of
each system; sampling is seeded, so every number here is reproducible.
"""

import json
import time

import numpy as np
import pytest

import polyjets as pj
from ladder_reference import hierarchy_hamiltonian
from pnhier.cli import main as cli_main
from pnhier.dynamics import integrate, lax_eigenvalues, rk4
from pnhier.dynamics import hamiltonian_flow_rhs, hierarchy_monitors
from pnhier.fields import (antisymmetry_defect, differential, evaluate,
                           hamiltonian_vf, jacobi_defect, lie_bracket,
                           lie_der_bivector, per_sample, pn_compat_defect,
                           scalar_mul, schouten_bf, sharp, torsion_defect,
                           wedge_vb, wedge_vv)
from pnhier.hierarchy import (Hierarchy, commuting_flows_defect,
                              cotangent_ladder_defect, involution_defect,
                              lenard_defect, recursion_operator)
from pnhier.jets import jmatvec, jtrace, jmatpow
from pnhier.master import (bivector_family_defect, commutator_family_defect,
                           conformal_defects, deformation_defect,
                           hamiltonian_family_defect, modular_family_defect)
from pnhier.modular import (koszul_d, modular_pair_defect_field,
                            pn_modular_field)
from pnhier.report import probe_point, render_report, verify_report
from pnhier.systems import make_system

GRID = (("harmonic", 1), ("harmonic", 2), ("harmonic", 4),
        ("calogero", 2), ("calogero", 3),
        ("toda_moser", 2), ("toda_moser", 3), ("toda_moser", 4),
        ("cn_toda", 2), ("cn_toda", 3),
        ("an_toda", 2), ("an_toda", 3), ("an_toda", 4))

SAMPLES, SEED = 100, 42


def gate(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def workspace(key, n, samples=SAMPLES, seed=SEED):
    sys = make_system(key, n)
    x = sys.sample(samples=samples, seed=seed)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    return sys, x, jets, P0, P1, recursion_operator(P0, P1)


def test_structure_suite_on_the_full_grid():
    t0 = time.monotonic()
    worst = 0.0
    for key, n in GRID:
        _, _, _, P0, P1, N = workspace(key, n)
        for d in (jacobi_defect(P0), jacobi_defect(P1),
                  antisymmetry_defect(P0), antisymmetry_defect(P1),
                  torsion_defect(N), pn_compat_defect(P0, N)):
            worst = max(worst, float(np.max(d)))
    elapsed = time.monotonic() - t0
    gate(worst < 1e-8 and elapsed < 60.0, "structure suite",
         f"worst defect {worst:.3e} (tol 1e-8) over {len(GRID)} configs, "
         f"{SAMPLES} points each, {elapsed:.1f}s (< 60s)")


def test_modular_field_equals_the_trace_hamiltonian():
    worst = 0.0
    for key, n in GRID:
        _, _, _, P0, P1, N = workspace(key, n)
        direct = pn_modular_field(P0, N)
        trace_route = hamiltonian_vf(P0, hierarchy_hamiltonian(N, 1) * (-1.0))
        logdet_route = hamiltonian_vf(P1, hierarchy_hamiltonian(N, 0) * (-1.0))
        worst = max(worst,
                    float(np.max(np.abs(direct.val - trace_route.val))),
                    float(np.max(np.abs(direct.val - logdet_route.val))))
    sys, x, jets, P0, P1, N = workspace("harmonic", 1)
    closed = np.stack([-x[:, 1], x[:, 0]], axis=1)
    ho = float(np.max(np.abs(pn_modular_field(P0, N).val - closed)))
    gate(worst < 1e-8 and ho < 1e-10, "modular field routes",
         f"worst route split {worst:.3e} (tol 1e-8); "
         f"planar closed form (-p, q) off by {ho:.3e} (tol 1e-10)")


def test_ladder_identities_to_depth_four():
    worst_ladder = worst_inv = worst_comm = 0.0
    for key, n in GRID:
        sys, _, _, P0, P1, N = workspace(key, n)
        neg = int(sys.extras.get("neg_depth", 0))
        ladder = Hierarchy(None, N).ladder(depth=4, neg_depth=neg)
        worst_ladder = max(worst_ladder,
                           float(np.max(cotangent_ladder_defect(N, ladder))),
                           float(np.max(lenard_defect(Hierarchy(P0, N), ladder))))
        worst_inv = max(worst_inv,
                        float(np.max(involution_defect(P0, P1, ladder))))
        worst_comm = max(worst_comm,
                         float(np.max(commuting_flows_defect(P0, ladder))))
    gate(worst_ladder < 1e-8 and worst_inv < 1e-8 and worst_comm < 1e-7,
         "hierarchy ladder",
         f"ladder defect {worst_ladder:.3e} (tol 1e-8), involution "
         f"{worst_inv:.3e} (tol 1e-8), commuting flows {worst_comm:.3e} "
         f"(tol 1e-7), depth 4, negative indices where defined")


def test_modular_identities_on_random_multivectors():
    rng = np.random.default_rng(SEED)
    worst_koszul = 0.0
    for trial in range(200):
        m = int(rng.integers(2, 7))
        x = rng.uniform(-0.7, 0.7, size=(6, m))
        P = pj.random_bivector(rng, m).jet(x)
        T = pj.random_trivector(rng, m).jet(x)
        lg = (None if trial % 3 == 0
              else pj.random_scalar(rng, m).jet(x))
        for A in (P, T):
            dd = koszul_d(koszul_d(A, lg), lg)
            worst_koszul = max(worst_koszul, float(np.max(np.abs(dd.val))))
        X = pj.random_vector(rng, m).jet(x)
        Y = pj.random_vector(rng, m).jet(x)
        f = pj.random_scalar(rng, m).jet(x)
        D = lambda A: koszul_d(A, lg)
        pairs = (
            (lie_bracket(X, Y).val,
             (-D(wedge_vv(X, Y)) - scalar_mul(D(X), Y)
              + scalar_mul(D(Y), X)).val),
            (lie_der_bivector(X, P).val,
             (D(wedge_vb(X, P)) - scalar_mul(D(X), P)
              - wedge_vv(X, D(P))).val),
            (schouten_bf(P, f).val, (D(scalar_mul(f, P))
                                     - scalar_mul(f, D(P))).val),
            (evaluate(X, f).val, (D(scalar_mul(f, X)) - f * D(X)).val),
        )
        for lhs, rhs in pairs:
            worst_koszul = max(worst_koszul, float(np.max(np.abs(lhs - rhs))))

    worst_mu = worst_change = 0.0
    for key, n in GRID[:5]:
        sys, _, jets, P0, P1, N = workspace(key, n)
        lgs = [None, jets[0], jets[0] * jets[-1] * 0.5 + jets[1] * 0.25]
        routes = [modular_pair_defect_field(P0, P1, N, lg).val for lg in lgs]
        for i in range(3):
            for j in range(i + 1, 3):
                worst_mu = max(worst_mu,
                               float(np.max(np.abs(routes[i] - routes[j]))))
        for P in (P0, P1):
            base = koszul_d(P)
            for lg in lgs[1:]:
                lhs = koszul_d(P, lg)
                rhs = base - hamiltonian_vf(P, lg)
                worst_change = max(worst_change,
                                   float(np.max(np.abs(lhs.val - rhs.val))))
    gate(worst_koszul < 1e-8 and worst_mu < 1e-9 and worst_change < 1e-9,
         "modular identities",
         f"Koszul square+derivation {worst_koszul:.3e} (tol 1e-8, 200 random "
         f"pairs, m<=6); density-independence {worst_mu:.3e} (tol 1e-9, 3 "
         f"densities); density-change law {worst_change:.3e} (tol 1e-9)")


def test_spectral_chain_closed_forms():
    worst = 0.0
    for n in (2, 3):
        sys, x, jets, P0, P1, N = workspace("toda_moser", n)
        lam, r = x[:, :n], x[:, n:]
        z0 = sys.extras["oevel"]["z0"](jets)
        hier = Hierarchy(P0, N, z0)

        x0 = koszul_d(P0)
        want = np.concatenate([np.ones_like(lam), np.zeros_like(r)], axis=1)
        worst = max(worst, float(np.max(np.abs(x0.val - want))))

        x1 = koszul_d(P1)
        want = np.concatenate([lam, -r], axis=1)
        worst = max(worst, float(np.max(np.abs(x1.val - want))))

        z1 = hier.master(1)
        zdef = sys.extras["deformation_z"](jets)
        worst = max(worst, float(np.max(np.abs(z1.val + 2.0 * zdef.val))))

        divz = koszul_d(zdef)
        worst = max(worst, float(np.max(np.abs(
            divz.val + np.sum(lam, axis=1)))))

        lhs = x1 - jmatvec(N, hier.master(-1))
        rhs = hamiltonian_vf(P1, hierarchy_hamiltonian(N, 0) * (-1.0))
        worst = max(worst, float(np.max(np.abs(lhs.val - rhs.val))))
        want = np.concatenate([np.zeros_like(lam), -r], axis=1)
        worst = max(worst, float(np.max(np.abs(lhs.val - want))))
    gate(worst < 1e-10, "spectral-chain closed forms",
         f"worst deviation {worst:.3e} (tol 1e-10) across modular fields, "
         f"scaled symmetry, divergence, and the bi-hamiltonian remainder")


def test_conformal_symmetry_scheme():
    lam_c, mu_c, nu_c, anchor = -1.0, 0.0, 1.0, 1
    sys, x, jets, P0, P1, N = workspace("toda_moser", 2)
    Z0 = sys.extras["oevel"]["z0"](jets)
    ladder = Hierarchy(None, N).ladder(depth=6, neg_depth=6)
    conf = conformal_defects(P0, P1, Z0, lam_c, mu_c, nu_c, ladder[1])
    worst_conf = max(float(np.max(v)) for v in conf.values())
    rng3 = range(-3, 4)
    worst_fam = max(
        float(np.max(hamiltonian_family_defect(
            Hierarchy(P0, N, Z0), ladder, lam_c, mu_c, nu_c, anchor, rng3, rng3))),
        float(np.max(bivector_family_defect(Hierarchy(P0, N, Z0), lam_c, mu_c,
                                            rng3, rng3))),
        float(np.max(commutator_family_defect(Hierarchy(P0, N, Z0), lam_c, mu_c,
                                              rng3, rng3))))
    worst_def = 0.0
    for key, n in (("toda_moser", 2), ("toda_moser", 3), ("harmonic", 2)):
        s2, x2, j2, Q0, Q1, _ = workspace(key, n)
        Z = s2.extras["deformation_z"](j2)
        worst_def = max(worst_def,
                        float(np.max(deformation_defect(Q0, Q1, Z))),
                        float(np.max(deformation_defect(
                            Q0, Q1, Z, logg=j2[0]))))
    gate(worst_conf < 1e-10 and worst_fam < 1e-8 and worst_def < 1e-9,
         "conformal symmetry scheme",
         f"conformal defects {worst_conf:.3e} (tol 1e-10); relation families "
         f"|i|,|j|<=3 {worst_fam:.3e} (tol 1e-8); deformation identity "
         f"{worst_def:.3e} (tol 1e-9)")


def test_doubled_chain_identities():
    worst_biham = worst_eigen = worst_eom = 0.0
    for n in (2, 3):
        sys, x, jets, P0, P1, N = workspace("cn_toda", n, samples=60)
        lad0 = hierarchy_hamiltonian(N, 0)
        h2 = sys.extras["h2_closed"](jets)
        lhs = sharp(P1, differential(lad0))
        rhs = sharp(P0, differential(h2))
        worst_biham = max(worst_biham,
                          float(np.max(np.abs(lhs.val - rhs.val))))

        # eigen-derivative route: solve d(tr N^k) = sum_i 4k lam_i^{2k-1} dlam_i
        L = sys.extras["lax_np"](x)
        lam = lax_eigenvalues(L)[:, -n:]  # positive half of the +/- spectrum
        G = np.stack([jtrace(jmatpow(N, k)).grad for k in range(1, n + 1)],
                     axis=1)
        ks = np.arange(1, n + 1, dtype=float)
        M = 4.0 * ks[None, :, None] * lam[:, None, :] ** (2.0 * ks[None, :, None] - 1.0)
        dlam = np.linalg.solve(M, G)  # (B, n, m): rows are dlam_i covectors
        for i in range(n):
            a = dlam[:, i, :]
            flow3 = np.einsum('bji,bj->bi', P1.val, a)
            flow1 = np.einsum('bji,bj->bi', P0.val, a)
            d = np.abs(flow3 - lam[:, i, None] ** 2 * flow1)
            worst_eigen = max(worst_eigen, float(np.max(d)))

        eng = hamiltonian_vf(P0, h2)
        printed = sys.extras["printed_flow"](jets)
        scale = sys.extras["flow_scale"]
        worst_eom = max(worst_eom, float(np.max(np.abs(
            eng.val - scale * printed.val))))
    gate(worst_biham < 1e-8 and worst_eigen < 1e-7 and worst_eom < 1e-10,
         "doubled-chain identities",
         f"bi-hamiltonian crossing {worst_biham:.3e} (tol 1e-8); eigenvalue "
         f"recursion {worst_eigen:.3e} (tol 1e-7); printed equations of "
         f"motion {worst_eom:.3e} (tol 1e-10)")


def test_integrated_flows_conserve_the_ladder():
    sys = make_system("an_toda", 4)
    rhs = hamiltonian_flow_rhs(sys, index=2)
    traj = integrate(rhs, probe_point(sys), t_end=10.0, method="rk4",
                     dt=1e-3, record_every=100, guard=sys.domain_ok)
    assert traj.truncated is None
    mon = hierarchy_monitors(sys, traj.states, depth=2)
    h2_drift = float(np.max(np.abs(mon["h_2"] - mon["h_2"][0])))
    ev = lax_eigenvalues(sys.extras["lax_np"](traj.states))
    lax_drift = float(np.max(np.abs(ev - ev[0])))

    ho = make_system("harmonic", 1)
    rhs = hamiltonian_flow_rhs(ho, index=1)
    x0 = probe_point(ho)
    period = rk4(rhs, x0, t_end=2.0 * np.pi, dt=1e-3, record_every=10**9)
    period_err = float(np.max(np.abs(period.states[-1] - x0)))

    tm = make_system("toda_moser", 2)
    rhs = hamiltonian_flow_rhs(tm, index=1)
    x0 = probe_point(tm)
    traj_tm = rk4(rhs, x0, t_end=1.0, dt=1e-3, guard=tm.domain_ok)
    want = np.concatenate([x0[:2], x0[2:] * np.e])
    tm_err = float(np.max(np.abs(traj_tm.states[-1] - want)))

    rot = lambda t, x: np.array([x[1], -x[0]])
    errs = []
    for dt in (0.2, 0.1, 0.05):
        end = rk4(rot, np.array([1.0, 0.0]), t_end=2.0, dt=dt).states[-1]
        errs.append(np.max(np.abs(end - [np.cos(2.0), -np.sin(2.0)])))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])

    ok = (h2_drift < 1e-8 and lax_drift < 1e-6 and period_err < 1e-7
          and tm_err < 1e-9 and all(12.0 <= r <= 20.0 for r in ratios))
    gate(ok, "integrated flows",
         f"lattice h_2 drift {h2_drift:.3e} (tol 1e-8), Lax drift "
         f"{lax_drift:.3e} (tol 1e-6) over t=10; oscillator period return "
         f"{period_err:.3e} (tol 1e-7); spectral-chain growth "
         f"{tm_err:.3e} (tol 1e-9); rk4 halving ratios "
         f"{ratios[0]:.2f}/{ratios[1]:.2f} (in [12,20])")


def test_controls_catch_a_broken_operator(capsys):
    weakest = np.inf
    for key, n in GRID:
        rep = verify_report(make_system(key, n), samples=SAMPLES, seed=SEED,
                            checks=["control"])
        for row in rep["checks"]:
            weakest = min(weakest, row["max_abs_defect"])
            assert row["pass"] is True, row
    code = cli_main(["verify", "--system", "harmonic", "--samples", "20",
                     "--tol", "1e-16"])
    capsys.readouterr()
    gate(weakest > 1e-5 and code == 1, "failure controls",
         f"perturbed operator defect >= {weakest:.3e} (floor 1e-5) on every "
         f"config; impossible tolerance exits {code} (want 1)")


def test_reports_are_byte_identical(capsys):
    argv = ["verify", "--system", "cn-toda", "--n", "2", "--samples", "40"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    api = render_report(verify_report(make_system("cn_toda", 2),
                                      samples=40, seed=SEED))
    api2 = render_report(verify_report(make_system("cn_toda", 2),
                                       samples=40, seed=SEED))
    ok = code1 == code2 == 0 and out1 == out2 and api == api2 and out1 == api
    gate(ok, "determinism",
         f"two CLI runs byte-identical: {out1 == out2}; API render "
         f"byte-identical: {api == api2}; CLI matches API: {out1 == api} "
         f"({len(out1)} bytes)")
