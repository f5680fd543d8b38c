"""Conformal master symmetries and their graded relation families.

The coefficient laws are pinned on exact integers first; the family
defects are then driven on the spectral chain, where every member of the
symmetry family has a closed form to compare against.
"""

import numpy as np

from ladder_reference import hierarchy_bivector
from pnhier.fields import lie_der_bivector
from pnhier.hierarchy import Hierarchy, recursion_operator
from pnhier.master import (anomaly_defect, bivector_family_defect, coeff_h,
                           coeff_pi, coeff_z, commutator_family_defect,
                           conformal_defects, deformation_defect,
                           hamiltonian_family_defect, modular_family_defect)
from pnhier.modular import koszul_d
from pnhier.systems import make_system

LAM, MU, NU, ANCHOR = -1.0, 0.0, 1.0, 1


def tm_workspace(n=2, samples=14, seed=21):
    sys = make_system("toda_moser", n)
    x = sys.sample(samples=samples, seed=seed)
    jets = sys.jets(x)
    P0 = sys.pi0(jets)
    P1 = sys.pi1(jets)
    return sys, jets, P0, P1, recursion_operator(P0, P1)


def test_coefficient_laws_are_exact_integers():
    # with (lam, mu, nu, anchor) = (-1, 0, 1, 1): mu - lam = 1
    assert coeff_h(LAM, MU, NU, ANCHOR, 0, 1) == 1.0
    assert coeff_h(LAM, MU, NU, ANCHOR, 2, 3) == 5.0
    assert coeff_h(LAM, MU, NU, ANCHOR, -1, 2) == 1.0
    assert coeff_pi(LAM, MU, 0, 0) == -1.0
    assert coeff_pi(LAM, MU, 1, 1) == -1.0
    assert coeff_pi(LAM, MU, 2, 1) == -2.0
    assert coeff_pi(LAM, MU, 0, 3) == 2.0
    assert coeff_z(LAM, MU, 0, 2) == 2.0
    assert coeff_z(LAM, MU, 1, 1) == 0.0
    assert coeff_z(LAM, MU, 3, 1) == -2.0


def test_master_field_matches_closed_forms():
    sys, jets, P0, P1, N = tm_workspace()
    z_closed = sys.extras["z_closed"]
    Z0 = sys.extras["oevel"]["z0"](jets)
    hier = Hierarchy(P0, N, Z0)
    assert np.array_equal(hier.master(0).val, Z0.val)
    assert np.array_equal(hier.master(0).grad, Z0.grad)
    for i in (-2, -1, 1, 2):
        Zi = hier.master(i)
        want = z_closed(i)(jets)
        assert np.max(np.abs(Zi.val - want.val)) < 1e-13, i


def test_conformal_conditions_hold_on_the_chain():
    sys, jets, P0, P1, N = tm_workspace()
    Z0 = sys.extras["oevel"]["z0"](jets)
    ladder = Hierarchy(None, N).ladder(depth=1)
    d = conformal_defects(P0, P1, Z0, LAM, MU, NU, ladder[1])
    assert np.max(d["pi0"]) < 1e-14
    assert np.max(d["pi1"]) < 1e-14
    assert np.max(d["h"]) < 1e-14


def test_relation_families_close_on_the_chain():
    sys, jets, P0, P1, N = tm_workspace()
    Z0 = sys.extras["oevel"]["z0"](jets)
    ladder = Hierarchy(None, N).ladder(depth=6, neg_depth=6)
    rng3 = range(-3, 4)
    rng2 = range(-2, 3)
    d = hamiltonian_family_defect(Hierarchy(P0, N, Z0), ladder, LAM, MU, NU, ANCHOR,
                                  rng3, rng3)
    assert np.max(d) < 1e-11
    d = bivector_family_defect(Hierarchy(P0, N, Z0), LAM, MU, rng3, rng3)
    assert np.max(d) < 1e-11
    d = commutator_family_defect(Hierarchy(P0, N, Z0), LAM, MU, rng3, rng3)
    assert np.max(d) < 1e-11
    md = modular_family_defect(Hierarchy(P0, N, Z0), LAM, MU, rng2, rng2)
    assert np.max(md["bracket"]) < 1e-11
    assert np.max(md["exchange"]) < 1e-11


def test_anomaly_is_the_site_count():
    # Z_i(h_{-i}) is a constant: n * (mu - lam) = n on this chain
    for n in (2, 3):
        sys, jets, P0, P1, N = tm_workspace(n=n)
        Z0 = sys.extras["oevel"]["z0"](jets)
        ladder = Hierarchy(None, N).ladder(depth=3, neg_depth=3)
        d = anomaly_defect(Hierarchy(P0, N, Z0), ladder, float(n), range(-2, 3))
        assert np.max(d) < 1e-12
        # and the wrong constant is detected
        d = anomaly_defect(Hierarchy(P0, N, Z0), ladder, float(n) + 0.5,
                           range(-2, 3))
        assert np.min(d) > 0.4


def test_deformation_identity_in_two_volumes():
    for key, n in (("harmonic", 2), ("toda_moser", 3)):
        sys = make_system(key, n)
        x = sys.sample(samples=12, seed=31)
        jets = sys.jets(x)
        P0, P1 = sys.pi0(jets), sys.pi1(jets)
        Z = sys.extras["deformation_z"](jets)
        assert np.max(deformation_defect(P0, P1, Z)) < 1e-12
        lg = jets[0] * 0.4 + jets[1] * jets[-1] * 0.2
        assert np.max(deformation_defect(P0, P1, Z, logg=lg)) < 1e-12


def test_modular_family_respects_a_weighted_volume():
    # the exchange relation L_{X^i} pi_j = -L_{X^j} pi_i of
    # modular_family_defect, with every X^k taken in exp(lg) dx
    sys, jets, P0, P1, N = tm_workspace(n=2)
    lg = jets[0] * 0.3
    Pi = {k: hierarchy_bivector(P0, N, k) for k in range(0, 2)}
    X = {k: koszul_d(P, lg) for k, P in Pi.items()}
    worst = 0.0
    for i in Pi:
        for j in Pi:
            lhs = lie_der_bivector(X[i], Pi[j]).val
            rhs = -lie_der_bivector(X[j], Pi[i]).val
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-11
