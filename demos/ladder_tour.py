"""A guided tour of one bi-hamiltonian ladder, in exact numbers.

Usage:  python3 demos/ladder_tour.py

Everything below happens on the spectral chart of the open Toda chain with
two sites, where every object of the theory has a closed form.  The script
builds the bivector pair, walks the hamiltonian ladder in both directions,
exhibits the modular vector field through its three independent routes, and
lets the conformal symmetry generate the whole family of scaling relations.
"""

import numpy as np

from pnhier.fields import hamiltonian_vf
from pnhier.hierarchy import (Hierarchy, involution_defect,
                              recursion_operator, spectral_pairing)
from pnhier.master import coeff_h, conformal_defects, evaluate
from pnhier.modular import koszul_d, modular_pair_defect_field, \
    pn_modular_field
from pnhier.report import probe_point
from pnhier.systems import make_system

system = make_system("toda_moser", 2)
x = probe_point(system)[None, :]
print(f"system: {system.title}, coordinates {system.labels}")
print(f"probe point: {x[0]}")

jets = system.jets(x)
P0 = system.pi0(jets)
P1 = system.pi1(jets)
N = recursion_operator(P0, P1)
Z0 = system.extras["oevel"]["z0"](jets)
hier = Hierarchy(P0, N, Z0)   # every ladder object below, each built once

print("\nthe recursion operator at the probe point is diagonal:")
print(np.round(N.val[0], 12))

print("\nhamiltonian ladder h_i (trace ladder of N, log-route at i=0):")
ladder = hier.ladder(depth=4, neg_depth=2)
for i in sorted(ladder):
    print(f"  h_{i:+d} = {ladder[i].val[0]:+.15g}")

print("\nspectrum doubling (each eigenvalue appears once per chart leg):")
rep = spectral_pairing(N)
print(f"  eigenvalues {np.round(rep['eigenvalues'][0], 12)}, "
      f"paired={bool(rep['paired'][0])}, distinct={int(rep['distinct'][0])}")

print("\nall ladder invariants are in involution in BOTH brackets:")
print(f"  max |{{h_i, h_j}}| over the ladder = "
      f"{float(np.max(involution_defect(P0, P1, ladder))):.3e}")

print("\nthe modular vector field, three ways (they must agree):")
direct = pn_modular_field(P0, N)
pair = modular_pair_defect_field(P0, P1, N)
ham = hamiltonian_vf(P0, hier.hamiltonian(1) * (-1.0))
print(f"  contraction route      {np.round(direct.val[0], 12)}")
print(f"  pair route X^1 - N X^0 {np.round(pair.val[0], 12)}")
print(f"  hamiltonian route      {np.round(ham.val[0], 12)}")

print("\nweighted volumes shift each member but not the pair route:")
lg = jets[0]  # log-density = first coordinate
x0w = koszul_d(P0, lg)
print(f"  X^0 in the weighted volume   {np.round(x0w.val[0], 12)}")
print(f"  pair route, weighted volume  "
      f"{np.round(modular_pair_defect_field(P0, P1, N, lg).val[0], 12)}")

print("\nthe conformal symmetry rescales the pair and climbs the ladder:")
conf = conformal_defects(P0, P1, Z0, -1.0, 0.0, 1.0, ladder[1])
print(f"  conformal defects: pi0 {float(np.max(conf['pi0'])):.2e}, "
      f"pi1 {float(np.max(conf['pi1'])):.2e}, "
      f"h {float(np.max(conf['h'])):.2e}")
print("  Z_i(h_j) against the coefficient law:")
for i in (-1, 0, 1):
    Zi = hier.master(i)
    for j in (1, 2):
        got = evaluate(Zi, ladder[j]).val[0]
        if i + j == 0:
            # the law degenerates here: Z_i(h_{-i}) is the constant anomaly,
            # the number of sites on this chain
            print(f"    Z_{i:+d}(h_{j}) = {got:+.12g}   "
                  f"(anomaly: site count n = {system.n})")
            continue
        want = coeff_h(-1.0, 0.0, 1.0, 1, i, j) * ladder[i + j].val[0]
        print(f"    Z_{i:+d}(h_{j}) = {got:+.12g}   "
              f"coeff * h_{i+j:+d} = {want:+.12g}")
