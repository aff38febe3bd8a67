"""Cross-Kerr QND measurement: phase writing and homodyne readout.

A signal Fock state rotates a coherent probe by n_s * |chi| * t without
ever exchanging energy with it; the homodyne quadratures of the probe then
reveal n_s.  The back-action budget obeys the number-phase product 1/4.

Run as: python3 demos/03_qnd_homodyne_readout.py
"""

import numpy as np

from ppqnd import backaction_product, discrimination_error, evolve_qnd

chi, t, alpha = -0.05, 2.0, 3.0
print("=" * 70)
print(f"1. Probe phase vs signal photon number (chi t = {chi * t}, alpha = {alpha})")
print("=" * 70)
for n_s in range(4):
    res = evolve_qnd(n_s, alpha, chi, t)
    r = res.readout
    print(f"  n_s = {n_s}: phase shift {r.phase_shift:+.6f} rad, inferred n_s = "
          f"{r.inferred_n_s}, probe fidelity with rotated state {res.probe_fidelity:.12f}")
print("  (signal photon distribution is untouched: that is the QND property)")

print()
print("=" * 70)
print("2. Quadrature statistics at different local-oscillator phases")
print("=" * 70)
res = evolve_qnd(2, alpha, chi, t)
from ppqnd import partial_trace
rho_p = partial_trace(res.state, keep=[1])
from ppqnd import homodyne_estimate
for lo in (0.0, 0.1, 0.2, np.pi / 2):
    r = homodyne_estimate(rho_p, lo)
    print(f"  LO phase {lo:5.3f}: <X> = {r.quadrature_mean:+.6f}, "
          f"Var(X) = {r.quadrature_variance:.6f}")
print("  (coherent-state variance stays 1/4 in every quadrature)")

print()
print("=" * 70)
print("3. Discriminating n_s = 0 from n_s = 1 by midpoint threshold")
print("=" * 70)
theta = abs(chi) * t
for mag in (1.0, 2.0, 4.0, 8.0):
    res = discrimination_error(mag, theta, trials=20000, seed=7)
    print(f"  alpha = {mag:4.1f}: Monte Carlo error {res.mc_error:.4f}, "
          f"analytic {res.analytic_error:.4f} (+- {res.std_error:.4f})")
print("  (error falls as the rotated probe blobs separate: d = 2 alpha sin(theta/2))")

print()
print("=" * 70)
print("4. Back-action budget: number variance x phase variance = 1/4")
print("=" * 70)
for mag in (1.0, 2.0, 5.0):
    rep = backaction_product(mag)
    print(f"  alpha = {mag}: Var(n) = {rep.number_variance:9.4f}, "
          f"Var(phase) = {rep.phase_variance:.6f}, product = {rep.product:.9f}")
print("  (independent dephasing route recovers Var(n):",
      f"{backaction_product(2.0).number_variance_from_dephasing:.4f} at alpha = 2)")
