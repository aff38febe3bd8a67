"""The quintic secular analysis of the five-level scheme.

Builds the single-excitation block matrix, checks the closed-form
coefficients against the exact characteristic polynomial, extracts all
five roots, and compares the perturbative estimates lambda_s = -e/d and
lambda_l = a against them across the hierarchy.

Run as: python3 demos/02_secular_quintic.py
"""

import numpy as np

from ppqnd import (
    SchemeParams,
    build_pp_block_matrix,
    char_poly_coefficients,
    estimate_eigenvalues,
    regime_scan,
    scan_to_csv_rows,
    secular_coefficients,
)

params = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.1, xi_p=1.0)
n_sl, n_sr, n_p = 1, 1, 1

print("=" * 70)
print("1. Closed-form coefficients vs the characteristic-polynomial oracle")
print("=" * 70)
closed = secular_coefficients(params, n_sl, n_sr, n_p)
block = build_pp_block_matrix(params, n_sl, n_sr, n_p)
oracle = char_poly_coefficients(block)
for name, x, y in zip("abcde", closed.as_tuple(), oracle.as_tuple()):
    rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
    print(f"  {name}: closed {x:+.6e}   oracle {y:+.6e}   rel diff {rel:.1e}")

print()
print("=" * 70)
print("2. All five roots, and the two perturbative estimates")
print("=" * 70)
est = estimate_eigenvalues(params, n_sl, n_sr, n_p)
print("exact roots:", ", ".join(f"{r:+.6e}" for r in est.exact_roots))
print(f"lambda_s = -e/d        = {est.lambda_small:+.6e}   rel err {est.rel_err_small:.2e}")
print(f"reduced closed form    = {est.lambda_small_reduced:+.6e}   rel err "
      f"{est.rel_err_small_reduced:.2e}")
print("  (the reduced form is the single-route/N-scheme value; the five-level")
print("   quintic has both drive legs in d, so -e/d sits at half of it)")
print(f"lambda_l = a = 2d+D    = {est.lambda_large:+.6e}   rel err {est.rel_err_large:.2e}")
print(f"trace dominated by largest root? {est.trace_dominated}")
print("  (with delta = Delta the trace spreads over three roots, so the")
print("   lambda_l estimate is flagged; push delta << Delta to make it work:)")
dominated = SchemeParams(1e6, 1e3, 1e2, 1.0, 10.0)
est_dom = estimate_eigenvalues(dominated, 1, 0, 1)
print(f"  delta=1e3, Delta=1e6: lambda_l rel err {est_dom.rel_err_large:.2e}, "
      f"dominated={est_dom.trace_dominated}")

print()
print("=" * 70)
print("3. Regime scan: estimate quality vs hierarchy ratio")
print("=" * 70)
points = []
for ratio in (10, 20, 40, 80, 160):
    omega = 100.0
    p = SchemeParams(ratio * omega, ratio * omega, omega, omega / ratio**2, omega / ratio)
    points.append((p, 1, 1, 1))
rows = regime_scan(points)
for ratio, row in zip((10, 20, 40, 80, 160), rows):
    print(f"  uniform ratio {ratio:4d}: lambda_s rel err {row.estimate.rel_err_small:.3e}")

print()
print("CSV emission (first two rows):")
for line in scan_to_csv_rows(rows)[:2]:
    print("  " + ",".join(line)[:100] + " ...")
