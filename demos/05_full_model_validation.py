"""Full five-level dynamics against the effective cross-Kerr picture.

Evolves the complete polarization-preserving Hamiltonian (atom + three
modes, no effective approximations) and reads the probe phase back out.
Two findings worth staring at:

* The phase the full model accumulates matches the dark-state root of the
  quintic (-e/d) to high precision, which is HALF the naive single-route
  Kerr coefficient: both drive legs stiffen the dark state.
* In the drive's linear basis the scheme splits exactly.  An H photon
  (drive-parallel) lives in the chain |1; H>, (|2> + |2'>)/sqrt(2), |3>,
  |4> and drives the probe; a V photon lives in the pair |1; V>,
  (|2> - |2'>)/sqrt(2), which the drive never links to |3>, so it is
  exactly probe-blind and keeps its own light shift.  A circular photon
  straddles both channels, and the 5x5 block model is exactly the H one.

Run as: python3 demos/05_full_model_validation.py
"""

from ppqnd import (
    PolarizationQubit,
    SchemeParams,
    chi_from_params,
    compare_block_to_full,
    estimate_eigenvalues,
    full_model_grid,
)

params = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.01, xi_p=1.0)
print(f"hierarchy ratios: {params.hierarchy_ratios()}  (all >= 100)")

print()
print("=" * 70)
print("1. Bright-channel probe phase vs the secular prediction")
print("=" * 70)
for n_p in (1, 2, 3):
    # t = 0.1 / |lambda| for the package's dark root lambda: target phase 0.1 rad
    (res,) = full_model_grid(params, [PolarizationQubit.horizontal()], target_phase=0.1, n_p=n_p)
    print(f"  n_p = {n_p}: measured {res.measured_phase:.9f} rad, secular prediction "
          f"{res.predicted_phase_secular:.9f}, rel err {res.rel_err_secular:.1e}, "
          f"atomic leakage {res.atomic_leakage:.1e}")

print()
print("=" * 70)
print("2. The factor of two against the single-route Kerr formula")
print("=" * 70)
lam = estimate_eigenvalues(params, 1, 0, 1).exact_small
(res,) = full_model_grid(params, [PolarizationQubit.horizontal()], target_phase=0.1, n_p=1)
print(f"  chi (single-route formula)     = {chi_from_params(params):+.3e}")
print(f"  quintic dark-state root / n_p  = {lam:+.3e}")
print(f"  measured / single-route prediction = "
      f"{res.measured_phase / res.predicted_phase_kerr:.4f}  (the five-level")
print("   scheme delivers half the N-scheme shift: two drive legs in d)")

print()
print("=" * 70)
print("3. The H and V channels, and circular inputs straddling both")
print("=" * 70)
qubits = {"H": PolarizationQubit.horizontal(), "V": PolarizationQubit.vertical(),
          "L": PolarizationQubit.left(), "R": PolarizationQubit.right()}
# one dark root, one stack of chains and pairs and one Jacobi call for all four
grid = full_model_grid(params, list(qubits.values()), target_phase=0.1, alpha_p=1.0)
for name, res in zip(qubits, grid):
    print(f"  |{name}> coherent-probe phase {res.measured_phase:+.9f} rad")
print("  H carries the phase, V none; L and R (identical: they differ only in")
print("  the sign of their V part) get arg((e^{i phi_H} + 1)/2), about half.")

report = compare_block_to_full(params, 1, 0, 1)
print(f"  block-model dark root:        {report['lambda_block']:+.3e}")
print(f"  full-model H channel:         {report['lambda_full']:+.3e} "
      f"(overlap {report['overlap']:.2f})")
print(f"  full-model V channel:         {report['lambda_full_second']:+.3e} "
      f"(overlap {report['overlap_second']:.2f})")
print("  An |L> photon splits evenly between the probe-coupled H channel and")
print("  the probe-blind V channel (light shift -xi_s^2/delta).  The")
print("  single-route 4-state block has one drive leg, so its dark root is")
print("  twice the H channel's; with both circular occupations set, the 5x5")
print("  block is the H channel plus an uncoupled 2-, exact to rounding:")
both = compare_block_to_full(params, 1, 1, 1)
print(f"  n_sL = n_sR = 1: block {both['lambda_block']:+.6e}, H channel "
      f"{both['lambda_full']:+.6e} (relative difference {both['relative_difference']:.0e})")
