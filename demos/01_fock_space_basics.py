"""Tour of the Fock-space core: spaces, operators, states, evolution.

Run as: python3 demos/01_fock_space_basics.py
"""

import numpy as np

from ppqnd import (
    annihilation_op,
    basis_state,
    coherent_state,
    coherent_truncation_loss,
    default_cutoff,
    evolve,
    fidelity,
    hermitian_eig,
    make_space,
    number_op,
    partial_trace,
    qnd_hamiltonian,
    tensor_state,
)

print("=" * 70)
print("1. Composite spaces: one atom factor + truncated bosonic modes")
print("=" * 70)
space = make_space(5, [2, 2, 3])
print(f"atom_dim=5, cutoffs (2, 2, 3) -> total dimension {space.total_dim}")
lvl, occ = space.unpack(37)
print(f"basis index 37 unpacks to atom level {lvl}, occupations {occ}")
print(f"and packs back to index {space.index_of(lvl, occ)}")

print()
print("=" * 70)
print("2. Ladder operators respect the truncation")
print("=" * 70)
mode_space = make_space(1, [4])
a = annihilation_op(mode_space, 0)
for n in range(4):
    ket = basis_state(mode_space, 0, [n])
    out = a.matrix @ ket.amplitudes
    print(f"a|{n}> has norm {np.linalg.norm(out):.6f} (sqrt({n}) = {np.sqrt(n):.6f})")

print()
print("=" * 70)
print("3. Coherent states and the truncation policy")
print("=" * 70)
alpha = 2.0
cutoff = default_cutoff(alpha)
print(f"alpha = {alpha}: policy cutoff = {cutoff}")
print(f"truncation loss there: {coherent_truncation_loss(cutoff, alpha):.3e}")
probe = coherent_state(cutoff, alpha)
n_op = number_op(probe.space, 0)
print(f"<n> = {probe.expectation(n_op).real:.12f}  (Poisson mean |alpha|^2 = {alpha**2})")

print()
print("=" * 70)
print("4. Unitary evolution: exact phases at long times")
print("=" * 70)
h = qnd_hamiltonian(-0.05, 2, cutoff)
joint = tensor_state(h.space, 0, [np.array([0.0, 1.0]), probe.amplitudes])
evolved = evolve(h, joint, t=4.0)  # probe picks up e^{+i 0.2} per photon
rho_probe = partial_trace(evolved, keep=[1])  # straight from the amplitudes
rotated = coherent_state(cutoff, alpha * np.exp(0.2j))
print(f"norm after evolution: {np.linalg.norm(evolved.amplitudes):.15f}")
print(f"fidelity of reduced probe with the rotated coherent state: "
      f"{fidelity(rotated, rho_probe):.15f}")

print()
print("=" * 70)
print("5. Spectra: hermitian_eig returns ascending eigenvalues")
print("=" * 70)
w, v = hermitian_eig(h)
print(f"QND Hamiltonian eigenvalues range: [{w[0]:.4f}, {w[-1]:.4f}]")
print(f"eigenvector orthonormality defect: "
      f"{np.max(np.abs(v.conj().T @ v - np.eye(len(w)))):.2e}")
