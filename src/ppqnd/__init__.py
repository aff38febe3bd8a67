"""Cross-Kerr QND photodetection toolkit.

Dense Fock-space simulation of coherence-induced cross-Kerr
nonlinearities: level-scheme Hamiltonians (Lambda, N-type, and the
five-level polarization-preserving scheme), the quintic secular analysis
of the perturbed dark state, QND homodyne readout, polarization-basis
invariance checks, and measurement back-action budgets.
"""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateVector,
    annihilation_op,
    atom_transition_op,
    basis_state,
    coherent_state,
    coherent_truncation_loss,
    creation_op,
    default_cutoff,
    evolve,
    fidelity,
    hermitian_eig,
    make_space,
    number_op,
    partial_trace,
    tensor_state,
)
from .polarization import (
    PolarizationQubit,
    PolUnitary,
    check_invariance,
    diagonal_invariance,
    lift_unitary,
    lr_to_hv,
    stokes_vector,
)
from .qnd import (
    BackactionReport,
    DephasingGrid,
    DephasingResult,
    DiscriminationResult,
    FullVsEffectiveResult,
    ProbeReadout,
    QndEvolution,
    backaction_product,
    dephasing_grid,
    discrimination_error,
    evolve_qnd,
    full_vs_effective,
    homodyne_estimate,
    polarization_dephasing,
)
from .schemes import (
    PPBlockMatrix,
    SchemeParams,
    build_lambda_hamiltonian,
    build_n_hamiltonian,
    build_pp_block_matrix,
    build_pp_hamiltonian,
    chi_from_params,
    compare_block_to_full,
    lambda_dark_state,
    pp_mirror_permutation,
    ppqnd_energies,
    ppqnd_hamiltonian,
    qnd_hamiltonian,
    sensitive_qnd_hamiltonian,
)
from .secular import (
    EigenEstimate,
    ScanRow,
    SecularCoefficients,
    char_poly_coefficients,
    char_poly_from_eigenvalues,
    estimate_eigenvalues,
    estimate_stack,
    lambda_large,
    lambda_small,
    lambda_small_closed_form,
    middle_quartic_roots,
    quintic_roots,
    ScanSummary,
    regime_scan,
    scan_to_csv_rows,
    summarize_regime_scan,
    secular_coefficients,
)

__all__ = [name for name in dir() if not name.startswith("_")]
