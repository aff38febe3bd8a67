"""Cross-Kerr QND measurement simulation and back-action analysis.

The measurement chain: a signal Fock state and a coherent probe evolve
under chi * n_s * n_p, the probe picks up a phase n_s * chi * t, and a
homodyne measurement of the probe quadrature reads that phase out without
touching the signal photon number.

All evolution is exp(-i H t) (hbar = 1).  With that sign a positive-chi
interaction rotates the probe by -chi * n_s * t; readouts report signed
phases together with the convention tag so no silent sign flip can hide.

Quadrature convention: X_theta = (a e^{-i theta} + a^+ e^{i theta}) / 2,
so an ideal coherent state has quadrature variance 1/4.

The polarization check runs over a grid of qubits x times in one pass
(dephasing_grid): the effective H is diagonal, so every qubit's reduced
state is (c c^+) o G(t), with one 4 x 4 probe Gram matrix G(t) per time
shared by all qubits, and no joint state or partial trace is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    DensityMatrix,
    StateVector,
    _check_density,
    _check_unitarity,
    _coherent_amplitudes,
    _evolve_diagonal,
    _evolve_sectors,
    _occupations,
    _readonly,
    coherent_state,
    default_cutoff,
    make_space,
)
from .polarization import PolarizationQubit
from .schemes import (SchemeParams, _pp_components, _qnd_energies, chi_from_params,
                      ppqnd_energies)
from .secular import estimate_eigenvalues

__all__ = [
    "EVOLUTION_SIGN",
    "QUADRATURE_CONVENTION",
    "ProbeReadout",
    "QndEvolution",
    "DiscriminationResult",
    "BackactionReport",
    "DephasingResult",
    "DephasingGrid",
    "FullVsEffectiveResult",
    "homodyne_estimate",
    "evolve_qnd",
    "discrimination_error",
    "backaction_product",
    "polarization_dephasing",
    "dephasing_grid",
    "full_vs_effective",
]

EVOLUTION_SIGN = "exp(-iHt)"
QUADRATURE_CONVENTION = "X_theta = (a e^{-i theta} + a^+ e^{i theta})/2; coherent variance 1/4"

_PHASE_DEFINED_TOL = 1e-12


@dataclass(frozen=True)
class ProbeReadout:
    """Homodyne summary of a single probe mode.

    phase_shift and inferred_n_s are None when <a> vanishes (phase
    undefined, e.g. for Fock states).
    """

    phase_shift: float | None
    quadrature_mean: float
    quadrature_variance: float
    inferred_n_s: int | None
    lo_phase: float


def _mean_a(m: np.ndarray) -> complex:
    """<a> of the last factor of a pure state with amplitude rows m[k, n]:
    sum_kn sqrt(n) m*[k, n-1] m[k, n]."""
    return complex(np.vdot(m[:, :-1], np.sqrt(np.arange(1, m.shape[1])) * m[:, 1:]))


def _pure_readout(m: np.ndarray, lo_phase: float, phase_per_photon: float | None,
                  phase_reference: float) -> ProbeReadout:
    """homodyne_estimate of a probe in a pure joint state, from its amplitudes.

    m[k, n] is the amplitude of |k> (x) |n>, with the probe photon number n
    last and every other factor flattened into k (one row for a lone
    probe).  The truncated a and a^+ act on the rows as shifts weighted by
    sqrt(n), so <a> is a sum over neighbouring amplitudes and the variance
    is |(X - <X>) m|^2, a sum of squares: X is Hermitian on the truncated
    space, and X X is exactly the truncated matrix product of the dense
    route.
    """
    root = np.sqrt(np.arange(1, m.shape[1]))
    lowered = np.zeros_like(m)
    lowered[:, :-1] = root * m[:, 1:]  # a m
    raised = np.zeros_like(m)
    raised[:, 1:] = root * m[:, :-1]  # a^+ m
    mean_a = _mean_a(m)
    rot = cmath.exp(-1j * lo_phase)
    mean_x = (mean_a * rot).real
    centered = 0.5 * (rot * lowered + rot.conjugate() * raised) - mean_x * m
    variance = float(np.vdot(centered, centered).real)
    return _readout(mean_a, mean_x, variance, lo_phase, phase_per_photon, phase_reference)


def _mixed_readout(rho: np.ndarray, lo_phase: float, phase_per_photon: float | None,
                   phase_reference: float) -> ProbeReadout:
    """homodyne_estimate of a single-mode density matrix, from its sub-diagonals.

    tr(rho a) = sum_n sqrt(n) rho[n, n-1] runs along the first
    sub-diagonal and tr(rho a^2) along the second, so with
    X = (a e^{-i theta} + a^+ e^{i theta}) / 2,
    <X^2> = (2 Re(e^{-2i theta} <a^2>) + <a^+ a> + <a a^+>) / 4, where on
    cutoff c a^+ a = diag(0, ..., c-1) and a a^+ = diag(1, ..., c-1, 0), not
    a^+ a + 1.
    """
    root = np.sqrt(np.arange(1, len(rho)))
    pop = np.diagonal(rho).real
    mean_a = complex(root @ np.diagonal(rho, -1))
    mean_a2 = complex((root[:-1] * root[1:]) @ np.diagonal(rho, -2))
    number_terms = float((pop[1:] + pop[:-1]) @ root ** 2)  # <a^+ a> + <a a^+>
    rot = cmath.exp(-1j * lo_phase)
    mean_x = (mean_a * rot).real
    variance = (2 * (mean_a2 * rot * rot).real + number_terms) / 4 - mean_x ** 2
    return _readout(mean_a, mean_x, variance, lo_phase, phase_per_photon, phase_reference)


def _readout(mean_a: complex, mean_x: float, variance: float, lo_phase: float,
             phase_per_photon: float | None, phase_reference: float) -> ProbeReadout:
    """The phase estimate arg<a> and the inferred photon number around the moments."""
    if abs(mean_a) <= _PHASE_DEFINED_TOL:
        return ProbeReadout(None, mean_x, variance, None, lo_phase)
    shift = _wrap_angle(cmath.phase(mean_a) - phase_reference)
    inferred = None
    if phase_per_photon is not None and phase_per_photon != 0:
        inferred = max(0, round(shift / phase_per_photon))
    return ProbeReadout(shift, mean_x, variance, inferred, lo_phase)


def homodyne_estimate(state: StateVector | DensityMatrix, lo_phase: float,
                      phase_per_photon: float | None = None,
                      phase_reference: float = 0.0) -> ProbeReadout:
    """Quadrature statistics of X_lo_phase plus a phase estimate arg<a>.

    No dense operator is built: the truncated a and a^+ act through the
    ladder structure of the state's space, as shifts of neighbouring
    amplitudes for a StateVector and as sums along the sub-diagonals for
    a DensityMatrix.  No commutator identity is assumed across the
    truncation boundary: the a a^+ in X^2 is diag(1, ..., c-1, 0) on cutoff
    c, exactly the product of the truncated matrices.  phase_shift is
    arg<a> minus phase_reference, wrapped to (-pi, pi].  When
    phase_per_photon is given (the signed probe rotation per signal
    photon), the photon number is inferred by rounding
    phase_shift / phase_per_photon, clamped below at zero.
    """
    space = state.space
    if space.n_modes != 1 or space.atom_dim != 1:
        raise ValueError("homodyne readout expects a single-mode state")
    if isinstance(state, StateVector):
        return _pure_readout(state.amplitudes[None, :], lo_phase, phase_per_photon,
                             phase_reference)
    return _mixed_readout(state.matrix, lo_phase, phase_per_photon, phase_reference)


def _wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.remainder(x, 2 * math.pi)
    if out <= -math.pi:
        out += 2 * math.pi
    return out


@dataclass(frozen=True)
class QndEvolution:
    """Joint state after cross-Kerr evolution plus the probe readout.

    probe_fidelity compares the reduced probe against the analytically
    rotated coherent state |alpha e^{-i chi n_s t}> of the exp(-iHt)
    convention; probe_fidelity_flipped against the opposite sign, so the
    matching convention is visible in the record.  probe_purity near 1
    certifies the joint state stayed a product (Schmidt rank 1).
    """

    state: StateVector
    readout: ProbeReadout
    probe_fidelity: float
    probe_fidelity_flipped: float
    probe_purity: float
    evolution_sign: str = EVOLUTION_SIGN


def evolve_qnd(n_s: int, alpha_p: complex, chi: float, t: float,
               cutoff_p: int | None = None, lo_phase: float = 0.0) -> QndEvolution:
    """Evolve |n_s> (x) |alpha_p> under chi n_s n_p for time t and read out.

    H is diagonal, so each amplitude picks up its own phase.  The probe is
    read from the (cutoff_s, cutoff_p) amplitude matrix m of the joint
    state: its readout as in homodyne_estimate, its purity
    tr(rho_p^2) = |m m^+|_F^2 and its fidelity to a coherent |beta>,
    <beta| rho_p |beta> = |m beta*|^2.  The reduced density matrix
    rho_p = m^T m* is never formed, so the cost is linear in cutoff_p.  The
    signal stays in |n_s>, so row n_s is the only occupied row of m, the
    Gram matrix m m^+ is its 1 x 1 block |m_{n_s}|^2, and the purity is
    |m_{n_s}|^4.  The two reference kets |beta> are coherent_state's
    amplitudes, normalized the same way but without its truncation check,
    which the input probe has already passed (one warning per call).
    """
    if n_s < 0:
        raise ValueError("n_s must be >= 0")
    cutoff_s = n_s + 1
    if cutoff_p is None:
        cutoff_p = default_cutoff(alpha_p)
    space, energies = _qnd_energies(chi, cutoff_s, cutoff_p)
    amps = np.zeros(space.dims, dtype=complex)
    amps[0, n_s] = coherent_state(cutoff_p, alpha_p).amplitudes
    psi_t = _evolve_diagonal(energies, StateVector(space, amps.ravel()), t)

    m = psi_t.amplitudes.reshape(cutoff_s, cutoff_p)
    readout = _pure_readout(
        m, lo_phase,
        phase_per_photon=(-chi * t) if t != 0 else None,
        phase_reference=cmath.phase(alpha_p) if alpha_p != 0 else 0.0,
    )

    def fidelity_to(beta: complex) -> float:
        ket = _coherent_amplitudes(cutoff_p, beta)
        ket /= np.linalg.norm(ket)
        return float(np.clip(np.linalg.norm(m @ ket.conj()) ** 2, 0.0, 1.0))

    return QndEvolution(
        state=psi_t,
        readout=readout,
        probe_fidelity=fidelity_to(alpha_p * cmath.exp(-1j * chi * n_s * t)),
        probe_fidelity_flipped=fidelity_to(alpha_p * cmath.exp(+1j * chi * n_s * t)),
        probe_purity=float(np.linalg.norm(m[n_s]) ** 4),
    )


@dataclass(frozen=True)
class DiscriminationResult:
    """Monte Carlo vs analytic homodyne discrimination of n_s in {0, 1}."""

    mc_error: float
    analytic_error: float
    std_error: float
    trials: int
    seed: int


def discrimination_error(alpha: float, theta: float, trials: int, seed: int
                         ) -> DiscriminationResult:
    """Midpoint-threshold discrimination of |alpha> vs |alpha e^{i theta}>.

    The optimal quadrature lies along the separation of the two coherent
    means; each hypothesis then produces a Gaussian with sigma = 1/2 and
    mean separation d = 2 alpha sin(theta/2).  The analytic error of the
    midpoint threshold is erfc(d / (2 sigma sqrt(2))) / 2.

    One generator seeded with seed draws every trial's equal-prior
    hypothesis, then every trial's Gaussian quadrature sample, as arrays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    alpha = float(alpha)
    mu0, mu1 = complex(alpha), alpha * cmath.exp(1j * theta)
    sep = mu1 - mu0
    d = abs(sep)
    sigma = 0.5
    analytic = 0.5 * math.erfc(d / (2 * sigma * math.sqrt(2)))

    if d == 0:
        means = (0.0, 0.0)
    else:
        lo = cmath.phase(sep)
        means = ((mu0 * cmath.exp(-1j * lo)).real, (mu1 * cmath.exp(-1j * lo)).real)
    mid = 0.5 * (means[0] + means[1])

    rng = np.random.default_rng(seed)
    h = rng.integers(0, 2, size=trials)
    x = np.asarray(means)[h] + sigma * rng.standard_normal(trials)
    errors = int(np.count_nonzero((x > mid) != (h == 1)))
    mc = errors / trials
    std = math.sqrt(max(mc * (1 - mc), analytic * (1 - analytic)) / trials)
    return DiscriminationResult(mc, analytic, std, trials, seed)


@dataclass(frozen=True)
class BackactionReport:
    """Number-phase uncertainty budget of the coherent probe.

    number_variance is <n^2> - <n>^2 measured on the truncated state,
    summed as sum_n p_n (n - <n>)^2 so that no large terms cancel.
    phase_variance is the linearized probe phase spread
    Var(X_perp) / |<a>|^2 measured at the quadrature orthogonal to the
    mean amplitude; it equals the phase variance the measurement imposes
    on the signal once the interaction gain chi*t is divided out, so
    product = number_variance * phase_variance is the gain-free
    back-action product, 1/4 for an ideal coherent probe.

    phase_variance_min_uncertainty restates 1/(4 number_variance);
    number_variance_from_dephasing re-derives the number variance from the
    coherence decay a small number-conditioned phase kick produces,
    -2 ln|<psi| e^{i phi n} |psi>| / phi^2, as an independent route to the
    same budget.
    """

    number_variance: float
    phase_variance: float
    product: float
    phase_variance_min_uncertainty: float
    number_variance_from_dephasing: float


def backaction_product(alpha_p: complex, cutoff: int | None = None) -> BackactionReport:
    """Measure the number-phase back-action product of a coherent probe."""
    if alpha_p == 0:
        raise ValueError("vacuum probe: zero number variance, the relation is degenerate")
    if cutoff is None:
        cutoff = default_cutoff(alpha_p)
    state = coherent_state(cutoff, alpha_p)
    psi = state.amplitudes
    n = _occupations(state.space, 0)
    pop = np.abs(psi) ** 2
    mean_n = float(pop @ n)
    number_variance = float(pop @ (n - mean_n) ** 2)
    if not number_variance > 0:  # e.g. cutoff 1: <a> = 0, no phase to read
        raise ValueError(f"probe at cutoff {cutoff} has zero number variance; "
                         "the relation is degenerate")

    mean_a = _mean_a(psi[None, :])
    perp = homodyne_estimate(state, cmath.phase(mean_a) + math.pi / 2)
    phase_variance = perp.quadrature_variance / abs(mean_a) ** 2

    phi = 0.1 / math.sqrt(max(number_variance, 1e-30))
    kicked = np.exp(1j * phi * n) * psi
    coherence = abs(np.vdot(psi, kicked))
    nv_dephasing = -2.0 * math.log(coherence) / phi ** 2

    return BackactionReport(
        number_variance=number_variance,
        phase_variance=phase_variance,
        product=number_variance * phase_variance,
        phase_variance_min_uncertainty=1.0 / (4.0 * number_variance),
        number_variance_from_dephasing=nv_dephasing,
    )


@dataclass(frozen=True)
class DephasingResult:
    """Reduced polarization qubit after a QND probe interaction: one point
    of dephasing_grid.

    fidelity is <c| rho |c> to the input qubit, purity tr(rho^2), and
    coherence 2 |rho_LR|, the off-diagonal survival of the qubit; for a
    polarization-sensitive interaction it decays by the analytic factor
    |<alpha | alpha e^{-i chi t}>| = exp(-|alpha|^2 (1 - cos chi t)).
    reduced is rho on the (2, 2) signal pair, indexed (n_L, n_R).
    """

    fidelity: float
    purity: float
    coherence: float
    reduced: DensityMatrix


@dataclass(frozen=True)
class DephasingGrid:
    """DephasingResult at every qubit q and time t of dephasing_grid.

    fidelity, purity and coherence are (Q, T) arrays; reduced is the
    (Q, T, 4, 4) stack of reduced states on the (2, 2) signal pair, each
    checked as a DensityMatrix.  Every array is read-only.
    """

    fidelity: np.ndarray
    purity: np.ndarray
    coherence: np.ndarray
    reduced: np.ndarray


def _qubit_pair_vector(qubit: PolarizationQubit) -> np.ndarray:
    """Amplitudes of c_L |1,0> + c_R |0,1> on the (2, 2) signal pair, indexed (n_L, n_R)."""
    v = np.zeros((2, 2), dtype=complex)
    v[1, 0] = qubit.c_l
    v[0, 1] = qubit.c_r
    return v


def dephasing_grid(qubits: Sequence[PolarizationQubit], alpha_p: complex, chi: float,
                   times: Sequence[float], sensitive: bool = False,
                   cutoff_p: int | None = None) -> DephasingGrid:
    """polarization_dephasing at every qubit and time, in one pass.

    The interaction is diagonal in the signal number state s = (n_L, n_R),
    so a qubit c evolves to sum_s c_s |s> (x) |phi_s(t)> with
    phi_s(t) = exp(-i E_s t) |alpha_p>, and its reduced state is
    rho = (c c^+) o G(t), with G(t)_{s s'} = <phi_s'(t)|phi_s(t)>.  Each
    time holds only its four phi_s (4 cutoff_p numbers).  Each rho is
    divided by its trace, the squared norm of its joint state, which must
    be 1 to within 1e-10 (ArithmeticError otherwise); the (Q, T) stack then
    gets DensityMatrix's checks at once.
    """
    if len(qubits) == 0 or len(times) == 0:
        raise ValueError("dephasing_grid needs at least one qubit and one time")
    if cutoff_p is None:
        cutoff_p = default_cutoff(alpha_p)
    _, energies = ppqnd_energies(chi, 2, 2, cutoff_p, sensitive)
    energies = energies.reshape(4, cutoff_p)  # row s = (n_L, n_R) flattened
    coh = coherent_state(cutoff_p, alpha_p).amplitudes

    def probe_gram(t: float) -> np.ndarray:
        phi = np.exp(energies * (-1j * t))
        phi *= coh
        return phi @ phi.conj().T

    gram = np.array([probe_gram(t) for t in times])  # (T, 4, 4)
    c = np.array([_qubit_pair_vector(q).ravel() for q in qubits])  # (Q, 4)
    rho = c[:, None, :, None] * c.conj()[:, None, None, :] * gram  # (Q, T, 4, 4)
    norm2 = np.trace(rho, axis1=-2, axis2=-1).real
    _check_unitarity(np.sqrt(norm2))
    rho /= norm2[..., None, None]
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))  # scrub product roundoff dust
    _check_density(rho)

    fid = np.sum(c.conj()[:, None, :, None] * rho * c[:, None, None, :], axis=(-2, -1)).real
    return DephasingGrid(
        fidelity=_readonly(np.clip(fid, 0.0, 1.0)),
        purity=_readonly(np.sum(np.abs(rho) ** 2, axis=(-2, -1))),
        coherence=_readonly(2.0 * np.abs(rho[..., 2, 1])),  # rho_LR: (1, 0) by (0, 1)
        reduced=_readonly(rho),
    )


def polarization_dephasing(qubit: PolarizationQubit, alpha_p: complex, chi: float,
                           t: float, sensitive: bool = False,
                           cutoff_p: int | None = None) -> DephasingResult:
    """Evolve a single-photon qubit with a coherent probe and reduce it.

    sensitive=False uses the polarization-symmetric interaction
    chi (n_sL + n_sR) n_p, under which the joint state stays a product and
    the qubit comes back untouched up to a global phase.  sensitive=True
    is the control: chi n_sL n_p kicks only the left-circular component
    and visibly dephases superposition qubits.  This is the 1 x 1 case of
    dephasing_grid.
    """
    grid = dephasing_grid([qubit], alpha_p, chi, [t], sensitive, cutoff_p)
    return DephasingResult(
        float(grid.fidelity[0, 0]), float(grid.purity[0, 0]), float(grid.coherence[0, 0]),
        DensityMatrix(make_space(1, [2, 2]), grid.reduced[0, 0]))


@dataclass(frozen=True)
class FullVsEffectiveResult:
    """Full five-level run against the effective cross-Kerr predictions.

    measured_phase: accumulated probe phase in the exp(-iHt) convention.
    For a Fock probe it is arg<psi(0)|psi(t)>; for a coherent probe the
    rotation of arg<a_p>.

    predicted_phase_secular is -lambda t with lambda the dark root
    estimate_eigenvalues(params, 1, 0, n_p).exact_small, the scheme's own
    perturbed-dark-state eigenvalue; this is the prediction the full model
    tracks.  predicted_phase_kerr uses the N-scheme coefficient chi = -xi_s^2 xi_p^2 / (Delta Omega_d^2) times
    (n_sL + n_sR) n_p; the five-level scheme accumulates half of it
    because both drive legs stiffen the dark state, and the record keeps
    both numbers so that gap stays visible.

    atomic_leakage is the final population outside atomic level 1;
    input_overlap is |<psi(0)|psi(t)>|^2.  Runs outside the hierarchy are
    valid data, labeled by regime_ok.  Only the drive-parallel part
    (c_L + c_R)/sqrt(2) of the qubit feels the probe: an H photon tracks
    the secular prediction, a V photon gets no phase and an L or R photon
    about half.  Mirrored qubits (c_L, c_R) and (c_R, c_L) give identical
    records, bit for bit.
    """

    measured_phase: float
    predicted_phase_secular: float
    predicted_phase_kerr: float
    rel_err_secular: float
    rel_err_kerr: float
    atomic_leakage: float
    input_overlap: float
    regime_ok: bool
    hierarchy_ratios: tuple[float, float, float]
    probe: str
    evolution_sign: str = EVOLUTION_SIGN


def full_vs_effective(params: SchemeParams, pol_state: PolarizationQubit,
                      t: float, n_p: int | None = None,
                      alpha_p: complex | None = None,
                      cutoff_p: int | None = None) -> FullVsEffectiveResult:
    """Evolve the full PP Hamiltonian and compare the probe phase.

    Exactly one of n_p (Fock probe) and alpha_p (coherent probe) must be
    given.  The signal is a single photon in pol_state; the atom starts in
    level 1.

    The evolution is exact within the truncation and runs in extended
    precision at every probe cutoff.  It runs in the drive's linear basis:
    of its even chains |1; H, n>, 2+, |3>, |4; n - 1> and odd pairs
    |1; V, n>, 2-, only those that hold amplitude of psi(0) are built, in
    closed form (schemes._pp_components), so an H photon never meets an odd
    pair, and diagonalized by one longdouble Jacobi call on all of them,
    each zero-padded to the widest (exact: the Jacobi never turns a padded
    row).  No coupling table and no dense Hamiltonian of the full space is
    built.
    """
    return _full_vs_effective(params, pol_state, t, n_p, alpha_p, cutoff_p, None)


def _full_vs_effective(params: SchemeParams, pol_state: PolarizationQubit, t: float,
                       n_p: int | None, alpha_p: complex | None, cutoff_p: int | None,
                       dark_root: float | None) -> FullVsEffectiveResult:
    """full_vs_effective with its dark root given, the exact_small of
    estimate_eigenvalues(params, 1, 0, n_p) (n_p = 1 for a coherent probe),
    or None to solve for it here."""
    if (n_p is None) == (alpha_p is None):
        raise ValueError("give exactly one of n_p or alpha_p")

    if n_p is not None:
        cp = max(2, n_p + 1) if cutoff_p is None else cutoff_p
        if not 0 <= n_p < cp:
            raise ValueError(f"need 0 <= n_p < cutoff_p, got n_p={n_p}, cutoff_p={cp}")
        probe_vec = np.eye(1, cp, n_p, dtype=complex)[0]  # |n_p>
        probe_tag = f"fock:{n_p}"
        n_p_eff = n_p
    else:
        cp = default_cutoff(alpha_p) if cutoff_p is None else cutoff_p
        probe_vec = coherent_state(cp, alpha_p).amplitudes
        probe_tag = f"coherent:{alpha_p!r}"
        n_p_eff = 1  # phase is read per probe photon

    # Modes [s_H, s_V, p] and levels (1, 2+, 2-, 3, 4) as in _pp_components;
    # a mirrored qubit only flips the sign of c_V.  Leakage, <a_p> and
    # <psi0|psi_t> do not depend on the basis, so nothing is rotated back.
    space = make_space(5, [2, 2, cp])
    amps = np.zeros(space.dims, dtype=complex)  # atom in level 1
    amps[0, 1, 0] = (pol_state.c_l + pol_state.c_r) / math.sqrt(2) * probe_vec
    amps[0, 0, 1] = (pol_state.c_l - pol_state.c_r) / math.sqrt(2) * probe_vec
    psi0 = StateVector(space, amps.ravel())
    stack = _pp_components(params, space.mode_cutoffs, np.flatnonzero(psi0.amplitudes))
    psi_t = _evolve_sectors(psi0, [stack], t)

    if n_p is not None:
        amp = psi_t.overlap(psi0).conjugate()  # <psi0|psi_t>
        measured = cmath.phase(amp)
        input_overlap = abs(amp) ** 2
    else:
        mean_a = _mean_a(psi_t.amplitudes.reshape(-1, cp))
        measured = _wrap_angle(cmath.phase(mean_a) - cmath.phase(alpha_p))
        input_overlap = abs(psi_t.overlap(psi0)) ** 2

    if dark_root is None:
        dark_root = estimate_eigenvalues(params, 1, 0, n_p_eff).exact_small
    predicted_secular = -dark_root * t
    predicted_kerr = -chi_from_params(params) * 1 * n_p_eff * t

    by_level = psi_t.amplitudes.reshape(space.atom_dim, -1)
    leak = float(np.sum(np.abs(by_level[1:]) ** 2))

    def rel(measured_v: float, predicted_v: float) -> float:
        return abs(measured_v - predicted_v) / max(abs(predicted_v), 1e-300)

    return FullVsEffectiveResult(
        measured_phase=measured,
        predicted_phase_secular=predicted_secular,
        predicted_phase_kerr=predicted_kerr,
        rel_err_secular=rel(measured, predicted_secular),
        rel_err_kerr=rel(measured, predicted_kerr),
        atomic_leakage=leak,
        input_overlap=input_overlap,
        regime_ok=params.regime_ok(),
        hierarchy_ratios=params.hierarchy_ratios(),
        probe=probe_tag,
    )
