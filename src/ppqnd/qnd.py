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
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    DensityMatrix,
    StateVector,
    _check_density,
    _check_size,
    _check_time,
    _check_unitarity,
    _coherent_amplitudes,
    _coherent_probe,
    _evolve_diagonal,
    _evolve_sectors,
    _photon_number,
    _readonly,
    make_space,
)
from .polarization import PolarizationQubit
from .schemes import (SchemeParams, _pp_components, _qnd_energies, _rel_err,
                      chi_from_params, ppqnd_energies)
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
    "full_model_grid",
]

EVOLUTION_SIGN = "exp(-iHt)"
QUADRATURE_CONVENTION = "X_theta = (a e^{-i theta} + a^+ e^{i theta})/2; coherent variance 1/4"

_PHASE_DEFINED_TOL = 1e-12


@dataclass(frozen=True)
class ProbeReadout:
    """Homodyne summary of a single probe mode.

    phase_shift and inferred_n_s are None when <a> vanishes (phase
    undefined, e.g. for Fock states); inferred_n_s is also None when no
    phase per photon was given, as evolve_qnd does outside n_s |chi t| < pi,
    where the wrapped shift no longer tells the photon number.
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
    mean_a = complex(np.vdot(m[:, :-1], lowered[:, :-1]))  # _mean_a(m), from a m
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
    expected_phase_shift is that rotation's phase -chi n_s t, wrapped to
    (-pi, pi] as readout.phase_shift is, so the two compare directly.
    """

    state: StateVector
    readout: ProbeReadout
    probe_fidelity: float
    probe_fidelity_flipped: float
    probe_purity: float
    expected_phase_shift: float
    evolution_sign: str = EVOLUTION_SIGN


def evolve_qnd(n_s: int, alpha_p: complex, chi: float, t: float,
               cutoff_p: int | None = None, lo_phase: float = 0.0) -> QndEvolution:
    """Evolve |n_s> (x) |alpha_p> under chi n_s n_p for time t and read out.

    n_s is an integer photon number (not a bool), and chi, t and alpha_p
    are finite.

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
    which the input probe has already passed (one warning per call).  The
    photon number is inferred only where the shift, wrapped to (-pi, pi],
    is unambiguous, n_s |chi t| < pi; outside it inferred_n_s is None.
    """
    n_s = _photon_number("n_s", n_s)
    if n_s < 0:
        raise ValueError("n_s must be >= 0")
    cutoff_s = n_s + 1
    probe = _coherent_probe(cutoff_p, alpha_p, copies=cutoff_s)
    cutoff_p = len(probe)
    space, energies = _qnd_energies(chi, cutoff_s, cutoff_p)
    amps = np.zeros(space.dims, dtype=complex)
    amps[0, n_s] = probe
    psi_t = _evolve_diagonal(energies, StateVector(space, amps.ravel()), t)

    m = psi_t.amplitudes.reshape(cutoff_s, cutoff_p)
    readout = _pure_readout(
        m, lo_phase,
        phase_per_photon=(-chi * t) if t != 0 and n_s * abs(chi * t) < math.pi else None,
        phase_reference=cmath.phase(alpha_p) if alpha_p != 0 else 0.0,
    )

    def fidelity_to(beta: complex) -> float:
        ket = _coherent_amplitudes(cutoff_p, beta)
        ket /= np.linalg.norm(ket)
        return min(max(float(np.linalg.norm(m @ ket.conj()) ** 2), 0.0), 1.0)

    return QndEvolution(
        state=psi_t,
        readout=readout,
        probe_fidelity=fidelity_to(alpha_p * cmath.exp(-1j * chi * n_s * t)),
        probe_fidelity_flipped=fidelity_to(alpha_p * cmath.exp(+1j * chi * n_s * t)),
        probe_purity=float(np.linalg.norm(m[n_s]) ** 4),
        expected_phase_shift=_wrap_angle(-chi * n_s * t),
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
    trials is a positive integer (not a bool); alpha and theta must be
    finite.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got trials = {trials!r}")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    alpha = float(alpha)
    for name, value in (("alpha", alpha), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name} = {value!r}")
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
    psi = _coherent_probe(cutoff, alpha_p)
    cutoff = len(psi)
    n = np.arange(cutoff, dtype=float)
    pop = np.abs(psi) ** 2
    mean_n = float(pop @ n)
    number_variance = float(pop @ (n - mean_n) ** 2)
    if not number_variance > 0:  # e.g. cutoff 1: <a> = 0, no phase to read
        raise ValueError(f"probe at cutoff {cutoff} has zero number variance; "
                         "the relation is degenerate")

    mean_a = _mean_a(psi[None, :])
    perp = _pure_readout(psi[None, :], cmath.phase(mean_a) + math.pi / 2, None, 0.0)
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
    for t in times:
        _check_time(t)
    coh = _coherent_probe(cutoff_p, alpha_p, copies=4)
    cutoff_p = len(coh)
    _, energies = ppqnd_energies(chi, 2, 2, cutoff_p, sensitive)
    energies = energies.reshape(4, cutoff_p)  # row s = (n_L, n_R) flattened

    def probe_gram(t: float) -> np.ndarray:
        phi = np.exp(energies * (-1j * t))
        phi *= coh
        return phi @ phi.conj().T

    with np.errstate(over="ignore", invalid="ignore"):  # E t overflowing: NaN, refused below
        gram = np.array([probe_gram(t) for t in times])  # (T, 4, 4)
    c = np.array([[0, q.c_r, q.c_l, 0] for q in qubits], dtype=complex)  # (Q, 4), by s
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
    about half: its fields mix the H and V photons' by |c_L + c_R|^2 and
    |c_L - c_R|^2, so mirrored qubits (c_L, c_R), (c_R, c_L) match bit for bit.
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


def full_vs_effective(params: SchemeParams, pol_state: PolarizationQubit, t: float,
                      n_p: int | None = None, alpha_p: complex | None = None,
                      cutoff_p: int | None = None) -> FullVsEffectiveResult:
    """full_model_grid of the one qubit pol_state at time t."""
    return full_model_grid(params, [pol_state], t=t, n_p=n_p, alpha_p=alpha_p,
                           cutoff_p=cutoff_p)[0]


def full_model_grid(params: SchemeParams, qubits: Sequence[PolarizationQubit], *,
                    t: float | None = None, target_phase: float | None = None,
                    n_p: int | None = None, alpha_p: complex | None = None,
                    cutoff_p: int | None = None) -> tuple[FullVsEffectiveResult, ...]:
    """Evolve the full PP Hamiltonian and compare the probe phase, one
    result per qubit, in order.

    Each qubit is a single signal photon; the atom starts in level 1.  Give
    exactly one of n_p (Fock probe, an integer >= 0, not a bool) and
    alpha_p (coherent probe), and exactly one of t and target_phase, both
    finite.  A Fock probe |n_p> is cut at n_p + 1: the component of
    |1; H or V, n_p> never reaches another probe number on level 1, so a
    larger cutoff would only add zeros.  cutoff_p truncates a coherent
    probe only (default default_cutoff(alpha_p), which warns the caller on
    a truncation loss above 1e-9) and is refused with n_p.  The components
    build at any probe cutoff >= 1.  A state of more than MAX_STATE_SIZE
    complex numbers (20 per probe number) is refused before it is
    allocated.  The dark root lambda = estimate_eigenvalues(params, 1, 0,
    n_p).exact_small (n_p = 1 for a coherent probe) is solved once;
    target_phase sets t = target_phase / |lambda| (ValueError at
    lambda = 0).  Where |delta| is below every root of the even chain, that
    pick is delta, the root of the uncoupled 2-, which no H photon reaches:
    ValueError, whichever of t and target_phase is given.

    The evolution is exact within the truncation, in extended precision at
    every probe cutoff, in the drive's linear basis (a_H, a_V) =
    (c_L + c_R, c_L - c_R) / sqrt(2).  Only the kets |1; H> and |1; V> (x)
    probe that some qubit holds are built, two states of 20 * cutoff numbers
    at most for any number of qubits; their even chains |1; H, n>, 2+, |3>,
    |4; n - 1> and odd pairs |1; V, n>, 2- are built in closed form
    (schemes._pp_components) and diagonalized by one longdouble Jacobi call,
    zero-padded to the widest (exact: the Jacobi never turns a padded row).
    A qubit's <psi_t|psi0>, leakage and <a_p> are w_H x_H + w_V x_V over the
    kets it holds, w = |a|^2 normalized per qubit, so its result is, bit for
    bit, the one it gets alone.  No dense Hamiltonian of the space is built.
    """
    if len(qubits) == 0:
        raise ValueError("full_model_grid needs at least one qubit")
    if (t is None) == (target_phase is None):
        raise ValueError("give exactly one of t or target_phase")
    if target_phase is not None and not math.isfinite(target_phase):
        raise ValueError(f"target_phase must be finite, got target_phase = {target_phase!r}")
    if (n_p is None) == (alpha_p is None):
        raise ValueError("give exactly one of n_p or alpha_p")

    if n_p is not None:
        if cutoff_p is not None:
            raise ValueError("cutoff_p truncates a coherent probe only: a Fock probe |n_p> "
                             "is cut at n_p + 1")
        n_p = _photon_number("n_p", n_p)
        if n_p < 0:
            raise ValueError("n_p must be >= 0")
        cp = n_p + 1
        _check_size(20 * cp, f"n_p = {n_p}")  # 5 levels x 2 x 2 signal states per probe number
        probe_vec = np.eye(1, cp, n_p, dtype=complex)[0]  # |n_p>
        probe_tag = f"fock:{n_p}"
        n_p_eff = n_p
    else:
        probe_vec = _coherent_probe(cutoff_p, alpha_p, copies=20)
        cp = len(probe_vec)
        probe_tag = f"coherent:{alpha_p!r}"
        n_p_eff = 1  # phase is read per probe photon

    est = estimate_eigenvalues(params, 1, 0, n_p_eff)
    chain = list(est.exact_roots)
    chain.remove(params.delta_two)
    least = min(chain, key=abs)
    if abs(params.delta_two) < abs(least):  # the dark-root pick would be the uncoupled 2-
        raise ValueError(f"delta_two = {params.delta_two!r} is below every root of the even "
                         f"chain in magnitude (its least root is {least!r}): an H photon "
                         "never reaches 2-, so its root at delta predicts no phase")
    lam = est.exact_small
    if target_phase is not None:
        if lam == 0:
            raise ValueError("target_phase unreachable: the dark-state eigenvalue is zero "
                             "(no cross-Kerr shift); give the time directly (t, or "
                             "'time' in a fullmodel config)")
        t = target_phase / abs(lam)

    # Modes [s_H, s_V, p] and levels (1, 2+, 2-, 3, 4) as in _pp_components; the
    # fields do not depend on the basis, so nothing is rotated back.
    weights = [(abs(q.c_l + q.c_r) ** 2, abs(q.c_l - q.c_r) ** 2) for q in qubits]
    weights = [(h / (h + v), v / (h + v)) for h, v in weights]
    space = make_space(5, [2, 2, cp])
    held = [k for k in (0, 1) if any(w[k] for w in weights)]
    kets = []
    for k in held:
        amps = np.zeros(space.dims, dtype=complex)  # atom in level 1
        amps[0, 1 - k, k] = probe_vec  # |1; H> (k = 0) or |1; V> (k = 1)
        kets.append(StateVector(space, amps.ravel()))
    occupied = np.concatenate([np.flatnonzero(psi.amplitudes) for psi in kets])
    stack = _pp_components(params, space.mode_cutoffs, occupied)
    per_ket = [None, None]  # Re, Im <psi_t|psi0>, leakage, Re, Im <a_p> of each held ket
    for k, psi0, psi_t in zip(held, kets, _evolve_sectors(kets, [stack], t)):
        ov, by_level = psi_t.overlap(psi0), psi_t.amplitudes.reshape(space.atom_dim, -1)
        a = _mean_a(psi_t.amplitudes.reshape(-1, cp)) if n_p is None else 0j
        per_ket[k] = ov.real, ov.imag, float(np.sum(np.abs(by_level[1:]) ** 2)), a.real, a.imag

    predicted_secular = -lam * t
    predicted_kerr = -chi_from_params(params) * 1 * n_p_eff * t

    results = []
    for w in weights:  # elementwise over the qubit's kets; -0.0 + x is x, bit for bit
        re, im, leak, a_re, a_im = (sum((wk * x[i] for wk, x in zip(w, per_ket) if wk), -0.0)
                                    for i in range(5))
        if n_p is not None:
            measured = cmath.phase(complex(re, -im))  # arg <psi0|psi_t>
        else:
            measured = _wrap_angle(cmath.phase(complex(a_re, a_im)) - cmath.phase(alpha_p))
        results.append(FullVsEffectiveResult(
            measured_phase=measured,
            predicted_phase_secular=predicted_secular,
            predicted_phase_kerr=predicted_kerr,
            rel_err_secular=_rel_err(measured, predicted_secular),
            rel_err_kerr=_rel_err(measured, predicted_kerr),
            atomic_leakage=leak,
            input_overlap=abs(complex(re, im)) ** 2,
            regime_ok=params.regime_ok(),
            hierarchy_ratios=params.hierarchy_ratios(),
            probe=probe_tag,
        ))
    return tuple(results)
