"""Level-scheme Hamiltonians for coherence-induced cross-Kerr nonlinearity.

Three atomic schemes, in increasing size:

* Lambda: levels {1,2,3}, one quantized signal mode coupled to 1-2 with
  per-photon strength xi_s, classical drive Omega_d on 2-3, detuning delta
  on level 2.  Supports the exact dark state used for the CPT checks.
* N-type: adds level 4 and a quantized probe mode (strength xi_p, detuning
  Delta).  The far-detuned probe perturbs the dark state, whose eigenvalue
  becomes the cross-Kerr shift -xi_s^2 n_s xi_p^2 n_p / (Delta Omega_d^2).
* Polarization preserving (PP): levels {1,2,2',3,4} with two circular
  signal modes s_L, s_R feeding 1-2 and 1-2', one (linearly polarized)
  drive coupling both 2-3 and 2'-3 with the same amplitude, and the probe
  on 3-4.  Mode order is [s_L, s_R, p].  In the drive's linear basis,
  s_H, s_V = (s_L +- s_R)/sqrt(2) and 2+- = (|2> +- |2'>)/sqrt(2), the
  drive links only 2+ to 3 (leg sqrt(2) Omega_d), so every component holds
  at most |1; n_H, n_V, n_p>, 2+, 2-, 3, 4, built in closed form
  (_pp_components), and only the drive-parallel photon H reaches the probe.

Atomic levels are indexed from 0, so scheme level "1" is index 0,
"2" is 1, "2'" is 2, "3" is 3, "4" is 4 in the PP scheme.

Also provided: the 5x5 single-excitation block model of the PP scheme,
exact for H photons, and the diagonal effective (QND) Hamiltonians.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

from .fock import (
    HilbertSpace,
    Operator,
    StateVector,
    _coupling_table,
    _jacobi_eigh_longdouble,
    _photon_number,
    _scatter,
    make_space,
)

__all__ = [
    "SchemeParams",
    "PPBlockMatrix",
    "build_lambda_hamiltonian",
    "lambda_dark_state",
    "build_n_hamiltonian",
    "build_pp_hamiltonian",
    "pp_mirror_permutation",
    "build_pp_block_matrix",
    "chi_from_params",
    "qnd_hamiltonian",
    "ppqnd_hamiltonian",
    "sensitive_qnd_hamiltonian",
    "ppqnd_energies",
    "compare_block_to_full",
]


@dataclass(frozen=True)
class SchemeParams:
    """Detunings and coupling amplitudes, all real angular frequencies.

    The equal-amplitude requirements of the PP scheme (|Omega_d_L| =
    |Omega_d_R| and |xi_s_L| = |xi_s_R|) are structural: there is one
    omega_d field and one xi_s field.  Phases of the Rabi amplitudes are
    fixed to zero; every derived formula depends on |Omega_d|^2 and
    |xi|^2 only, so a complex-phase hook would change nothing measurable.
    Fields are stored as Python floats; a bool or non-number is a TypeError,
    NaN or an infinity a ValueError naming the field.
    """

    delta_probe: float  # Delta, probe detuning
    delta_two: float    # delta, signal/drive (two-photon chain) detuning
    omega_d: float      # drive Rabi amplitude, >= 0
    xi_s: float         # per-photon signal coupling, >= 0
    xi_p: float         # per-photon probe coupling, >= 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{field.name} must be a real number, got {value!r}")
            if not math.isfinite(value):  # a NaN entry would never turn in the Jacobi
                raise ValueError(f"{field.name} must be finite, got {value}")
            if field.name in ("omega_d", "xi_s", "xi_p") and value < 0:
                raise ValueError(f"{field.name} must be nonnegative, got {value}")
            object.__setattr__(self, field.name, float(value))

    def hierarchy_ratios(self) -> tuple[float, float, float]:
        """(min(|Delta|,|delta|)/Omega_d, Omega_d/xi_p, xi_p/xi_s).

        Ratios come out inf when the denominator is zero.
        """
        def ratio(num: float, den: float) -> float:
            return math.inf if den == 0 else num / den

        det = min(abs(self.delta_probe), abs(self.delta_two))
        return (
            ratio(det, self.omega_d),
            ratio(self.omega_d, self.xi_p),
            ratio(self.xi_p, self.xi_s),
        )

    def regime_ok(self, threshold: float = 10.0) -> bool:
        """Whether Delta, delta >> Omega_d >> xi_p >> xi_s holds.

        ">>" defaults to a factor of 10 per step.
        """
        return all(r >= threshold for r in self.hierarchy_ratios())


def build_lambda_hamiltonian(params: SchemeParams, cutoff_s: int) -> Operator:
    """Three-level CPT system with one quantized signal mode.

    H = delta |2><2| + (xi_s a_s |2><1| + Omega_d |2><3| + h.c.)
    """
    if cutoff_s < 2:
        raise ValueError("cutoff_s must be >= 2")
    space = make_space(3, [cutoff_s])
    return _scatter(space, _coupling_table(
        space, [(1, params.delta_two)],
        [(params.xi_s, 1, 0, 0), (params.omega_d, 1, 2, None)]), hermitian=True)


def lambda_dark_state(params: SchemeParams, n_s: int, cutoff_s: int) -> StateVector:
    """Analytic CPT dark state for n_s signal photons.

    (xi_s sqrt(n_s) |3, n_s - 1> - Omega_d |1, n_s>) / sqrt(xi_s^2 n_s + Omega_d^2)

    Exact zero-eigenvalue eigenstate of the Lambda Hamiltonian; the overall
    sign is conventional.
    """
    n_s = _photon_number("n_s", n_s)
    if not (1 <= n_s < cutoff_s):
        raise ValueError(f"need 1 <= n_s < cutoff_s, got n_s={n_s}, cutoff_s={cutoff_s}")
    space = make_space(3, [cutoff_s])
    g = params.xi_s * math.sqrt(n_s)
    v = np.zeros(space.total_dim, dtype=complex)
    v[space.index_of(2, [n_s - 1])] = g
    v[space.index_of(0, [n_s])] = -params.omega_d
    v /= np.linalg.norm(v)
    return StateVector(space, v)


def build_n_hamiltonian(params: SchemeParams, cutoff_s: int, cutoff_p: int) -> Operator:
    """Four-level N scheme: Lambda plus a far-detuned quantized probe.

    H = Delta |4><4| + delta |2><2|
        + (xi_s a_s |2><1| + Omega_d |2><3| + xi_p a_p |4><3| + h.c.)

    Modes are ordered [s, p].
    """
    if cutoff_s < 2 or cutoff_p < 2:
        raise ValueError("cutoffs must be >= 2")
    space = make_space(4, [cutoff_s, cutoff_p])
    return _scatter(space, _coupling_table(
        space, [(3, params.delta_probe), (1, params.delta_two)],
        [(params.xi_s, 1, 0, 0), (params.omega_d, 1, 2, None), (params.xi_p, 3, 2, 1)]),
        hermitian=True)


def _pp_table(params: SchemeParams, cutoff_sl: int, cutoff_sr: int, cutoff_p: int
              ) -> tuple[HilbertSpace, tuple[np.ndarray, ...]]:
    """The PP space and the coupling table of its Hamiltonian (circular basis)."""
    if min(cutoff_sl, cutoff_sr, cutoff_p) < 2:
        raise ValueError("cutoffs must be >= 2")
    space = make_space(5, [cutoff_sl, cutoff_sr, cutoff_p])
    table = _coupling_table(
        space, [(4, params.delta_probe), (1, params.delta_two), (2, params.delta_two)],
        [(params.xi_s, 1, 0, 0), (params.xi_s, 2, 0, 1), (params.omega_d, 1, 3, None),
         (params.omega_d, 2, 3, None), (params.xi_p, 4, 3, 2)])
    return space, table


def build_pp_hamiltonian(params: SchemeParams, cutoff_sl: int, cutoff_sr: int,
                         cutoff_p: int) -> Operator:
    """Five-level polarization-preserving scheme, modes [s_L, s_R, p].

    H = Delta |4><4| + delta (|2><2| + |2'><2'|)
        + (xi_s a_sL |2><1| + xi_s a_sR |2'><1|
           + Omega_d |2><3| + Omega_d |2'><3| + xi_p a_p |4><3| + h.c.)

    A single linearly polarized drive excites both circular transitions,
    hence the one omega_d amplitude on both 2-3 and 2'-3.  Levels are
    indexed (1, 2, 2', 3, 4) -> (0, 1, 2, 3, 4).
    """
    return _scatter(*_pp_table(params, cutoff_sl, cutoff_sr, cutoff_p), hermitian=True)


def _pp_components(params: SchemeParams, cutoffs: tuple[int, int, int], keep: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The linear PP Hamiltonian's components of the level-1 states `keep`
    (flat indices on make_space(5, cutoffs), modes [s_H, s_V, p]) as one
    zero-padded longdouble stack (index, blocks), built in closed form.

    Each rule moves one quantum between a mode and the atom and only 2+
    meets the drive, so the component of |1; n_H, n_V, n_p> is the chain
    |1> - 2+ - |3> - |4> (one H photon fewer, then one probe photon fewer
    on |4>) plus |1> - 2- (one V photon fewer): legs xi_s sqrt(n_H),
    sqrt(2) Omega_d (formed in longdouble: in double it moves phases ~1e-13),
    xi_p sqrt(n_p) and xi_s sqrt(n_V), diagonal delta on 2+- and Delta on 4.
    A row holds the states that exist, in ascending flat index, one row per
    kept state in ascending order, and is padded to the widest row: a padded
    slot has index total_dim, one scratch slot past the space, and a zero
    row and column.  The Jacobi never turns a zero row (|0| is not above its
    threshold), so a row rotates exactly as it would alone wherever
    _round_robin schedules its pairs in the same order (padding n to at
    most n + n % 2, or a pair to any width), and each padded slot comes
    back as an eigenpair (0, unit vector on that slot).
    """
    space = make_space(5, cutoffs)
    keep = np.unique(keep)
    level, n_h, n_v, n_p = np.unravel_index(keep, space.dims)  # ValueError outside the space
    if np.any(level != 0):
        raise ValueError("kept states must lie on atomic level 1")
    _, c_h, c_v, c_p = space.dims
    step = c_h * c_v * c_p  # one atomic level
    offsets = np.array([0, step - c_v * c_p, 2 * step - c_p, 3 * step - c_v * c_p,
                        4 * step - c_v * c_p - 1])  # 1, 2+, 2-, 3, 4 from |1; n_H, n_V, n_p>
    exists = np.stack([n_h >= 0, n_h > 0, n_v > 0, n_h > 0, (n_h > 0) & (n_p > 0)], axis=1)
    m = np.zeros((len(keep), 5, 5), dtype=np.longdouble)
    legs = ((0, 1, params.xi_s * np.sqrt(n_h)), (0, 2, params.xi_s * np.sqrt(n_v)),
            (1, 3, np.sqrt(np.longdouble(2)) * params.omega_d), (3, 4, params.xi_p * np.sqrt(n_p)))
    for i, j, value in legs:
        m[:, i, j] = m[:, j, i] = value
    m[:, 1, 1] = m[:, 2, 2] = float(params.delta_two)
    m[:, 4, 4] = float(params.delta_probe)
    m = np.where(exists[:, :, None] & exists[:, None, :], m, 0)
    order = np.argsort(~exists, axis=1, kind="stable")[:, :exists.sum(axis=1).max()]
    rows = np.arange(len(keep))[:, None]
    index = np.where(exists, keep[:, None] + offsets, space.total_dim)[rows, order]
    return index, m[rows[:, :, None], order[:, :, None], order[:, None, :]]


def pp_mirror_permutation(space: HilbertSpace) -> np.ndarray:
    """Basis permutation swapping the two circular roles: s_L <-> s_R, 2 <-> 2'.

    Valid for PP-scheme spaces (atom_dim 5, three modes, equal signal
    cutoffs).  The PP Hamiltonian matrix is exactly invariant under
    conjugation by this permutation, entry by entry; the acceptance tests
    assert that and the polarization-symmetry claims inherit from it.
    """
    if space.atom_dim != 5 or space.n_modes != 3:
        raise ValueError("mirror permutation is defined for PP-scheme spaces")
    if space.mode_cutoffs[0] != space.mode_cutoffs[1]:
        raise ValueError("signal cutoffs must match for the mirror to be a bijection")
    level_map = np.array([0, 2, 1, 3, 4])
    lvl, nl, nr, npp = np.indices(space.dims)
    return np.ravel_multi_index((level_map[lvl], nr, nl, npp), space.dims).ravel()


@dataclass(frozen=True)
class PPBlockMatrix:
    """Single-excitation block model of the PP scheme.

    `matrix` is 5x5 on {|1,n_s,n_p>, |2,..>, |2',..>, |3,n_s-1,n_p>,
    |4,n_s-1,n_p-1>} for n_sL, n_sR >= 1; when one circular occupation is
    zero the corresponding intermediate state does not exist, the row and
    column are dropped and `reduced` is set (4x4 chain).
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    reduced: bool

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _pp_chain_stack(params: np.ndarray, n_s: np.ndarray, n_p: np.ndarray) -> np.ndarray:
    """(B, 4, 4) symmetric chains |1> - |2> - |3> - |4> with diagonal (0, delta,
    0, Delta) and legs xi_s sqrt(n_s), drive, xi_p sqrt(n_p), one per row of
    params ((B, 5) in SchemeParams field order, whose Omega_d column is the
    drive leg: Omega_d for one circular route, sqrt(2) Omega_d for the even
    chain {|1; H>, 2+, |3>, |4>} of the PP scheme) and of n_s and n_p (B,)."""
    big_delta, delta, drive, xi_s, xi_p = np.asarray(params, dtype=float).T
    if np.any(drive < 0) or np.any(xi_s < 0) or np.any(xi_p < 0):
        raise ValueError("omega_d, xi_s and xi_p must be nonnegative")
    legs = (xi_s * np.sqrt(np.asarray(n_s, dtype=float)), drive,
            xi_p * np.sqrt(np.asarray(n_p, dtype=float)))
    m = np.zeros((len(big_delta), 4, 4))
    for k, value in enumerate(legs):
        m[:, k, k + 1] = m[:, k + 1, k] = value
    m[:, 1, 1], m[:, 3, 3] = delta, big_delta
    return m


def _pp_block_stack(params: np.ndarray, n_s: np.ndarray, n_p: np.ndarray) -> np.ndarray:
    """(B, 5, 5) symmetric blocks on {|1>, |2>, |2'>, |3>, |4>}, one per row:
    the single-route chain at n_s / 2 with its level 2 doubled into the
    uncoupled 2 and 2', so both signal legs carry xi_s sqrt(n_s / 2).

    params is (B, 5) in SchemeParams field order; n_s = n_sL + n_sR and n_p
    are (B,) occupations.  In the basis 2+- = (|2> +- |2'>)/sqrt(2), 2- is an
    eigenvector at delta and the rest is the even chain (drive leg sqrt(2)
    Omega_d), so the characteristic polynomial, the closed-form quintic at
    every occupation, is (delta - lambda) Q(lambda) with Q the chain's.
    """
    doubled = [0, 1, 1, 2, 3]
    m = _pp_chain_stack(params, np.asarray(n_s) / 2.0, n_p)[:, doubled][:, :, doubled]
    m[:, 1, 2] = m[:, 2, 1] = 0.0
    return m


def build_pp_block_matrix(params: SchemeParams, n_sl: int, n_sr: int, n_p: int) -> PPBlockMatrix:
    """Block model of one (n_sL, n_sR, n_p) occupation: the route-symmetrized
    5x5 block, whose characteristic polynomial is the quintic, when both
    circular occupations are nonzero; the single-route 4x4 chain otherwise.

    The block basis deliberately does not resolve which circular route the
    signal excitation took, so for mixed occupations the two signal legs
    enter with the route-symmetrized amplitude xi_s sqrt(n_s/2) each
    (n_s = n_sL + n_sR).  In the basis 2+- that block is exactly the full
    scheme's component of |1; n_s H photons, n_p> (the chain |1>, 2+, 3, 4
    of _pp_components) plus the uncoupled 2- at delta: the block model is exact
    for drive-parallel photons (see compare_block_to_full).  With one
    circular occupation zero the block is the single-route chain of
    _pp_chain_stack (`reduced`), which has one drive leg: its characteristic
    polynomial is not the quintic (its dark root is the N-scheme shift,
    about twice the quintic's).  The secular analysis solves the even chain
    (drive leg sqrt(2) Omega_d) plus delta.  The photon numbers are integers
    (numpy's too, not bools).
    """
    n_sl, n_sr, n_p = (_photon_number("n_sl", n_sl), _photon_number("n_sr", n_sr),
                       _photon_number("n_p", n_p))
    if n_sl < 0 or n_sr < 0 or n_sl + n_sr < 1:
        raise ValueError("need n_sL + n_sR >= 1 (a signal photon to detect)")
    if n_p < 1:
        raise ValueError("block model needs n_p >= 1 (the |4> state absorbs a probe photon)")
    row = np.array([astuple(params)])
    n_s, n_p = np.array([n_sl + n_sr]), np.array([n_p])
    if n_sl == 0 or n_sr == 0:
        kept = "2" if n_sr == 0 else "2'"
        return PPBlockMatrix(_pp_chain_stack(row, n_s, n_p)[0], ("1", kept, "3", "4"),
                             reduced=True)
    return PPBlockMatrix(_pp_block_stack(row, n_s, n_p)[0], ("1", "2", "2'", "3", "4"),
                         reduced=False)


def _rel_err(approx: float, exact: float) -> float:
    """|approx - exact| / |exact|, the floor 1e-300 standing in for an exact 0."""
    return abs(approx - exact) / max(abs(exact), 1e-300)


def _kerr_shift(params: SchemeParams, n_s: int, n_p: int) -> float:
    """The N-scheme cross-Kerr shift -xi_s^2 n_s xi_p^2 n_p / (Delta Omega_d^2),
    or a ValueError naming the point where it is not finite: at Delta = 0 or
    Omega_d = 0, or where the float arithmetic overflows."""
    try:
        s, p = params.xi_s ** 2 * n_s, params.xi_p ** 2 * n_p
        shift = -s * p / (params.delta_probe * params.omega_d ** 2)
    except (OverflowError, ZeroDivisionError):
        shift = math.nan
    if not math.isfinite(shift):
        raise ValueError(f"Kerr shift at {params}, n_s={n_s}, n_p={n_p} is not finite: it "
                         "needs Delta != 0, Omega_d != 0 and no overflow")
    return shift


def chi_from_params(params: SchemeParams) -> float:
    """Cross-Kerr coefficient of the N scheme: chi = -xi_s^2 xi_p^2 / (Delta Omega_d^2)."""
    return _kerr_shift(params, 1, 1)


def _cross_kerr_energies(space: HilbertSpace, chi: float, signal_modes: tuple[int, ...],
                         probe_mode: int) -> np.ndarray:
    """Diagonal of chi * (sum of the signal photon numbers) * n_probe, as a vector.

    The photon numbers are one range per factor, broadcast against each
    other: their sums and products are exact integers, chi multiplies once,
    and the result is broadcast to the whole space (a sum over one signal
    mode does not span the other's axis) and flattened into a new array.  A
    ValueError names chi unless it and every energy are finite.
    """
    if not math.isfinite(chi):
        raise ValueError(f"cross-Kerr coefficient chi must be finite, got chi = {chi!r}")
    n = np.ix_(*(np.arange(d, dtype=float) for d in space.dims))  # n[1 + mode]
    counts = sum(n[1 + m] for m in signal_modes) * n[1 + probe_mode]
    with np.errstate(over="ignore"):
        energies = chi * counts
    if not np.isfinite(energies).all():
        raise ValueError(f"cross-Kerr energies overflow: chi = {chi!r} times the largest "
                         f"photon-number product {float(counts.max())!r} is not finite")
    return np.broadcast_to(energies, space.dims).flatten()


def _qnd_energies(chi: float, cutoff_s: int, cutoff_p: int) -> tuple[HilbertSpace, np.ndarray]:
    """Space and diagonal of qnd_hamiltonian, modes [s, p]."""
    space = make_space(1, [cutoff_s, cutoff_p])
    return space, _cross_kerr_energies(space, chi, (0,), 1)


def ppqnd_energies(chi: float, cutoff_sl: int, cutoff_sr: int, cutoff_p: int,
                   sensitive: bool = False) -> tuple[HilbertSpace, np.ndarray]:
    """The space and diagonal of ppqnd_hamiltonian, chi (n_sL + n_sR) n_p, or of
    sensitive_qnd_hamiltonian, chi n_sL n_p, when sensitive; modes [s_L, s_R, p].
    diagonal_invariance and dephasing_grid take them without a D x D Operator."""
    space = make_space(1, [cutoff_sl, cutoff_sr, cutoff_p])
    return space, _cross_kerr_energies(space, chi, (0,) if sensitive else (0, 1), 2)


def _diagonal_operator(space: HilbertSpace, energies: np.ndarray) -> Operator:
    return Operator(space, np.diag(energies.astype(complex)))


def qnd_hamiltonian(chi: float, cutoff_s: int, cutoff_p: int) -> Operator:
    """Diagonal cross-Kerr QND Hamiltonian chi * n_s * n_p, modes [s, p]."""
    return _diagonal_operator(*_qnd_energies(chi, cutoff_s, cutoff_p))


def ppqnd_hamiltonian(chi: float, cutoff_sl: int, cutoff_sr: int, cutoff_p: int) -> Operator:
    """Polarization-symmetric QND Hamiltonian chi * (n_sL + n_sR) * n_p.

    Modes [s_L, s_R, p].  Diagonal, so it commutes exactly with n_sL + n_sR
    and with n_p; a single photon in any polarization state is an
    eigenstate of n_sL + n_sR with eigenvalue 1.
    """
    return _diagonal_operator(*ppqnd_energies(chi, cutoff_sl, cutoff_sr, cutoff_p))


def sensitive_qnd_hamiltonian(chi: float, cutoff_sl: int, cutoff_sr: int,
                              cutoff_p: int) -> Operator:
    """Polarization-sensitive control chi * n_sL * n_p, modes [s_L, s_R, p].

    Only the left-circular photon kicks the probe, so this Hamiltonian
    breaks the L/R symmetry that ppqnd_hamiltonian keeps; it serves as the
    control that shows the invariance and dephasing checks can fail.
    """
    return _diagonal_operator(*ppqnd_energies(chi, cutoff_sl, cutoff_sr, cutoff_p,
                                              sensitive=True))


def _hadamard_column(n_sl: int, n_sr: int) -> np.ndarray:
    """The circular |n_sL, n_sR> in the linear basis: its amplitude on
    |n_H, n_s - n_H> for n_H = 0 .. n_s, with a_L, a_R = (a_H +- a_V)/sqrt(2)
    (the real Hadamard; lr_to_hv puts an i on V).  Expanding (a_H + a_V)^n_sL
    (a_H - a_V)^n_sR gives the integer sum_{i+j=n_H} C(n_sL, i) C(n_sR, j)
    (-1)^(n_sR - j), times sqrt(n_H! n_V! / (n_sL! n_sR! 2^n_s)), so an
    amplitude is exactly 0 wherever that sum is."""
    n_s, f = n_sl + n_sr, math.factorial
    column = np.zeros(n_s + 1)
    for n_h in range(n_s + 1):
        k = sum(math.comb(n_sl, n_h - j) * math.comb(n_sr, j) * (-1) ** (n_sr - j)
                for j in range(max(0, n_h - n_sl), min(n_sr, n_h) + 1))
        column[n_h] = k * math.sqrt(f(n_h) * f(n_s - n_h) / (f(n_sl) * f(n_sr) * 2 ** n_s))
    return column


def _ket_eigenpairs(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block model of (n_sL, n_sR, n_p) and the linear components that
    hold the circular ket |1; n_sL, n_sR, n_p>, in one longdouble Jacobi call:
    the block is the last row of the components' zero-padded stack
    (_pp_components), all its slots scratch.  Returns the components'
    eigenvalues, their overlaps (v^T ket)^2 and whether each is of the
    component of |1; n_s H photons, n_p>, then the block's eigenvalues; the
    padded eigenpairs, eigenvalue 0 on a padded slot, are dropped."""
    block = build_pp_block_matrix(params, n_sl, n_sr, n_p).matrix
    n_s = n_sl + n_sr
    space = make_space(5, (n_s + 1, n_s + 1, n_p + 1))
    scratch = space.total_dim
    column = _hadamard_column(n_sl, n_sr)
    (n_h,) = np.nonzero(column)
    kept = np.ravel_multi_index((0, n_h, n_s - n_h, n_p), space.dims)
    ket = np.zeros(scratch + 1)
    ket[kept] = column[n_h]
    index, blocks = _pp_components(params, space.mode_cutoffs, kept)
    grow = max(len(block) - index.shape[1], 0)
    index = np.pad(index, ((0, 1), (0, grow)), constant_values=scratch)
    blocks = np.pad(blocks, ((0, 1), (0, grow), (0, grow)))
    blocks[-1, :len(block), :len(block)] = block
    w, v = _jacobi_eigh_longdouble(blocks)
    pad = index == scratch
    pad[-1] = np.arange(index.shape[1]) >= len(block)  # the block's own padding
    real = ~np.any((v != 0) & pad[:, :, None], axis=1)  # not a unit vector on a padded slot
    overlaps = np.einsum("bji,bj->bi", v[:-1], ket[index[:-1]]).astype(np.float64) ** 2
    own = (index[:-1] == space.index_of(0, (n_s, 0, n_p))).any(1)[:, None] & real[:-1]
    return w[:-1][real[:-1]], overlaps[real[:-1]], own[real[:-1]], w[-1][real[-1]]


def compare_block_to_full(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                          ) -> dict[str, float]:
    """Measure how far the block model is from the route-resolved scheme.

    Diagonalizes the full PP Hamiltonian around the reference ket
    |1, (n_sL, n_sR), n_p> and reports, against the block model's
    smallest-|.| eigenvalue, the largest-overlap eigenpair of the block's
    own channel, the component of |1; n_s H photons, n_p> (`lambda_full`),
    and of all other channels (`lambda_full_second`): a circular ket also
    holds V photons, whose pairs with 2- the probe never reaches (light
    shift -xi_s^2 / delta at n_s = 1).  With both circular occupations
    nonzero the block is the own channel plus 2-, so `relative_difference`
    is rounding; with one zero it is the single-route chain, about 0.5 off.
    The other channels are model discrepancies, reported, not asserted
    away.  The ket is rotated into the linear basis in closed form
    (_hadamard_column), and only the components where it is nonzero (at
    most 5 states each) are diagonalized, together with the block in one
    extended-precision Jacobi call: the eigenvalues of interest sit ~16
    decades below the matrix norm in deep hierarchies.
    """
    w_full, overlaps, own, w_block = _ket_eigenpairs(params, n_sl, n_sr, n_p)
    lam_block = float(w_block[np.argmin(np.abs(w_block))])
    first, second = (np.flatnonzero(m)[np.argmax(overlaps[m])] for m in (own, ~own))
    return {
        "lambda_block": lam_block,
        "lambda_full": float(w_full[first]),
        "overlap": float(overlaps[first]),
        "lambda_full_second": float(w_full[second]),
        "overlap_second": float(overlaps[second]),
        "relative_difference": _rel_err(float(w_full[first]), lam_block),
    }
