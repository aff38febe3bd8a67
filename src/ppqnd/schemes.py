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
  on 3-4.  Mode order is [s_L, s_R, p].

Atomic levels are indexed from 0, so scheme level "1" is index 0,
"2" is 1, "2'" is 2, "3" is 3, "4" is 4 in the PP scheme.

Also provided: the 5x5 single-excitation block model of the PP scheme and
the diagonal effective (QND) Hamiltonians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import (
    HilbertSpace,
    Operator,
    StateVector,
    _coupling_table,
    _jacobi_eigh_longdouble,
    _occupations,
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
    """

    delta_probe: float  # Delta, probe detuning
    delta_two: float    # delta, signal/drive (two-photon chain) detuning
    omega_d: float      # drive Rabi amplitude, >= 0
    xi_s: float         # per-photon signal coupling, >= 0
    xi_p: float         # per-photon probe coupling, >= 0

    def __post_init__(self):
        for name in ("omega_d", "xi_s", "xi_p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

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
              ) -> tuple[HilbertSpace, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The PP space and the coupling table of its Hamiltonian."""
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


class _Sector(NamedTuple):
    """One invariant subspace: ascending flat basis indices and H restricted to them."""

    index: np.ndarray
    block: np.ndarray


def _pp_sectors(params: SchemeParams, cutoff_sl: int, cutoff_sr: int, cutoff_p: int
                ) -> tuple[HilbertSpace, dict[tuple[int, int], _Sector]]:
    """The PP Hamiltonian split into its (N_s, N_p) sectors.

    N_s = n_sL + n_sR + [atom not in 1] and N_p = n_p + [atom in 4] are
    conserved entry by entry, truncation included: each rule of the
    coupling table moves one quantum between a mode and the atom.  So
    every table entry lands inside one real symmetric block, keyed by
    (N_s, N_p).  With signal cutoffs 2 no block is wider than 9 states;
    an N_s = 1 block holds the 6 route-resolved single-photon states
    |1; 1,0,n>, |1; 0,1,n>, |2; n>, |2'; n>, |3; n>, |4; n-1>, fewer at the
    edges of the probe range.
    """
    space, (rows, cols, vals) = _pp_table(params, cutoff_sl, cutoff_sr, cutoff_p)
    level, n_l, n_r, n_p = np.indices(space.dims).reshape(4, -1)
    base = cutoff_p + 1  # N_p <= cutoff_p
    label = (n_l + n_r + (level != 0)) * base + n_p + (level == 4)
    order = np.argsort(label, kind="stable")
    labels, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    sector = np.empty_like(order)
    sector[order] = np.repeat(np.arange(labels.size), sizes)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size) - np.repeat(starts, sizes)
    width = sizes.max()
    blocks = np.zeros((labels.size, width, width))
    blocks[sector[rows], pos[rows], pos[cols]] = vals
    blocks[sector[rows], pos[cols], pos[rows]] = vals
    return space, {
        divmod(int(key), base): _Sector(order[start:start + size], blocks[k, :size, :size])
        for k, (key, start, size) in enumerate(zip(labels, starts, sizes))}


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


def _pp_block_stack(params: np.ndarray, n_s: np.ndarray, n_p: np.ndarray) -> np.ndarray:
    """(B, 5, 5) symmetric blocks on {|1>, |2>, |2'>, |3>, |4>}, one per row.

    params is (B, 5) in SchemeParams field order (Delta, delta, Omega_d,
    xi_s, xi_p); n_s = n_sL + n_sR and n_p are (B,) occupations.  Both
    signal legs carry xi_s sqrt(n_s / 2) and the probe leg xi_p sqrt(n_p).
    The characteristic polynomial of each block is the closed-form quintic
    at every occupation, n_sL n_sR = 0 included, since both depend on n_s
    only.  The antisymmetric (|2> - |2'>)/sqrt(2) is always an eigenvector
    with eigenvalue delta; at n_s = 0 or n_p = 0 the block is singular, as
    the closed form is through e = 0.
    """
    big_delta, delta, omega, xi_s, xi_p = np.asarray(params, dtype=float).T
    if np.any(omega < 0) or np.any(xi_s < 0) or np.any(xi_p < 0):
        raise ValueError("omega_d, xi_s and xi_p must be nonnegative")
    x = xi_s * np.sqrt(np.asarray(n_s) / 2.0)
    q = xi_p * np.sqrt(np.asarray(n_p, dtype=float))
    m = np.zeros((len(big_delta), 5, 5))
    for (i, j), value in (((0, 1), x), ((0, 2), x), ((1, 3), omega), ((2, 3), omega), ((3, 4), q)):
        m[:, i, j] = m[:, j, i] = value
    m[:, 1, 1] = m[:, 2, 2] = delta
    m[:, 4, 4] = big_delta
    return m


def build_pp_block_matrix(params: SchemeParams, n_sl: int, n_sr: int, n_p: int) -> PPBlockMatrix:
    """Block model of one (n_sL, n_sR, n_p) occupation: the route-symmetrized
    5x5 block, whose characteristic polynomial is the quintic, when both
    circular occupations are nonzero; the single-route 4x4 chain otherwise.

    The block basis deliberately does not resolve which circular route the
    signal excitation took, so for mixed occupations the two signal legs
    enter with the route-symmetrized amplitude xi_s sqrt(n_s/2) each
    (n_s = n_sL + n_sR).  That is the unique symmetric choice whose
    characteristic polynomial reproduces the closed-form quintic
    coefficients exactly for every occupation; the naive route-resolved
    entries xi_s sqrt(n_sL), xi_s sqrt(n_sR) differ from them by
    Omega_d^2 xi_s^2 (sqrt(n_sL) - sqrt(n_sR))^2 cross terms in the two
    lowest coefficients.  For n_sL = n_sR both choices coincide, and the
    route-resolved physics lives in build_pp_hamiltonian either way (see
    compare_block_to_full).  With one circular occupation zero the block
    is the single-route 4x4 chain (`reduced`), which has one drive leg:
    its characteristic polynomial is not the quintic (its dark root is the
    N-scheme shift, about twice the quintic's).  The secular analysis
    uses the 5x5 of _pp_block_stack at every occupation instead.
    """
    if n_sl < 0 or n_sr < 0 or n_sl + n_sr < 1:
        raise ValueError("need n_sL + n_sR >= 1 (a signal photon to detect)")
    if n_p < 1:
        raise ValueError("block model needs n_p >= 1 (the |4> state absorbs a probe photon)")
    delta, big_delta = params.delta_two, params.delta_probe
    omega, xi_s, xi_p = params.omega_d, params.xi_s, params.xi_p
    n_s = n_sl + n_sr

    if n_sl == 0 or n_sr == 0:
        x = xi_s * math.sqrt(n_s)
        q = xi_p * math.sqrt(n_p)
        m = np.array([
            [0.0, x, 0.0, 0.0],
            [x, delta, omega, 0.0],
            [0.0, omega, 0.0, q],
            [0.0, 0.0, q, big_delta],
        ])
        kept = "2" if n_sr == 0 else "2'"
        return PPBlockMatrix(m, ("1", kept, "3", "4"), reduced=True)

    row = [[big_delta, delta, omega, xi_s, xi_p]]
    m = _pp_block_stack(np.array(row), np.array([n_s]), np.array([n_p]))[0]
    return PPBlockMatrix(m, ("1", "2", "2'", "3", "4"), reduced=False)


def chi_from_params(params: SchemeParams) -> float:
    """Cross-Kerr coefficient of the N scheme: chi = -xi_s^2 xi_p^2 / (Delta Omega_d^2)."""
    if params.delta_probe == 0 or params.omega_d == 0:
        raise ValueError("chi requires Delta != 0 and Omega_d != 0")
    return -(params.xi_s ** 2) * (params.xi_p ** 2) / (params.delta_probe * params.omega_d ** 2)


def _cross_kerr_energies(space: HilbertSpace, chi: float, signal_modes: tuple[int, ...],
                         probe_mode: int) -> np.ndarray:
    """Diagonal of chi * (sum of the signal photon numbers) * n_probe, as a vector."""
    n_signal = sum(_occupations(space, m) for m in signal_modes)
    return chi * (n_signal * _occupations(space, probe_mode))


def _qnd_energies(chi: float, cutoff_s: int, cutoff_p: int) -> tuple[HilbertSpace, np.ndarray]:
    """Space and diagonal of qnd_hamiltonian, modes [s, p]."""
    space = make_space(1, [cutoff_s, cutoff_p])
    return space, _cross_kerr_energies(space, chi, (0,), 1)


def _ppqnd_energies(chi: float, cutoff_sl: int, cutoff_sr: int, cutoff_p: int,
                    sensitive: bool = False) -> tuple[HilbertSpace, np.ndarray]:
    """Space and diagonal of ppqnd_hamiltonian, or of sensitive_qnd_hamiltonian
    when sensitive; modes [s_L, s_R, p]."""
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
    return _diagonal_operator(*_ppqnd_energies(chi, cutoff_sl, cutoff_sr, cutoff_p))


def sensitive_qnd_hamiltonian(chi: float, cutoff_sl: int, cutoff_sr: int,
                              cutoff_p: int) -> Operator:
    """Polarization-sensitive control chi * n_sL * n_p, modes [s_L, s_R, p].

    Only the left-circular photon kicks the probe, so this Hamiltonian
    breaks the L/R symmetry that ppqnd_hamiltonian keeps; it serves as the
    control that shows the invariance and dephasing checks can fail.
    """
    return _diagonal_operator(*_ppqnd_energies(chi, cutoff_sl, cutoff_sr, cutoff_p,
                                               sensitive=True))


def compare_block_to_full(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                          ) -> dict[str, float]:
    """Measure how far the block model is from the route-resolved scheme.

    Diagonalizes the full PP Hamiltonian with just-large-enough cutoffs and
    reports the two eigenpairs with the largest overlap on the reference
    ket |1, (n_sL, n_sR), n_p>, against the smallest-|.| eigenvalue of the
    block model.  Two channels, not one, because the full scheme couples
    the two circular routes through the shared upper level: the ground
    manifold splits into a bright combination that feels the probe and a
    dark one that does not, and a circular reference straddles both.  The
    block model sees none of this structure, so the reported gaps are
    physical model discrepancies, not numerics; they are reported rather
    than asserted away.  For n_s >= 2 the block basis additionally merges
    distinguishable Fock states and the gaps grow.

    Only the (N_s, N_p) = (n_sL + n_sR, n_p) sector of the reference ket is
    diagonalized: every eigenvector outside it has zero overlap on the ket.
    That sector holds at most 16 states for n_s <= 3, against a full space
    of 5 (n_s + 1)^2 (n_p + 1).  Both diagonalizations run in extended
    precision: the eigenvalues of interest sit ~16 decades below the
    matrix norm in deep hierarchies.
    """
    block = build_pp_block_matrix(params, n_sl, n_sr, n_p)
    w_block, _ = _jacobi_eigh_longdouble(block.matrix)
    lam_block = float(w_block[np.argmin(np.abs(w_block))])

    n_s = n_sl + n_sr
    space, sectors = _pp_sectors(params, n_s + 1, n_s + 1, n_p + 1)
    index, h = sectors[(n_s, n_p)]
    ref = int(np.searchsorted(index, space.index_of(0, (n_sl, n_sr, n_p))))
    w_full, v_full = _jacobi_eigh_longdouble(h)
    overlaps = v_full[ref].astype(np.float64) ** 2
    first, second = np.argsort(overlaps)[::-1][:2]

    denom = max(abs(lam_block), 1e-300)
    return {
        "lambda_block": lam_block,
        "lambda_full": float(w_full[first]),
        "overlap": float(overlaps[first]),
        "lambda_full_second": float(w_full[second]),
        "overlap_second": float(overlaps[second]),
        "relative_difference": abs(float(w_full[first]) - lam_block) / denom,
    }
