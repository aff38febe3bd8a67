"""Truncated multimode Fock-space representation.

Dense complex linear algebra for a composite system made of one multilevel
atom and an ordered list of truncated bosonic modes.  The basis index runs
row-major: the atomic level is the slowest index, the last mode is the
fastest, so index = ravel((level, n_0, n_1, ...)) over the shape
(atom_dim, cutoff_0, cutoff_1, ...).

Conventions used throughout the package:

* hbar = 1; every energy and Rabi frequency is an angular frequency.
* Time evolution is exp(-i H t).  A diagonal H (every effective QND
  Hamiltonian) multiplies each amplitude by its own phase; any other H is
  eigendecomposed.  Either way the phases come from exact eigenvalues, so
  arbitrarily long phase-accumulation times stay exact.
* A mode with cutoff c holds photon numbers 0 .. c-1.  The annihilation
  operator is truncated: a|c-1> = sqrt(c-1)|c-2> and no level above the
  cutoff exists.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "HilbertSpace",
    "StateVector",
    "DensityMatrix",
    "Operator",
    "make_space",
    "annihilation_op",
    "creation_op",
    "number_op",
    "atom_transition_op",
    "default_cutoff",
    "coherent_truncation_loss",
    "coherent_state",
    "basis_state",
    "tensor_state",
    "hermitian_eig",
    "evolve",
    "partial_trace",
    "fidelity",
]

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_POS_TOL = 1e-10
_JACOBI_SWEEPS = 60  # a cap only: each matrix stops once converged or stagnated


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space: one atom factor times truncated bosonic modes.

    atom_dim = 1 means "no atom" (the factor is trivial).
    """

    atom_dim: int
    mode_cutoffs: tuple[int, ...]

    def __post_init__(self):
        if self.atom_dim < 1:
            raise ValueError(f"atom_dim must be >= 1, got {self.atom_dim}")
        object.__setattr__(self, "mode_cutoffs", tuple(int(c) for c in self.mode_cutoffs))
        if any(c < 1 for c in self.mode_cutoffs):
            raise ValueError(f"every mode cutoff must be >= 1, got {self.mode_cutoffs}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        """Factor dimensions, atom first."""
        return (self.atom_dim, *self.mode_cutoffs)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def index_of(self, atom_level: int, occupations: Sequence[int]) -> int:
        """Flat basis index of |atom_level, n_0, n_1, ...>."""
        occupations = tuple(occupations)
        if len(occupations) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} occupation numbers, got {len(occupations)}")
        return int(np.ravel_multi_index((atom_level, *occupations), self.dims))

    def unpack(self, index: int) -> tuple[int, tuple[int, ...]]:
        """Inverse of index_of: (atom_level, occupations)."""
        multi = np.unravel_index(index, self.dims)
        return int(multi[0]), tuple(int(n) for n in multi[1:])


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a HilbertSpace."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, space needs ({self.space.total_dim},)"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # also refuses NaN
            raise ValueError(f"state not normalized: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        _check_same_space(self.space, other.space)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def expectation(self, op: "Operator") -> complex:
        _check_same_space(self.space, op.space)
        return complex(np.vdot(self.amplitudes, op.matrix @ self.amplitudes))

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.space.total_dim
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {n}")
        herm_dev = np.max(np.abs(m - m.conj().T))
        if herm_dev > _HERM_TOL:
            raise ValueError(f"density matrix not Hermitian: max |M - M^+| = {herm_dev:g}")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= _NORM_TOL:  # also refuses NaN
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        evmin = float(np.linalg.eigvalsh(m).min())
        if evmin < -_POS_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {evmin:g}")
        object.__setattr__(self, "matrix", _readonly(m))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def expectation(self, op: "Operator") -> complex:
        _check_same_space(self.space, op.space)
        return complex(np.trace(self.matrix @ op.matrix))


@dataclass(frozen=True)
class Operator:
    """Dense operator over a HilbertSpace.

    hermitian_flag is an assertion, verified at construction when set.
    """

    space: HilbertSpace
    matrix: np.ndarray
    hermitian_flag: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.space.total_dim
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {n}")
        if self.hermitian_flag:
            dev = np.max(np.abs(m - m.conj().T))
            if dev > _HERM_TOL:
                raise ValueError(f"hermitian_flag set but max |M - M^+| = {dev:g}")
        object.__setattr__(self, "matrix", _readonly(m))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T, self.hermitian_flag)


def _check_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise ValueError(f"space mismatch: {a} vs {b}")


def make_space(atom_dim: int, mode_cutoffs: Iterable[int]) -> HilbertSpace:
    """Build a HilbertSpace; rejects non-positive dimensions."""
    return HilbertSpace(int(atom_dim), tuple(mode_cutoffs))


def _coupling_table(space: HilbertSpace, detunings: Sequence[tuple[int, float]],
                    couplings: Sequence[tuple[float, int, int, int | None]]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An operator as (row, col, value) entries, from its level rules.

    detunings: (level, energy) pairs, giving energy |level><level|.
    couplings: (amplitude, upper, lower, mode) rules, giving
    amplitude a_mode |upper><lower|; mode None is a classical field.
    A coupling entry joins |lower, n> (col) to |upper, n - 1_mode> (row)
    with value amplitude sqrt(n_mode).  The ladder and transition
    operators and the scheme Hamiltonians are all scattered from such
    tables (_scatter).
    """
    grid = np.indices(space.dims).reshape(len(space.dims), -1)
    rows, cols, vals = [], [], []
    for level, energy in detunings:
        (idx,) = np.nonzero(grid[0] == level)
        rows.append(idx)
        cols.append(idx)
        vals.append(np.full(idx.size, float(energy)))
    for amplitude, upper, lower, mode in couplings:
        src = grid[0] == lower
        if mode is not None:
            src &= grid[mode + 1] > 0
        (col,) = np.nonzero(src)
        dst = grid[:, col]
        dst[0] = upper
        value = np.full(col.size, float(amplitude))
        if mode is not None:
            value *= np.sqrt(dst[mode + 1])
            dst[mode + 1] -= 1
        rows.append(np.ravel_multi_index(dst, space.dims))
        cols.append(col)
        vals.append(value)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _scatter(space: HilbertSpace, table: tuple[np.ndarray, np.ndarray, np.ndarray],
             hermitian: bool) -> Operator:
    """A coupling table as a dense Operator; hermitian adds each entry's
    transpose (the h.c. of every rule) and sets hermitian_flag."""
    rows, cols, vals = table
    m = np.zeros((space.total_dim, space.total_dim))
    m[rows, cols] = vals
    if hermitian:
        m[cols, rows] = vals
    return Operator(space, m, hermitian_flag=hermitian)


def _check_mode(space: HilbertSpace, mode: int) -> None:
    if not (0 <= mode < space.n_modes):
        raise ValueError(f"mode index {mode} out of range for {space.n_modes} modes")


def annihilation_op(space: HilbertSpace, mode: int) -> Operator:
    """Truncated annihilation operator on one mode: <n-1|a|n> = sqrt(n)."""
    _check_mode(space, mode)
    rules = [(1.0, level, level, mode) for level in range(space.atom_dim)]
    return _scatter(space, _coupling_table(space, [], rules), hermitian=False)


def creation_op(space: HilbertSpace, mode: int) -> Operator:
    return annihilation_op(space, mode).dagger()


def _occupations(space: HilbertSpace, mode: int) -> np.ndarray:
    """Photon number of one mode at every flat basis index (float)."""
    _check_mode(space, mode)
    n = np.indices(space.dims, dtype=float, sparse=True)[mode + 1]
    return np.broadcast_to(n, space.dims).ravel()


def number_op(space: HilbertSpace, mode: int) -> Operator:
    """Diagonal photon-number operator of one mode."""
    return Operator(space, np.diag(_occupations(space, mode).astype(complex)))


def atom_transition_op(space: HilbertSpace, i: int, j: int) -> Operator:
    """|i><j| on the atom, identity on all modes."""
    if not (0 <= i < space.atom_dim and 0 <= j < space.atom_dim):
        raise ValueError(f"atom levels ({i}, {j}) out of range for atom_dim {space.atom_dim}")
    return _scatter(space, _coupling_table(space, [], [(1.0, i, j, None)]), hermitian=(i == j))


def default_cutoff(alpha: complex) -> int:
    """Truncation policy for coherent states: ceil(|a|^2 + 8|a| + 10).

    Keeps the truncation loss below 1e-9 for |a| <= 5.
    """
    a = abs(alpha)
    return int(math.ceil(a * a + 8 * a + 10))


_LOG_TINY = -700.0  # e^-700 ~ 1e-304, inside the normal double range


def _coherent_amplitudes(cutoff: int, alpha: complex) -> np.ndarray:
    """Unnormalized truncated coefficients alpha^n e^{-|a|^2/2} / sqrt(n!).

    The recurrence c_n = c_{n-1} alpha / sqrt(n) runs as one cumulative
    product from c_0 = e^{-|a|^2/2}.  For |a| > ~37 that prefactor
    underflows, so the product starts instead at the first n whose
    log|c_n| is at least _LOG_TINY, and the coefficients below it, all
    smaller than e^_LOG_TINY, are 0.  Every partial product is a
    coefficient, so nothing overflows.
    """
    r = abs(alpha)
    f = np.empty(cutoff, dtype=complex)
    root = np.sqrt(np.arange(1.0, cutoff))
    f.real[1:] = alpha.real / root  # componentwise: one rounding per part
    f.imag[1:] = alpha.imag / root
    log_c = -0.5 * r * r
    start = 0
    if log_c < _LOG_TINY:
        logs = log_c + np.concatenate([[0.0], np.cumsum(np.log(np.abs(f[1:])))])
        start = int(np.argmax(logs >= _LOG_TINY))  # 0 if none is: then every c_n is 0
        log_c = float(logs[start])
    f[start] = math.exp(log_c) * cmath.exp(1j * start * cmath.phase(alpha))
    f[:start] = 0.0
    f[start:] = np.cumprod(f[start:])
    return f


def coherent_truncation_loss(cutoff: int, alpha: complex) -> float:
    """Probability weight beyond the cutoff: 1 - sum_n<cutoff |c_n|^2."""
    c = _coherent_amplitudes(cutoff, alpha)
    return max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))


def coherent_state(cutoff: int, alpha: complex) -> StateVector:
    """Truncated coherent state, renormalized to exactly 1.

    Warns when the truncation loss exceeds 1e-9; use default_cutoff(alpha)
    to stay well below that.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    c = _coherent_amplitudes(cutoff, alpha)
    loss = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    if loss > 1e-9:
        warnings.warn(
            f"coherent state truncation loss {loss:.3e} at cutoff {cutoff} for |alpha|={abs(alpha):g}",
            stacklevel=2,
        )
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError(f"cutoff {cutoff} holds none of the weight of |alpha|={abs(alpha):g}")
    return StateVector(make_space(1, [cutoff]), c / norm)


def basis_state(space: HilbertSpace, atom_level: int, occupations: Sequence[int]) -> StateVector:
    """Computational basis ket |atom_level, n_0, n_1, ...>."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[space.index_of(atom_level, occupations)] = 1.0
    return StateVector(space, v)


def tensor_state(space: HilbertSpace, atom_level: int,
                 mode_states: Sequence[StateVector | np.ndarray]) -> StateVector:
    """Product state |atom_level> (x) |m_0> (x) |m_1> ... , normalized.

    Each mode factor is a single-mode StateVector or a raw amplitude vector
    of the matching cutoff length.
    """
    if not (0 <= atom_level < space.atom_dim):
        raise ValueError(f"atom level {atom_level} out of range for atom_dim {space.atom_dim}")
    if len(mode_states) != space.n_modes:
        raise ValueError(f"expected {space.n_modes} mode factors, got {len(mode_states)}")
    atom = np.zeros(space.atom_dim, dtype=complex)
    atom[atom_level] = 1.0
    out = atom
    for m, factor in enumerate(mode_states):
        vec = factor.amplitudes if isinstance(factor, StateVector) else np.asarray(factor, dtype=complex)
        if vec.shape != (space.mode_cutoffs[m],):
            raise ValueError(
                f"mode {m} factor has length {vec.shape}, cutoff is {space.mode_cutoffs[m]}"
            )
        out = np.kron(out, vec)
    norm = np.linalg.norm(out)
    if norm == 0:
        raise ValueError("tensor_state: a mode factor is the zero vector")
    return StateVector(space, out / norm)


def hermitian_eig(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    """
    if not op.hermitian_flag:
        raise ValueError("hermitian_eig requires an operator with hermitian_flag set")
    w, v = np.linalg.eigh(op.matrix)
    return w, v


def _require_extended_precision() -> None:
    """Refuse to run an extended-precision path where longdouble is plain double.

    numpy's longdouble is the 80-bit x87 format on x86-64 Linux but only
    a 64-bit double on some platforms (MSVC builds, macOS on ARM); there the
    quasidark phases would silently come back as rounding noise.
    """
    ld_eps, d_eps = np.finfo(np.longdouble).eps, np.finfo(np.float64).eps
    if not ld_eps <= d_eps / 1024:
        raise RuntimeError(
            f"extended precision unavailable: numpy longdouble eps is {float(ld_eps):.3g}, "
            f"not well below double eps {float(d_eps):.3g}; the quasidark eigenvalues of "
            "the five-level scheme cannot be resolved on this platform")


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Rounds of disjoint pairs (p < q) of 0..n-1; each pair occurs in exactly one round.

    Circle method: index 0 stays put while the others rotate; with odd n a
    phantom index n pairs with one real index per round, which then sits out.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        line = [0] + ring
        pairs = [sorted((line[i], line[m - 1 - i])) for i in range(m // 2)]
        pairs = [pq for pq in pairs if pq[1] < n]
        rounds.append((_readonly(np.array([p for p, _ in pairs], dtype=np.intp)),
                       _readonly(np.array([q for _, q in pairs], dtype=np.intp))))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _rotate_rows(x: np.ndarray, p: np.ndarray, q: np.ndarray, c: np.ndarray,
                 s: np.ndarray) -> None:
    """Rows (p, q) of every matrix in the stack x <- (c x_p - s x_q, s x_p + c x_q)."""
    xp, xq = x[:, p, :], x[:, q, :]
    c, s = c[:, :, None], s[:, :, None]
    x[:, p, :] = c * xp - s * xq
    x[:, q, :] = s * xp + c * xq


def _jacobi_eigh_longdouble(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi diagonalization of real symmetric matrices in longdouble.

    LAPACK only works in double precision; eigenvalues ~1e-16 below the
    matrix norm (the quasidark scale of deep-hierarchy schemes) drown in its
    eps*|H| noise.  80-bit arithmetic recovers them.

    `matrix` is one (n, n) matrix or a stack (B, n, n) of equal-size
    blocks, rotated together in one set of numpy operations.  A sweep
    visits every pair (p, q) once, in round-robin order: the disjoint pairs
    of a round rotate at once.  Each matrix stops rotating once it has
    converged or stagnated at its noise floor.  Returns eigenvalues
    ascending and eigenvectors as columns, batched like the input.
    """
    _require_extended_precision()
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        if np.max(np.abs(matrix.imag)) != 0.0:
            raise ValueError("extended-precision path supports real symmetric matrices only")
        matrix = matrix.real
    a = np.array(matrix, dtype=np.longdouble, ndmin=3)
    batch, n, _ = a.shape
    diag = np.arange(n)
    v = np.zeros_like(a)
    v[:, diag, diag] = 1
    eps = np.finfo(np.longdouble).eps
    live = np.ones(batch, dtype=bool)
    prev_off = np.full(batch, np.inf, dtype=np.longdouble)
    for _ in range(_JACOBI_SWEEPS):
        squares = a * a
        squares[:, diag, diag] = 0
        off = np.sqrt(np.sum(squares, axis=(1, 2)))
        live &= off < prev_off  # stagnated at the noise floor
        if not live.any():
            break
        prev_off = off
        rotated = np.zeros(batch, dtype=bool)
        for p, q in _round_robin(n):
            apq, app, aqq = a[:, p, q], a[:, p, p], a[:, q, q]
            # Relative test: a_pq is negligible only against its own diagonal
            # pair, so tiny eigenvalues keep their accuracy next to large ones.
            turn = live[:, None] & (np.abs(apq) > eps * np.sqrt(np.abs(app * aqq)))
            if not turn.any():
                continue
            rotated |= turn.any(axis=1)
            pairs = turn.any(axis=0)
            p, q, apq, app, aqq, turn = (p[pairs], q[pairs], apq[:, pairs], app[:, pairs],
                                         aqq[:, pairs], turn[:, pairs])
            theta = (aqq - app) / (2 * np.where(turn, apq, 1))
            t = np.where(theta == 0, 1,
                         np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1)))
            c = np.where(turn, 1 / np.sqrt(t * t + 1), 1)
            s = np.where(turn, t * c, 0)
            _rotate_rows(a, p, q, c, s)
            _rotate_rows(a.swapaxes(1, 2), p, q, c, s)
            _rotate_rows(v.swapaxes(1, 2), p, q, c, s)
        live &= rotated  # a sweep without a rotation has converged
    w = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    return (w[0], v[0]) if matrix.ndim == 2 else (w, v)


def evolve(h: Operator, psi: StateVector, t: float, extended: bool = False) -> StateVector:
    """exp(-i H t) |psi>.

    When every off-diagonal entry of H is exactly zero the amplitudes are
    multiplied by exp(-i H_kk t) one by one; otherwise H is eigendecomposed.
    extended=True reduces the accumulated phases mod 2 pi in longdouble
    before exponentiating, and eigendecomposes a non-diagonal H by
    extended-precision Jacobi (real symmetric H only); required when
    |H| * t is so large that double-precision eigenvalue noise corrupts the
    slow phases of interest.
    """
    if not h.hermitian_flag:
        raise ValueError("evolve requires a Hermitian operator")
    _check_same_space(h.space, psi.space)
    m = h.matrix
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag):  # no nonzero off the diagonal
        return _evolve_diagonal(diag.real, psi, t, extended)
    if extended:
        return _evolve_sectors(psi, [(np.arange(len(m)), m)], t)
    w, v = np.linalg.eigh(m)
    amps = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amplitudes))
    return _unitary_result(psi.space, amps)


def _evolve_diagonal(w: np.ndarray, psi: StateVector, t: float,
                     extended: bool = False) -> StateVector:
    """exp(-i H t) |psi> for H = diag(w): each amplitude times its own phase."""
    if extended:
        phases = _phases_longdouble(w.astype(np.longdouble), t)
    else:
        phases = np.exp(-1j * w * t)
    return _unitary_result(psi.space, phases * psi.amplitudes)


def _evolve_sectors(psi: StateVector, sectors: Iterable[tuple[np.ndarray, np.ndarray]],
                    t: float) -> StateVector:
    """exp(-i H t) |psi> for a real symmetric H that is block diagonal over `sectors`.

    Each sector is (index, block): the flat basis indices of one invariant
    subspace and H restricted to it.  Only sectors that hold amplitude of
    psi are diagonalized, by the longdouble Jacobi, one batch per block
    size; psi's other amplitudes are zero and stay zero.
    """
    amps0 = psi.amplitudes
    by_size: dict[int, list] = {}
    for index, block in sectors:
        if np.any(amps0[index]):
            by_size.setdefault(len(index), []).append((index, block))
    amps = np.zeros_like(amps0)
    for group in by_size.values():
        index = np.stack([i for i, _ in group])
        w, v = _jacobi_eigh_longdouble(np.stack([b for _, b in group]))
        v64 = v.astype(np.float64)
        coeffs = _phases_longdouble(w, t) * np.einsum("bji,bj->bi", v64, amps0[index])
        amps[index] = np.einsum("bij,bj->bi", v64, coeffs)
    return _unitary_result(psi.space, amps)


def _unitary_result(space: HilbertSpace, amps: np.ndarray) -> StateVector:
    """Evolved amplitudes as a state, refusing any that lost unitarity."""
    raw_norm = np.linalg.norm(amps)
    if not abs(raw_norm - 1.0) <= 1e-10:  # also refuses NaN
        raise ArithmeticError(f"evolution lost unitarity: |psi| = {raw_norm!r}")
    return StateVector(space, amps / raw_norm)


def _phases_longdouble(w: np.ndarray, t: float) -> np.ndarray:
    """exp(-i w t) with w t reduced mod 2 pi in longdouble."""
    _require_extended_precision()
    wt = np.mod(w * np.longdouble(t), 2 * np.arccos(np.longdouble(-1)))
    return np.exp(-1j * wt.astype(np.float64))


def _resolve_keep(space: HilbertSpace, keep) -> tuple[bool, tuple[int, ...]]:
    keep_atom = False
    keep_modes: list[int] = []
    for item in keep:
        if item == "atom":
            keep_atom = True
        else:
            m = int(item)
            _check_mode(space, m)
            keep_modes.append(m)
    if not keep_atom and not keep_modes:
        raise ValueError("partial_trace: empty keep selector")
    return keep_atom, tuple(sorted(set(keep_modes)))


def partial_trace(state: StateVector | DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not named in `keep`.

    `keep` is an iterable of "atom" and/or mode indices.  The reduced state
    lives on a space whose atom factor is trivial (atom_dim = 1) when the
    atom is traced out, with the kept modes in their original order.  A
    pure state is reduced straight from its amplitudes, without forming
    the full density matrix.
    """
    space = state.space
    keep_atom, keep_modes = _resolve_keep(space, keep)
    dims = space.dims
    n_fac = len(dims)
    keep_factors = ([0] if keep_atom else []) + [m + 1 for m in keep_modes]

    if isinstance(state, StateVector):
        psi = state.amplitudes.reshape(dims)
        traced = [i for i in range(n_fac) if i not in keep_factors]
        reduced = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    else:
        letters = "abcdefghijklmnopqrstuvwxyz"
        if 2 * n_fac > len(letters):
            raise ValueError("too many factors for partial trace")
        row = list(letters[:n_fac])
        col = [letters[n_fac + i] if i in keep_factors else row[i] for i in range(n_fac)]
        out_idx = "".join(row[i] for i in keep_factors) + "".join(col[i] for i in keep_factors)
        subscripts = "".join(row) + "".join(col) + "->" + out_idx
        reduced = np.einsum(subscripts, state.matrix.reshape(dims + dims))

    new_atom = space.atom_dim if keep_atom else 1
    new_cutoffs = tuple(space.mode_cutoffs[m] for m in keep_modes)
    new_space = make_space(new_atom, new_cutoffs if new_cutoffs else [1])
    d = new_space.total_dim
    reduced = reduced.reshape(d, d)
    reduced = 0.5 * (reduced + reduced.conj().T)  # scrub contraction roundoff dust
    return DensityMatrix(new_space, reduced)


def fidelity(a: StateVector | DensityMatrix, b: StateVector | DensityMatrix) -> float:
    """State fidelity.

    Pure-pure: |<a|b>|^2.  Pure-mixed: <a|rho|a>.  Mixed-mixed: Uhlmann
    fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    _check_same_space(a.space, b.space)
    a_pure = isinstance(a, StateVector)
    b_pure = isinstance(b, StateVector)
    if a_pure and b_pure:
        return float(np.clip(abs(a.overlap(b)) ** 2, 0.0, 1.0))
    if a_pure != b_pure:
        psi = a if a_pure else b
        rho = b if a_pure else a
        val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real
        return float(np.clip(val, 0.0, 1.0))
    w, v = np.linalg.eigh(a.matrix)
    w = np.clip(w, 0.0, None)
    sqrt_a = (v * np.sqrt(w)) @ v.conj().T
    inner = sqrt_a @ b.matrix @ sqrt_a
    ev = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.clip(np.sum(np.sqrt(ev)) ** 2, 0.0, 1.0))
