"""Truncated multimode Fock-space representation.

Dense complex linear algebra for a composite system made of one multilevel
atom and an ordered list of truncated bosonic modes.  The basis index runs
row-major: the atomic level is the slowest index, the last mode is the
fastest, so index = ravel((level, n_0, n_1, ...)) over the shape
(atom_dim, cutoff_0, cutoff_1, ...).

Conventions used throughout the package:

* hbar = 1; every energy and Rabi frequency is an angular frequency.
* Time evolution is exp(-i H t), exact at any t (see evolve).
* A mode with cutoff c holds photon numbers 0 .. c-1.  The annihilation
  operator is truncated: a|c-1> = sqrt(c-1)|c-2> and no level above the
  cutoff exists; a^+ is annihilation_op(...).matrix.conj().T.
* Every generic block split is _sectors(label): one (B, s) stack of flat
  indices per block size s, labelled by a conserved number (the pair
  n_i + n_j) or by connected component of a real symmetric matrix's
  nonzero pattern (_components; _sector_blocks gathers the matching
  (B, s, s) blocks from the matrix).  The five-level components, at most
  5 states, are built in closed form as one zero-padded stack
  (schemes._pp_components), so they cost one Jacobi call.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import os
import sys
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
    "MAX_STATE_SIZE",
]

# The most complex numbers one state of the library may ask for: larger
# states are refused, naming the size, before anything is allocated.
MAX_STATE_SIZE = 10**7
_PACKAGE_DIR = os.path.dirname(__file__)  # a warning points at the first frame outside it,
_CLI_FILE = os.path.join(_PACKAGE_DIR, "cli.py")  # or at the CLI's line

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_POS_TOL = 1e-10
_JACOBI_SWEEPS = 60  # a cap only: each matrix stops once converged or stagnated
_TWO_PI = 2 * np.arccos(np.longdouble(-1))  # 2 pi in longdouble, for the phase reduction


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
        object.__setattr__(self, "atom_dim", int(self.atom_dim))
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

    @functools.cached_property  # exact Python ints, computed on the first access
    def total_dim(self) -> int:
        return math.prod(self.dims)

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
            raise ValueError(f"state not normalized: |psi| = {float(norm)!r}")
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
        _check_density(m)
        object.__setattr__(self, "matrix", _readonly(m))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def _hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """max |M - M^+| of each matrix of m (shape (..., n, n)); NaN where M
    holds a NaN or an infinity."""
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))


def _check_density(m: np.ndarray) -> None:
    """DensityMatrix's checks on one (n, n) matrix or a stack (..., n, n):
    unit trace, Hermitian and positive semidefinite, by one stacked eigvalsh."""
    tr = np.trace(m, axis1=-2, axis2=-1).real.ravel()
    bad = ~(np.abs(tr - 1.0) <= _NORM_TOL)  # also refuses NaN
    if bad.any():
        raise ValueError(f"density matrix trace is {float(tr[bad][0])!r}, expected 1")
    herm_dev = np.max(_hermitian_deviation(m))
    if not herm_dev <= _HERM_TOL:  # also refuses NaN
        raise ValueError(f"density matrix not Hermitian: max |M - M^+| = {herm_dev:g}")
    evmin = float(np.linalg.eigvalsh(m).min())
    if evmin < -_POS_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evmin:g}")


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
            dev = _hermitian_deviation(m)
            if not dev <= _HERM_TOL:  # also refuses NaN
                raise ValueError(f"hermitian_flag set but max |M - M^+| = {dev:g}")
        object.__setattr__(self, "matrix", _readonly(m))


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
    tables (_scatter).  A longdouble amplitude makes the values longdouble.
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
        value = np.full(col.size, amplitude, dtype=np.result_type(amplitude, float))
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


def _sectors(label: np.ndarray) -> list[np.ndarray]:
    """Flat indices grouped by an integer label: one (B, s) stack per sector
    size s, sizes ascending, rows in label order, each row ascending."""
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == s, None] + np.arange(s)] for s in np.unique(sizes)]


def _components(rows: np.ndarray, cols: np.ndarray, size: int) -> np.ndarray:
    """Connected components of the graph on 0..size-1 with edges (rows, cols),
    each index labelled by the smallest index of its component: label
    propagation along the edges plus pointer jumping, until nothing changes."""
    label, prev = np.arange(size), None
    while not np.array_equal(label, prev):
        prev = label.copy()
        np.minimum.at(label, rows, prev[cols])
        np.minimum.at(label, cols, label[rows])
        label = label[label]
    return label


def _sector_blocks(lower: np.ndarray, keep: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The real symmetric matrix whose lower triangle is `lower`, as (index,
    blocks) per block size: the connected components of its nonzero pattern
    that hold a flat index in `keep`.  index (B, s) is those rows of
    _sectors(_components(...)), in order, and no size without one; blocks
    (B, s, s) the matrix on each row, in lower's dtype."""
    rows, cols = np.nonzero(lower)
    label = _components(rows, cols, len(lower))
    kept = np.flatnonzero(np.isin(label, label[keep]))
    full = lower + np.tril(lower, -1).T
    return [(index, full[index[:, :, None], index[:, None, :]])
            for index in (kept[group] for group in _sectors(label[kept]))]


def _photon_number(name: str, n: int) -> int:
    """A photon number as a Python int; ValueError naming it unless it is an
    integer (numpy's too, but not a bool), so no numpy scalar reaches a record."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer photon number, got {name} = {n!r}")
    return int(n)


def _check_mode(space: HilbertSpace, mode: int) -> None:
    if not (0 <= mode < space.n_modes):
        raise ValueError(f"mode index {mode} out of range for {space.n_modes} modes")


def annihilation_op(space: HilbertSpace, mode: int) -> Operator:
    """Truncated annihilation operator on one mode: <n-1|a|n> = sqrt(n)."""
    _check_mode(space, mode)
    rules = [(1.0, level, level, mode) for level in range(space.atom_dim)]
    return _scatter(space, _coupling_table(space, [], rules), hermitian=False)


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

    Keeps the truncation loss below 1e-9 for |a| <= 5.  A ValueError names
    |alpha| where the size is not a finite number (|a| above ~1e154, inf, NaN).
    """
    a = abs(alpha)
    size = a * a + 8 * a + 10
    if not math.isfinite(size):
        raise ValueError(f"no default cutoff for |alpha| = {a!r}: |a|^2 + 8|a| + 10 is not finite")
    return int(math.ceil(size))


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


def _check_size(size: int, what: str) -> None:
    """Refuse a state of more than MAX_STATE_SIZE complex numbers; `what`
    names the arguments that ask for it."""
    if not size <= MAX_STATE_SIZE:
        raise ValueError(f"{what} asks for a state of {size} complex numbers, "
                         f"more than {MAX_STATE_SIZE:.0e}")


def _coherent_probe(cutoff: int | None, alpha: complex, copies: int = 1) -> np.ndarray:
    """The amplitudes of coherent_state, without the StateVector: the
    truncated coefficients over their norm, default_cutoff(alpha) of them
    when cutoff is None.  Refuses cutoff < 1, a caller's state of copies *
    cutoff numbers above MAX_STATE_SIZE (before allocating the probe), a
    non-finite alpha and a cutoff that holds none of the weight; warns on a
    truncation loss above 1e-9, pointing at the first frame outside the
    package or in cli.py, so every public route warns its own caller and a
    CLI run names the command's line, not runpy's."""
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    _check_size(copies * cutoff, f"{copies} x probe cutoff {cutoff}")
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude alpha must be finite, got alpha = {alpha!r}")
    c = _coherent_amplitudes(cutoff, alpha)
    loss = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    if loss > 1e-9:
        frame, level = sys._getframe(), 1  # no skip_file_prefixes before Python 3.12
        while frame is not None and frame.f_code.co_filename != _CLI_FILE \
                and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"coherent state truncation loss {loss:.3e} at cutoff {cutoff} for |alpha|={abs(alpha):g}",
            stacklevel=level,
        )
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError(f"cutoff {cutoff} holds none of the weight of |alpha|={abs(alpha):g}")
    return c / norm


def coherent_state(cutoff: int, alpha: complex) -> StateVector:
    """Truncated coherent state, renormalized to exactly 1.

    Warns when the truncation loss exceeds 1e-9; use default_cutoff(alpha)
    to stay well below that.  A ValueError names alpha unless it is finite.
    """
    return StateVector(make_space(1, [cutoff]), _coherent_probe(cutoff, alpha))


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
    """Rounds of disjoint pairs (p < q) of 0..n-1, each as (entries, pairs).

    `entries` (3, k) holds the flat indices of a_pq, a_pp and a_qq of the
    round's k pairs in one matrix's [a | v^T] (n rows of width 2n), and
    `pairs` (k, 2) the pairs themselves, which index the pair rows of
    [a | v^T] and a's pair columns.  Each pair occurs in exactly one round.
    Circle method: index 0 stays put while the others rotate; with odd n a
    phantom index n pairs with one real index per round, which then sits out.
    """
    m, width = n + n % 2, 2 * n
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        line = [0] + ring
        pairs = [sorted((line[i], line[m - 1 - i])) for i in range(m // 2)]
        pairs = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).reshape(-1, 2)
        p, q = pairs.T
        entries = np.stack([p * width + q, p * (width + 1), q * (width + 1)])
        rounds.append((_readonly(entries), _readonly(pairs)))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _jacobi_eigh_longdouble(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi diagonalization of real symmetric matrices in longdouble.

    LAPACK only works in double precision; eigenvalues ~1e-16 below the
    matrix norm (the quasidark scale of deep-hierarchy schemes) drown in its
    eps*|H| noise.  80-bit arithmetic recovers them.

    `matrix` is one (n, n) matrix or a stack (B, n, n) of equal-size
    blocks, rotated together in one set of numpy operations.  A sweep
    visits every pair (p, q) once, in round-robin order: the disjoint pairs
    of a round rotate at once, a pair that need not turn with c = 1, s = 0.
    A round reads a_pq, a_pp and a_qq of its k pairs in one gather from the
    flat [a | v^T] stack, forms c and s on those k pairs, and applies each
    pair's g = [[c, -s], [s, c]] as one (B, k, 2, 2) matmul: to the pair
    rows of [a | v^T] (a's rows and v's columns in one step), then to a's
    pair columns.  That is O(n) work per pair, and the index tables hold
    O(n) entries per round; no round forms an n x n rotation.

    Stopping rule.  Each sweep starts from every matrix's off-diagonal
    norm; a matrix whose norm did not fall below the last sweep's stops
    turning: it stagnated at its noise floor, or it turned nothing and kept
    its norm.  A round's test reads entries that only a rotation changes,
    so a round already tested without a turn since the stack's last
    rotation is not tested again: once every round has been (the rounds
    after the last rotation of one sweep and those up to it in the next),
    nothing can turn, and the call ends without the rest of that sweep or
    a further norm.  The rotations are those of a run that tests every
    round of every sweep, bit for bit.  Returns eigenvalues ascending and
    eigenvectors as columns, batched like the input.
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
    av = np.concatenate([a, np.zeros_like(a)], axis=2)
    a, vt = av[:, :, :n], av[:, :, n:]
    vt[:, diag, diag] = 1
    a_diag, a_cols = np.diagonal(a, axis1=1, axis2=2), a.swapaxes(1, 2)
    flat = av.reshape(-1)  # a view: each round's gather reads the current entries
    eps = np.finfo(np.longdouble).eps
    # 0-d longdouble operands: numpy converts a Python int, or even a numpy
    # scalar, on every call, which costs more than these small rounds' arithmetic
    zero, one, two = (np.array(x, dtype=np.longdouble) for x in (0, 1, 2))
    live = np.ones(batch, dtype=bool)
    live_col = live[:, None]  # a view: follows the in-place updates of live
    prev_off = np.full(batch, np.inf, dtype=np.longdouble)
    g = np.empty((batch, n // 2, 2, 2), dtype=np.longdouble)  # each pair's [[c, -s], [s, c]]
    g_c, g_minus_s, g_s, g_c_qq = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    first = np.arange(batch)[:, None, None] * (2 * n * n)  # each matrix's offset in flat
    rounds = [(first + entries, pairs) for entries, pairs in _round_robin(n)]
    quiet = 0  # rounds tested without a turn since the stack's last rotation
    for _ in range(_JACOBI_SWEEPS):
        squares = a * a
        squares[:, diag, diag] = 0
        off = np.sqrt(squares.sum(axis=(1, 2)))
        live &= off < prev_off  # stagnated, or turned nothing last sweep
        if not np.count_nonzero(live):
            break
        prev_off = off
        for entries, pairs in rounds:
            x = flat[entries]
            apq, app, aqq = x[:, 0], x[:, 1], x[:, 2]
            # Relative test: a_pq is negligible only against its own diagonal
            # pair, so tiny eigenvalues keep their accuracy next to large ones.
            turn = live_col & (np.abs(apq) > eps * np.sqrt(np.abs(app * aqq)))
            if not np.count_nonzero(turn):
                quiet += 1
                if quiet == len(rounds):
                    break
                continue
            quiet = 0
            theta = (aqq - app) / (two * np.where(turn, apq, one))
            theta += zero  # -0 -> +0: t = 1 at theta = 0
            # sign(theta) / (|theta| + sqrt(theta^2 + 1)), with the sign moved
            # into the denominator: the same value, bit for bit
            t = one / (theta + np.copysign(np.sqrt(theta * theta + one), theta))
            t = np.where(turn, t, zero)
            c = one / np.sqrt(t * t + one)  # exactly 1 where t = 0
            s = t * c
            g_c[...], g_minus_s[...], g_s[...], g_c_qq[...] = c, -s, s, c
            # rows p, q <- (c x_p - s x_q, s x_p + c x_q): matmul sums
            # 0 + c x_p + (-s) x_q, the same value up to the sign of a zero
            av[:, pairs] = g @ av[:, pairs]  # a's rows and v's columns
            a_cols[:, pairs] = g @ a_cols[:, pairs]  # then a's columns
        if quiet == len(rounds):  # every round settled: nothing turns again
            break
    order = np.argsort(a_diag, axis=1)
    b = np.arange(batch)[:, None]
    w = a_diag[b, order]
    v = vt[b[:, :, None], order[:, None, :], diag[:, None]]  # v[:, i, j] = vt[:, order[:, j], i]
    return (w[0], v[0]) if matrix.ndim == 2 else (w, v)


def evolve(h: Operator, psi: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi>, for any finite t (ValueError naming t otherwise).

    A real symmetric H is cut into the connected components of its nonzero
    pattern (a diagonal H into 1 x 1 ones), and those holding amplitude go
    through _evolve_sectors: longdouble Jacobi and phases (RuntimeError where
    longdouble is plain double).  The Jacobi is O(n^3) per sweep on an
    n-state component: a dense real H of dimension 40, 100 or 200 takes
    ~0.02, 0.45 or 4.6 s on one core of a 2-vCPU Xeon VM.  A complex
    Hermitian H goes to LAPACK in double.
    """
    _check_time(t)
    if not h.hermitian_flag:
        raise ValueError("evolve requires a Hermitian operator")
    _check_same_space(h.space, psi.space)
    m = h.matrix
    if np.any(m.imag):
        w, v = np.linalg.eigh(m)
        amps = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amplitudes))
        return _unitary_result(psi.space, amps)
    sectors = _sector_blocks(np.tril(m.real), np.flatnonzero(psi.amplitudes))
    return _evolve_sectors([psi], sectors, t)[0]


def _evolve_diagonal(w: np.ndarray, psi: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi> for H = diag(w): each amplitude times exp(-i w t) in double."""
    _check_time(t)
    with np.errstate(over="ignore", invalid="ignore"):  # w t overflowing: NaN, refused below
        phases = np.exp(-1j * w * t)
    return _unitary_result(psi.space, phases * psi.amplitudes)


def _evolve_sectors(psis: Sequence[StateVector], sectors: Iterable[tuple[np.ndarray, np.ndarray]],
                    t: float) -> list[StateVector]:
    """exp(-i H t) |psi> for each of `psis`, for a real symmetric H that is
    block diagonal over `sectors`.

    `sectors` holds (index, blocks) stacks, one per block size as from
    _sector_blocks or one zero-padded stack as from schemes._pp_components
    (its padded slots read and write one scratch amplitude, then dropped),
    and must cover every amplitude of every psi; each stack is diagonalized
    by one longdouble Jacobi call and its phases w t reduced mod 2 pi in
    longdouble, once for all psis, and amplitudes outside it stay zero.
    """
    _check_time(t)
    amps0 = [np.append(psi.amplitudes, 0) for psi in psis]  # the scratch slot past the space
    amps = [np.zeros_like(a) for a in amps0]
    for index, blocks in sectors:
        w, v = _jacobi_eigh_longdouble(blocks)
        v64 = v.astype(np.float64)
        phase = np.exp(-1j * np.mod(w * np.longdouble(t), _TWO_PI).astype(np.float64))
        for a0, a in zip(amps0, amps):
            coeffs = phase * np.einsum("bji,bj->bi", v64, a0[index])
            a[index] = np.einsum("bij,bj->bi", v64, coeffs)
    return [_unitary_result(psi.space, a[:-1]) for psi, a in zip(psis, amps)]


def _check_time(t: float) -> None:
    """Refuse an evolution time that is not a finite number (inf, NaN): its
    phases w t are undefined.  Zero and negative times are valid."""
    if not math.isfinite(t):
        raise ValueError(f"evolution time t must be finite, got t = {t!r}")


def _unitary_result(space: HilbertSpace, amps: np.ndarray) -> StateVector:
    """Evolved amplitudes as a state, refusing any that lost unitarity."""
    raw_norm = np.linalg.norm(amps)
    _check_unitarity(raw_norm)
    return StateVector(space, amps / raw_norm)


def _check_unitarity(raw_norm: np.ndarray) -> None:
    """Refuse an evolved state, or any of an array of them, whose norm is
    not 1 to within 1e-10."""
    raw_norm = np.ravel(raw_norm)
    bad = ~(np.abs(raw_norm - 1.0) <= 1e-10)  # also refuses NaN
    if bad.any():
        raise ArithmeticError(f"evolution lost unitarity: |psi| = {float(raw_norm[bad][0])!r}")


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
        row = list(range(n_fac))  # einsum labels: a traced factor's column shares its row's
        col = [n_fac + i if i in keep_factors else i for i in range(n_fac)]
        out = [row[i] for i in keep_factors] + [col[i] for i in keep_factors]
        reduced = np.einsum(state.matrix.reshape(dims + dims), row + col, out)

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
