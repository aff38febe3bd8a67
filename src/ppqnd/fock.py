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
        if abs(norm - 1.0) > _NORM_TOL:
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
        if abs(tr - 1.0) > _NORM_TOL:
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

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.matrix + other.matrix,
                        self.hermitian_flag and other.hermitian_flag)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.matrix - other.matrix,
                        self.hermitian_flag and other.hermitian_flag)

    def __mul__(self, scalar: complex) -> "Operator":
        herm = self.hermitian_flag and (np.imag(scalar) == 0)
        return Operator(self.space, self.matrix * scalar, bool(herm))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_space(self.space, other.space)
        return Operator(self.space, self.matrix @ other.matrix, hermitian_flag=False)

    def apply(self, psi: StateVector) -> np.ndarray:
        """Raw matrix-vector product (not renormalized)."""
        _check_same_space(self.space, psi.space)
        return self.matrix @ psi.amplitudes

    def norm(self) -> float:
        """Spectral-norm upper bound (Frobenius)."""
        return float(np.linalg.norm(self.matrix))


def _check_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise ValueError(f"space mismatch: {a} vs {b}")


def make_space(atom_dim: int, mode_cutoffs: Iterable[int]) -> HilbertSpace:
    """Build a HilbertSpace; rejects non-positive dimensions."""
    return HilbertSpace(int(atom_dim), tuple(mode_cutoffs))


def _embed_mode_operator(space: HilbertSpace, mode: int, single: np.ndarray) -> np.ndarray:
    """Kron-embed a single-mode matrix at the given mode position."""
    out = np.eye(space.atom_dim, dtype=complex)
    for m, cut in enumerate(space.mode_cutoffs):
        factor = single if m == mode else np.eye(cut, dtype=complex)
        out = np.kron(out, factor)
    return out


def _check_mode(space: HilbertSpace, mode: int) -> None:
    if not (0 <= mode < space.n_modes):
        raise ValueError(f"mode index {mode} out of range for {space.n_modes} modes")


def annihilation_op(space: HilbertSpace, mode: int) -> Operator:
    """Truncated annihilation operator on one mode: <n-1|a|n> = sqrt(n)."""
    _check_mode(space, mode)
    cut = space.mode_cutoffs[mode]
    a = np.zeros((cut, cut), dtype=complex)
    for n in range(1, cut):
        a[n - 1, n] = math.sqrt(n)
    return Operator(space, _embed_mode_operator(space, mode, a), hermitian_flag=False)


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
    e = np.zeros((space.atom_dim, space.atom_dim), dtype=complex)
    e[i, j] = 1.0
    out = e
    for cut in space.mode_cutoffs:
        out = np.kron(out, np.eye(cut, dtype=complex))
    return Operator(space, out, hermitian_flag=(i == j))


def default_cutoff(alpha: complex) -> int:
    """Truncation policy for coherent states: ceil(|a|^2 + 8|a| + 10).

    Keeps the truncation loss below 1e-9 for |a| <= 5.
    """
    a = abs(alpha)
    return int(math.ceil(a * a + 8 * a + 10))


def _coherent_amplitudes(cutoff: int, alpha: complex) -> np.ndarray:
    """Unnormalized truncated coefficients alpha^n e^{-|a|^2/2} / sqrt(n!)."""
    c = np.empty(cutoff, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


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
    c = c / np.linalg.norm(c)
    return StateVector(make_space(1, [cutoff]), c)


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


def _jacobi_eigh_longdouble(matrix: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a real symmetric matrix in longdouble.

    LAPACK only works in double precision; eigenvalues ~1e-16 below the
    matrix norm (the quasidark scale of deep-hierarchy schemes) drown in its
    eps*|H| noise.  80-bit arithmetic recovers them.
    """
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        if np.max(np.abs(matrix.imag)) != 0.0:
            raise ValueError("extended-precision path supports real symmetric matrices only")
        matrix = matrix.real
    a = np.array(matrix, dtype=np.longdouble)
    n = a.shape[0]
    v = np.eye(n, dtype=np.longdouble)
    tol = np.finfo(np.longdouble).eps * np.sqrt(np.sum(a * a))
    prev_off = np.inf
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.longdouble(0), np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= tol or off >= prev_off:  # converged or stagnated at the noise floor
            break
        prev_off = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol / n:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * apq)
                if theta == 0:
                    t = np.longdouble(1)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    w = np.diag(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


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
        w = diag.real
        if extended:
            amps = _phases_longdouble(w.astype(np.longdouble), t) * psi.amplitudes
        else:
            amps = np.exp(-1j * w * t) * psi.amplitudes
    elif extended:
        w, v = _jacobi_eigh_longdouble(m)
        v64 = v.astype(np.float64)
        amps = v64 @ (_phases_longdouble(w, t) * (v64.T @ psi.amplitudes))
    else:
        w, v = np.linalg.eigh(m)
        amps = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amplitudes))
    raw_norm = np.linalg.norm(amps)
    if abs(raw_norm - 1.0) > 1e-10:
        raise ArithmeticError(f"evolution lost unitarity: |psi| = {raw_norm!r}")
    return StateVector(psi.space, amps / raw_norm)


def _phases_longdouble(w: np.ndarray, t: float) -> np.ndarray:
    """exp(-i w t) with w t reduced mod 2 pi in longdouble."""
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
