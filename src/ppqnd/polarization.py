"""Polarization-basis algebra on two signal modes.

Mode-operator basis changes are 2x2 unitaries u acting as

    a_i  ->  sum_j u_ij a_j        (operator convention)

States carry the conjugate: a single photon with amplitude column c in the
old basis reads u^+ c in the new one, while the active Fock-space lift
built here transforms single-photon amplitude columns by u itself
(U a_k^+ U^+ = sum_i u_ik a_i^+).  The circular-to-linear change is

    (a_L, a_R)^T = (1/sqrt(2)) [[1, i], [1, -i]] (a_H, a_V)^T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fock import HilbertSpace, Operator, _readonly, _sectors

__all__ = [
    "PolarizationQubit",
    "PolUnitary",
    "lr_to_hv",
    "lift_unitary",
    "check_invariance",
    "diagonal_invariance",
    "stokes_vector",
]


@dataclass(frozen=True)
class PolarizationQubit:
    """Single-photon polarization state c_L |1_L, 0> + c_R |0, 1_R>."""

    c_l: complex
    c_r: complex

    def __post_init__(self):
        norm2 = abs(self.c_l) ** 2 + abs(self.c_r) ** 2
        if not abs(norm2 - 1.0) <= 1e-12:  # a NaN amplitude fails too
            raise ValueError(f"qubit amplitudes not normalized: |c|^2 = {norm2!r}")

    @staticmethod
    def left() -> "PolarizationQubit":
        return PolarizationQubit(1.0, 0.0)

    @staticmethod
    def right() -> "PolarizationQubit":
        return PolarizationQubit(0.0, 1.0)

    @staticmethod
    def horizontal() -> "PolarizationQubit":
        return PolarizationQubit(1 / math.sqrt(2), 1 / math.sqrt(2))

    @staticmethod
    def vertical() -> "PolarizationQubit":
        return PolarizationQubit(1 / math.sqrt(2), -1 / math.sqrt(2))

    @staticmethod
    def normalized(c_l: complex, c_r: complex) -> "PolarizationQubit":
        n = math.sqrt(abs(c_l) ** 2 + abs(c_r) ** 2)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return PolarizationQubit(c_l / n, c_r / n)


@dataclass(frozen=True)
class PolUnitary:
    """2x2 unitary on the polarization pair."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
        _require_unitary(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _require_unitary(m: np.ndarray) -> None:
    """Raise ValueError unless every 2x2 matrix of m (shape (..., 2, 2)) is
    unitary to 1e-12; a NaN entry fails."""
    dev = np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(2)), axis=(-2, -1))
    bad = ~(dev <= 1e-12)
    if np.any(bad):
        raise ValueError(f"matrix not unitary: max |u^+ u - 1| = {dev[bad][0]:g}")


def lr_to_hv() -> PolUnitary:
    """Circular-to-linear mode map, rows (L, R), columns (H, V)."""
    s = 1 / math.sqrt(2)
    return PolUnitary(np.array([[s, 1j * s], [s, -1j * s]]))


def _principal_generator(u: np.ndarray) -> np.ndarray:
    """h = i log(u) for 2x2 unitaries u (shape (..., 2, 2)), principal branch,
    in closed form.

    A 2x2 unitary is u = c0 I + mu (n . sigma) with n a real unit vector and
    c0, mu complex, so its eigenvalues are c0 +- mu on the projectors
    P+- = (I +- n . sigma) / 2 and h = -(theta+ P+ + theta- P-) with each
    theta the eigenvalue's argument in (-pi, pi].  n is read off the Pauli
    components of u along the largest one; a scalar u has no direction and
    gets h = -theta I.  h is Hermitian by construction.  Every matrix of a
    stack gets the same floating-point operations as it would alone.
    """
    c0 = 0.5 * (u[..., 0, 0] + u[..., 1, 1])
    c = 0.5 * np.stack([u[..., 0, 1] + u[..., 1, 0], 1j * (u[..., 0, 1] - u[..., 1, 0]),
                        u[..., 0, 0] - u[..., 1, 1]], axis=-1)
    c_k = np.take_along_axis(c, np.argmax(np.abs(c), axis=-1)[..., None], axis=-1)
    scalar = c_k[..., 0] == 0
    n = (c * np.conj(c_k)).real
    n[scalar] = (0.0, 0.0, 1.0)
    n /= np.sqrt(n[..., None, :] @ n[..., :, None])[..., 0]
    mu = np.where(scalar, 0.0, (c[..., None, :] @ n[..., :, None])[..., 0, 0])
    theta = np.angle(np.stack([c0 + mu, c0 - mu], axis=-1))
    theta[theta <= -math.pi] = math.pi  # -1 + (-0)j belongs to the principal branch at +pi
    mean, half = 0.5 * (theta[..., 0] + theta[..., 1]), 0.5 * (theta[..., 0] - theta[..., 1])
    n_x, n_y, n_z = n[..., 0], n[..., 1], n[..., 2]
    return -np.stack([np.stack([mean + half * n_z, half * (n_x - 1j * n_y)], axis=-1),
                      np.stack([half * (n_x + 1j * n_y), mean - half * n_z], axis=-1)], axis=-2)


@functools.lru_cache(maxsize=None)
def _pair_sectors(cut: int) -> tuple[np.ndarray, ...]:
    """Photon-number sectors N = n_i + n_j of two modes of cutoff cut, as fock._sectors
    index stacks over the pair index n_i * cut + n_j: sizes run 1 .. cut (the sectors
    N >= cut are cut short by the truncation), and within a row n_i ascends."""
    return tuple(_readonly(index) for index in _sectors(np.indices((cut, cut)).sum(0).ravel()))


@functools.lru_cache(maxsize=None)
def _sector_templates(cut: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(index, n_i, hop) per pair sector size s: index (B, s) as from
    _pair_sectors, n_i (B, s, s) the diagonal of mode-i photon numbers and hop
    (B, s, s) the symmetric <k+1, N-k-1| a_i^+ a_j |k, N-k> = sqrt(n_i' n_j)."""
    out = []
    for index in _pair_sectors(cut):
        n_i, n_j = np.divmod(index, cut)
        low = np.sqrt(n_i[:, :, None] * n_j[:, None, :]) * np.eye(index.shape[1], k=-1)
        out.append((index, _readonly(n_i[:, :, None] * np.eye(index.shape[1])),
                    _readonly(low + low.swapaxes(1, 2))))
    return tuple(out)


def _sector_rotations(h: np.ndarray, cut: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """R = exp(-i T_N) per pair sector for K Hermitian 2x2 generators h (K, 2, 2),
    T_N = (h00 - h11) n_i + |h01| hop real symmetric (_sector_templates).

    G = sum_ab h_ab a_a^+ a_b never leaves a sector N = n_i + n_j, truncated or
    not, and there G_N = h11 N + D T_N D^+, D = diag(exp(i n_i arg h01)): a phase
    similarity makes the Hermitian tridiagonal G_N real (Parlett, The Symmetric
    Eigenvalue Problem, 1998), so exp(-i G_N) = exp(-i h11 N) D R D^+.  Yields
    (index, R (K, B, s, s)) per sector size s from one real batched eigh; each R
    is, bit for bit, what a call with its generator alone gives."""
    h = h[:, None, None, None]  # (K, 1, 1, 1, 2, 2): broadcast over (B, s, s)
    split, scale = (h[..., 0, 0] - h[..., 1, 1]).real, abs(h[..., 0, 1])
    for index, n_i, hop in _sector_templates(cut):
        w, q = np.linalg.eigh(split * n_i + scale * hop)
        yield index, (q * np.exp(-1j * w)[..., None, :]) @ q.swapaxes(-1, -2)


def _pair_layout(space: HilbertSpace, modes: tuple[int, int]) -> tuple[int, np.ndarray]:
    """The pair's cutoff and the flat basis index of every (pair state, other state).

    Rows run over the pair index n_i * cut + n_j, columns over the states of
    every other factor in basis order.
    """
    i, j = modes
    if i == j:
        raise ValueError("modes must be distinct")
    if space.mode_cutoffs[i] != space.mode_cutoffs[j]:
        raise ValueError(
            f"mode cutoffs differ ({space.mode_cutoffs[i]} vs {space.mode_cutoffs[j]}); "
            "the lift is only number-conserving for equal truncations"
        )
    cut = space.mode_cutoffs[i]
    flat = np.moveaxis(np.arange(space.total_dim).reshape(space.dims), (i + 1, j + 1), (0, 1))
    return cut, flat.reshape(cut * cut, -1)


def lift_unitary(u: PolUnitary, space: HilbertSpace, modes: tuple[int, int]) -> Operator:
    """Fock-space unitary implementing a_i -> sum_j u_ij a_j on a mode pair.

    Built as exp(-i G) with G = sum_jk h_jk a_j^+ a_k, h = i log(u) (principal
    branch, in closed form), so U conserves photon number by construction: G
    commutes with n_i + n_j, which generates the U(1) center of the U(2)
    mode-mixing action.  A u with eigenvalue -1 lands on the branch cut; the
    principal log takes its argument as +pi, an overall pi phase on one
    eigenmode that cancels in any U H U^+ similarity check.

    The lift is exact (the symmetric-power representation of u) on every
    complete sector n_i + n_j <= cutoff - 1; sectors touching the truncation
    boundary are unitary but representation-faithless, so states should keep
    their support below it.  Each sector N gets exp(-i h11 N) D R D^+ with R
    from _sector_rotations, scattered into the dense result once per state of
    the other factors.
    """
    cut, layout = _pair_layout(space, modes)
    h = _principal_generator(u.matrix[None])
    phi, h11 = np.angle(h[0, 0, 1]), h[0, 1, 1].real
    u_full = np.zeros((space.total_dim,) * 2, dtype=complex)
    for index, r in _sector_rotations(h, cut):
        n_i, n_j = np.divmod(index[..., None], cut)  # (B, s, 1)
        turn = phi * (n_i - n_i.swapaxes(1, 2)) - h11 * (n_i + n_j)  # exp(-i h11 N) D . D^+
        rows = layout[index]
        u_full[rows[:, :, None, :], rows[:, None, :, :]] = (r[0] * np.exp(1j * turn))[..., None]
    return Operator(space, u_full, hermitian_flag=False)


def diagonal_invariance(space: HilbertSpace, energies: np.ndarray, unitaries: np.ndarray,
                        modes: tuple[int, int]) -> np.ndarray:
    """max |U_k H_k U_k^+ - H_k| entrywise for each pair of H_k = diag(energies[k])
    ((K, D) energies, or one (D,) diagonal for every k) and the lift U_k of
    u_k (unitaries of shape (K, 2, 2)), as a (K,) array.

    U and a diagonal H are block diagonal over (pair sector, state of the other
    factors), so U H U^+ - H vanishes outside those blocks, and inside one
    U_N = exp(-i h11 N) D R D^+ (_sector_rotations) leaves
    |U_N diag(e) U_N^+ - diag(e)| = |R diag(e) R^+ - diag(e)| entrywise: the
    phase cancels and D is diagonal.  One real eigh and one product per sector
    size serve all K; nothing of size D x D is formed.  Each deviation equals,
    bit for bit, a call with its pair alone.  ValueError unless every u_k is
    unitary, the energies are finite and have one of those shapes, and the
    pair's cutoffs are equal.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    if unitaries.shape[1:] != (2, 2):
        raise ValueError(f"expected a (K, 2, 2) stack of unitaries, got {unitaries.shape}")
    _require_unitary(unitaries)
    energies, dim = np.asarray(energies), space.total_dim
    if energies.shape not in ((dim,), (len(unitaries), dim)):
        raise ValueError(f"energies of shape {energies.shape}: want ({dim},) or (K, {dim})")
    if not np.isfinite(energies).all():  # inf - inf would warn and give NaN deviations
        bad = np.count_nonzero(~np.isfinite(energies))
        raise ValueError(f"energies must be finite: {bad} of {energies.size} are not")
    cut, layout = _pair_layout(space, tuple(modes))
    energies = energies.reshape(-1, dim)  # (1 or K, D)
    worst = np.zeros(len(unitaries))
    for index, r in _sector_rotations(_principal_generator(unitaries), cut):
        e = energies[:, layout[index].swapaxes(1, 2)]  # (1|K, B, rest, s)
        left = r[:, :, None] * e[..., None, :]  # R diag(e), (K, B, rest, s, s)
        stack = left.shape[:2] + (left.shape[2] * left.shape[3], left.shape[4])  # one product per R
        dev = (left.reshape(stack) @ np.conj(r).swapaxes(-1, -2)).reshape(left.shape)
        k = np.arange(index.shape[1])
        dev[..., k, k] -= e
        worst = np.maximum(worst, np.abs(dev).max(axis=(1, 2, 3, 4)))
    return worst


def check_invariance(h: Operator, u: PolUnitary, modes: tuple[int, int]) -> float:
    """max |U H U^+ - H| entrywise for the lifted polarization unitary U.

    An H with no nonzero entry off its diagonal goes blockwise through its
    energies (diagonal_invariance), forming nothing of size D x D.  Any
    other H is checked by the definition, with U = lift_unitary(u, ...).
    """
    diag = np.diagonal(h.matrix)
    if np.count_nonzero(h.matrix) == np.count_nonzero(diag):  # no nonzero off the diagonal
        return float(diagonal_invariance(h.space, diag, u.matrix[None], modes)[0])
    lift = lift_unitary(u, h.space, modes).matrix
    return float(np.max(np.abs(lift @ h.matrix @ lift.conj().T - h.matrix)))  # NaN propagates


def stokes_vector(q: PolarizationQubit) -> tuple[float, float, float]:
    """Unit Bloch/Stokes triple (s1, s2, s3) with |L> at the (0, 0, 1) pole.

    s1 = 2 Re(c_L* c_R), s2 = 2 Im(c_L* c_R), s3 = |c_L|^2 - |c_R|^2.
    """
    cross = complex(np.conj(q.c_l) * q.c_r)
    return (2 * cross.real, 2 * cross.imag, abs(q.c_l) ** 2 - abs(q.c_r) ** 2)
