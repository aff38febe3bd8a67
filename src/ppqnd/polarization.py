"""Polarization-basis algebra on two signal modes.

Mode-operator basis changes are 2x2 unitaries u acting as

    a_i  ->  sum_j u_ij a_j        (operator convention)

States carry the conjugate: a single photon with amplitude column c in the
old basis reads u^+ c in the new one, while the active Fock-space lift
built here transforms single-photon amplitude columns by u itself
(U a_k^+ U^+ = sum_i u_ik a_i^+).  The circular-to-linear change is the
fixed matrix

    (a_L, a_R)^T = (1/sqrt(2)) [[1, i], [1, -i]] (a_H, a_V)^T.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import HilbertSpace, Operator

__all__ = [
    "PolarizationQubit",
    "PolUnitary",
    "lr_to_hv",
    "lift_unitary",
    "check_invariance",
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
        s = 1 / math.sqrt(2)
        return PolarizationQubit(s, s)

    @staticmethod
    def vertical() -> "PolarizationQubit":
        s = 1 / math.sqrt(2)
        return PolarizationQubit(s, -s)

    @staticmethod
    def normalized(c_l: complex, c_r: complex) -> "PolarizationQubit":
        n = math.sqrt(abs(c_l) ** 2 + abs(c_r) ** 2)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return PolarizationQubit(c_l / n, c_r / n)

    def apply(self, u: "PolUnitary") -> "PolarizationQubit":
        c = u.matrix @ np.array([self.c_l, self.c_r])
        return PolarizationQubit(complex(c[0]), complex(c[1]))


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

    def __matmul__(self, other: "PolUnitary") -> "PolUnitary":
        return PolUnitary(self.matrix @ other.matrix)

    def dagger(self) -> "PolUnitary":
        return PolUnitary(self.matrix.conj().T)


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


class _SectorGroup(NamedTuple):
    """The pair sectors of one size s, one row each: B sectors of s states."""

    index: np.ndarray  # (B, s) pair-space indices n_i * cut + n_j, n_i ascending
    n_i: np.ndarray    # (B, s)
    n_j: np.ndarray    # (B, s)
    hop: np.ndarray    # (B, s - 1) <k+1, N-k-1| a_i^+ a_j |k, N-k> = sqrt((k+1)(N-k))


@functools.lru_cache(maxsize=None)
def _pair_sectors(cut: int) -> tuple[_SectorGroup, ...]:
    """Photon-number sectors N = n_i + n_j of two modes of cutoff cut, by size.

    Sizes run 1 .. cut; the sectors N >= cut are cut short by the
    truncation.
    """
    by_size: dict[int, list] = {}
    for total in range(2 * cut - 1):
        n_i = np.arange(max(0, total - cut + 1), min(total, cut - 1) + 1)
        by_size.setdefault(n_i.size, []).append((n_i, total - n_i))
    groups = []
    for rows in by_size.values():
        n_i, n_j = (np.stack(x) for x in zip(*rows))
        group = _SectorGroup(n_i * cut + n_j, n_i, n_j, np.sqrt(n_i[:, 1:] * n_j[:, :-1]))
        for a in group:
            a.setflags(write=False)
        groups.append(group)
    return tuple(groups)


def _sector_unitaries(u: np.ndarray, cut: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """exp(-i G) on every pair sector for each of K 2x2 unitaries u (shape
    (K, 2, 2)), G = sum_ab h_ab a_a^+ a_b with h = i log(u).

    Returns one (index, blocks) per sector size s: index (B, s) as in
    _SectorGroup, blocks (K, B, s, s) the unitaries, from one batched eigh
    per size for all K.  G only moves photons between the two modes, so it
    never leaves a sector, truncated or not.  Each unitary's blocks are
    the same, bit for bit, as from a call with that unitary alone.
    """
    h = _principal_generator(u)[:, None, None]  # (K, 1, 1, 2, 2): broadcast over (B, s)
    out = []
    for index, n_i, n_j, hop in _pair_sectors(cut):
        batch, size = index.shape
        g = np.zeros((len(u), batch, size, size), dtype=complex)
        k = np.arange(size)
        g[..., k, k] = h[..., 0, 0] * n_i + h[..., 1, 1] * n_j
        g[..., k[1:], k[:-1]] = h[..., 0, 1] * hop
        g[..., k[:-1], k[1:]] = h[..., 1, 0] * hop
        w, v = np.linalg.eigh(g)
        out.append((index, (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)))
    return out


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


def _apply_sectors(sectors: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The block-diagonal pair unitary applied to axis 1 of x, written to out.

    x and out are shaped (lead, pair, trail), their pair axis running over
    the pair states in sector order (the `index` rows of `sectors`,
    concatenated), so each sector size is one slice.
    """
    start = 0
    for index, blocks in sectors:
        part = slice(start, start + index.size)
        start += index.size
        shape = (len(x), *index.shape, -1)
        np.matmul(blocks, x[:, part].reshape(shape), out=out[:, part].reshape(shape))
    return out


def lift_unitary(u: PolUnitary, space: HilbertSpace, modes: tuple[int, int]) -> Operator:
    """Fock-space unitary implementing a_i -> sum_j u_ij a_j on a mode pair.

    Built as exp(-i G) with the quadratic generator
    G = sum_jk h_jk a_j^+ a_k, h = i log(u) (principal branch, taken in
    closed form from the eigendecomposition of u), so U is photon-number
    conserving by construction: G commutes with n_i + n_j, which generates
    the U(1) center of the U(2) mode-mixing action.  A u with eigenvalue -1
    lands on the branch cut; the principal log takes its argument as +pi,
    an overall pi phase on one eigenmode that cancels in any U H U^+
    similarity check.

    Truncation caveat: the lift is exact (the symmetric-power
    representation of u) on every complete photon-number sector
    n_i + n_j <= cutoff - 1; sectors touching the truncation boundary are
    unitary but representation-faithless, so states should keep their
    support below the boundary.

    G acts on the two modes only and conserves N = n_i + n_j, so it is
    exponentiated per pair sector (at most cutoff states each) and the
    blocks are scattered into the dense result, once per state of the
    other factors.  check_invariance applies the same blocks without
    building this matrix.
    """
    cut, layout = _pair_layout(space, modes)
    u_full = np.zeros((space.total_dim,) * 2, dtype=complex)
    for index, blocks in _sector_unitaries(u.matrix[None], cut):
        rows = layout[index]
        u_full[rows[:, :, None, :], rows[:, None, :, :]] = blocks[0, ..., None]
    return Operator(space, u_full, hermitian_flag=False)


def _diagonal_deviations(space: HilbertSpace, energies: np.ndarray, unitaries: np.ndarray,
                         modes: tuple[int, int]) -> np.ndarray:
    """max |U H U^+ - H| entrywise for H = diag(energies), one per unitary of
    the stack unitaries (shape (K, 2, 2)), as a (K,) array.

    The lift U is block diagonal over (pair sector, state of the other
    factors) and so is a diagonal H, so U H U^+ - H vanishes exactly
    outside those blocks; inside one it is U_N diag(e) U_N^+ - diag(e),
    at most cutoff x cutoff.  The energies are read per sector size and
    every unitary is handled at once; nothing of size D x D is formed.
    Each unitary's deviation is the same, bit for bit, as from a call
    with that unitary alone.
    """
    cut, layout = _pair_layout(space, tuple(modes))
    worst = np.zeros(len(unitaries))
    for index, blocks in _sector_unitaries(unitaries, cut):
        e = np.moveaxis(energies[layout[index]], -1, 1)[None, ..., None, :]  # (1, B, rest, 1, s)
        blocks = blocks[:, :, None]                                          # (K, B, 1, s, s)
        dev = np.conj(blocks) @ (blocks * e).swapaxes(-1, -2)  # the transpose of U diag(e) U^+
        k = np.arange(index.shape[1])
        dev[..., k, k] -= e[..., 0, :]
        worst = np.maximum(worst, np.abs(dev).max(axis=(1, 2, 3, 4)))
    return worst


def check_invariance(h: Operator, u: PolUnitary, modes: tuple[int, int]) -> float:
    """max |U H U^+ - H| entrywise for the lifted polarization unitary.

    An H with no nonzero entry off its diagonal goes blockwise through its
    energies (_diagonal_deviations), forming nothing of size D x D.  Any
    other H is read once, its basis states in pair-sector order, and laid
    out as (row pair, column pair, rest x rest); U is applied sector by
    sector on the two pair axes, to the rows of H and then, conjugated, to
    its columns.  No full-space U is formed on either route, and nothing
    is cached between calls.
    """
    diag = np.diagonal(h.matrix)
    if np.count_nonzero(h.matrix) == np.count_nonzero(diag):  # no nonzero off the diagonal
        return float(_diagonal_deviations(h.space, diag, u.matrix[None], modes)[0])
    cut, layout = _pair_layout(h.space, tuple(modes))
    states = layout[np.concatenate([group.index.ravel() for group in _pair_sectors(cut)])]
    n, rest = states.shape
    rows = states.ravel()
    x = h.matrix[np.ix_(rows, rows)].reshape(n, rest, n, rest).swapaxes(1, 2).reshape(n, n, -1)
    sectors = [(index, blocks[0]) for index, blocks in _sector_unitaries(u.matrix[None], cut)]
    left = np.empty_like(x)
    _apply_sectors(sectors, x.reshape(1, n, -1), left.reshape(1, n, -1))
    conjugated = [(index, blocks.conj()) for index, blocks in sectors]
    transformed = _apply_sectors(conjugated, left, np.empty_like(x))
    transformed -= x
    return float(np.max(np.abs(transformed)))


def stokes_vector(q: PolarizationQubit) -> tuple[float, float, float]:
    """Unit Bloch/Stokes triple (s1, s2, s3) with |L> at the (0, 0, 1) pole.

    s1 = 2 Re(c_L* c_R), s2 = 2 Im(c_L* c_R), s3 = |c_L|^2 - |c_R|^2.
    """
    cross = complex(np.conj(q.c_l) * q.c_r)
    return (2 * cross.real, 2 * cross.imag, abs(q.c_l) ** 2 - abs(q.c_r) ** 2)
