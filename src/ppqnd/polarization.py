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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import HilbertSpace, Operator, annihilation_op, make_space

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
        if abs(norm2 - 1.0) > 1e-12:
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
        dev = np.max(np.abs(m.conj().T @ m - np.eye(2)))
        if dev > 1e-12:
            raise ValueError(f"matrix not unitary: max |u^+ u - 1| = {dev:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other: "PolUnitary") -> "PolUnitary":
        return PolUnitary(self.matrix @ other.matrix)

    def dagger(self) -> "PolUnitary":
        return PolUnitary(self.matrix.conj().T)


def lr_to_hv() -> PolUnitary:
    """Circular-to-linear mode map, rows (L, R), columns (H, V)."""
    s = 1 / math.sqrt(2)
    return PolUnitary(np.array([[s, 1j * s], [s, -1j * s]]))


def lift_unitary(u: PolUnitary, space: HilbertSpace, modes: tuple[int, int]) -> Operator:
    """Fock-space unitary implementing a_i -> sum_j u_ij a_j on a mode pair.

    Built as exp(-i G) with the quadratic generator
    G = sum_jk h_jk a_j^+ a_k, h = i log(u) (principal branch), so U is
    photon-number conserving by construction: G commutes with n_i + n_j,
    which generates the U(1) center of the U(2) mode-mixing action.  A u
    with eigenvalue -1 lands on the branch cut; the principal log then
    contributes an overall pi phase on one eigenmode, which cancels in any
    U H U^+ similarity check.

    Truncation caveat: the lift is exact (the symmetric-power
    representation of u) on every complete photon-number sector
    n_i + n_j <= cutoff - 1; sectors touching the truncation boundary are
    unitary but representation-faithless, so states should keep their
    support below the boundary.

    G acts on the two modes only (G = I (x) G_pair (x) I), so it is
    exponentiated on the cutoff^2-dimensional pair space and the result is
    embedded into the full space by contracting over the two mode axes.
    """
    i, j = modes
    if i == j:
        raise ValueError("modes must be distinct")
    if space.mode_cutoffs[i] != space.mode_cutoffs[j]:
        raise ValueError(
            f"mode cutoffs differ ({space.mode_cutoffs[i]} vs {space.mode_cutoffs[j]}); "
            "the lift is only number-conserving for equal truncations"
        )
    h = 1j * scipy.linalg.logm(u.matrix)
    h = 0.5 * (h + h.conj().T)  # scrub logm roundoff; exact for unitary input
    cut = space.mode_cutoffs[i]
    pair = make_space(1, [cut, cut])
    ops = [annihilation_op(pair, 0).matrix, annihilation_op(pair, 1).matrix]
    g = np.zeros((pair.total_dim, pair.total_dim), dtype=complex)
    for a in range(2):
        for b in range(2):
            g += h[a, b] * (ops[a].conj().T @ ops[b])
    w, v = np.linalg.eigh(g)
    u_pair = ((v * np.exp(-1j * w)) @ v.conj().T).reshape(cut, cut, cut, cut)

    dim = space.total_dim
    columns = np.eye(dim, dtype=complex).reshape(space.dims + (dim,))
    u_full = np.tensordot(u_pair, columns, axes=([2, 3], [i + 1, j + 1]))
    u_full = np.moveaxis(u_full, (0, 1), (i + 1, j + 1)).reshape(dim, dim)
    return Operator(space, u_full, hermitian_flag=False)


def check_invariance(h: Operator, u: PolUnitary, modes: tuple[int, int]) -> float:
    """max |U H U^+ - H| entrywise for the lifted polarization unitary."""
    lift = lift_unitary(u, h.space, modes)
    transformed = lift.matrix @ h.matrix @ lift.matrix.conj().T
    return float(np.max(np.abs(transformed - h.matrix)))


def stokes_vector(q: PolarizationQubit) -> tuple[float, float, float]:
    """Unit Bloch/Stokes triple (s1, s2, s3) with |L> at the (0, 0, 1) pole.

    s1 = 2 Re(c_L* c_R), s2 = 2 Im(c_L* c_R), s3 = |c_L|^2 - |c_R|^2.
    """
    cross = complex(np.conj(q.c_l) * q.c_r)
    return (2 * cross.real, 2 * cross.imag, abs(q.c_l) ** 2 - abs(q.c_r) ** 2)
