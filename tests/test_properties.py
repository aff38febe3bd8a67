"""Property tests for the structure-aware effective-model paths.

Each fast path is checked against the generic dense route it replaces:
elementwise evolution of a diagonal H against its eigendecomposition,
the amplitude partial trace against the density-matrix one, the
pair-space polarization lift against the full-space exp(-i G), and the
vectorized number operator against an index loop.  Examples are
derandomized so the suite stays deterministic.
"""

import itertools

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ppqnd import (
    Operator,
    PolUnitary,
    StateVector,
    annihilation_op,
    evolve,
    lift_unitary,
    make_space,
    number_op,
    partial_trace,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def spaces(draw, max_modes=3, max_cutoff=4):
    atom = draw(st.integers(1, 3))
    cutoffs = draw(st.lists(st.integers(1, max_cutoff), min_size=1, max_size=max_modes))
    return make_space(atom, cutoffs)


def random_state(rng, space):
    amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return PolUnitary(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def full_space_lift(u, space, modes):
    """Reference lift: exp(-i G) with G = sum h_jk a_j^+ a_k built on the whole space."""
    h = 1j * scipy.linalg.logm(u.matrix)
    h = 0.5 * (h + h.conj().T)
    ops = [annihilation_op(space, m).matrix for m in modes]
    g = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for a in range(2):
        for b in range(2):
            g += h[a, b] * (ops[a].conj().T @ ops[b])
    w, v = np.linalg.eigh(g)
    return (v * np.exp(-1j * w)) @ v.conj().T


@st.composite
def lift_cases(draw):
    """(space, modes) with two distinct, equally truncated modes in any order."""
    pair_cut = draw(st.integers(1, 4))
    other = draw(st.lists(st.integers(1, 3), max_size=1))
    cutoffs = [pair_cut, pair_cut] + other
    order = draw(st.permutations(range(len(cutoffs))))
    space = make_space(draw(st.integers(1, 2)), [cutoffs[k] for k in order])
    modes = (order.index(0), order.index(1))
    return space, modes


@PROPERTY
@given(spaces(), seeds, st.floats(-50.0, 50.0), st.booleans())
def test_diagonal_evolve_matches_eigh_route(space, seed, t, extended):
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1.0, 1.0, space.total_dim)
    h = Operator(space, np.diag(diag).astype(complex))
    psi = random_state(rng, space)

    w, v = np.linalg.eigh(h.matrix)
    oracle = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amplitudes))
    ours = evolve(h, psi, t, extended=extended).amplitudes
    assert np.max(np.abs(ours - oracle)) < 1e-12


@PROPERTY
@given(spaces(), seeds)
def test_pure_partial_trace_matches_density_matrix_route(space, seed):
    psi = random_state(np.random.default_rng(seed), space)
    rho = psi.to_density_matrix()
    factors = ["atom", *range(space.n_modes)]
    for size in range(1, len(factors) + 1):
        for keep in itertools.combinations(factors, size):
            ours = partial_trace(psi, keep)
            oracle = partial_trace(rho, keep)
            assert ours.space == oracle.space
            assert np.max(np.abs(ours.matrix - oracle.matrix)) < 1e-13


@PROPERTY
@given(lift_cases(), seeds)
def test_pair_space_lift_matches_full_space_exponential(case, seed):
    space, modes = case
    u = haar_unitary(np.random.default_rng(seed))
    ours = lift_unitary(u, space, modes).matrix
    assert np.max(np.abs(ours - full_space_lift(u, space, modes))) < 1e-12


@PROPERTY
@given(lift_cases(), seeds)
def test_lift_is_unitary_and_conserves_pair_number(case, seed):
    space, modes = case
    lift = lift_unitary(haar_unitary(np.random.default_rng(seed)), space, modes).matrix
    assert np.max(np.abs(lift.conj().T @ lift - np.eye(space.total_dim))) < 1e-12
    n_pair = number_op(space, modes[0]).matrix + number_op(space, modes[1]).matrix
    assert np.max(np.abs(lift @ n_pair - n_pair @ lift)) < 1e-12


@PROPERTY
@given(spaces(max_modes=4, max_cutoff=5))
def test_number_op_matches_unpack_loop(space):
    for mode in range(space.n_modes):
        oracle = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        for i in range(space.total_dim):
            oracle[i, i] = space.unpack(i)[1][mode]
        assert np.array_equal(number_op(space, mode).matrix, oracle)
