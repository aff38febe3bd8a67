"""Property tests for the structure-aware paths.

Each fast path is checked against the generic dense route it replaces:
elementwise evolution of a diagonal H against its eigendecomposition,
the amplitude partial trace against the density-matrix one, the
closed-form 2x2 log against scipy's logm, the sector-blocked
polarization lift against the pair-space and full-space exp(-i G), the
blockwise invariance check against the dense triple product U H U^+ and
against its definition over the dense lift,
the ladder-sum homodyne readouts and the amplitude-matrix purity and
fidelity of evolve_qnd against dense operators on the reduced density
matrix, the probe-Gram dephasing grid against the per-point joint state,
partial trace and fidelity, and the vectorized number operator against an
index loop.  The
five-level PP Hamiltonian gets its symmetries (two conserved excitation
numbers, the L/R mirror), its component split against the dense matrix
and inside the excitation sectors, and its quasidark eigenvalues against
an mpmath oracle; the components match scipy's connected_components, the
blocks cut for a set of kept states are the rows of the all-states cut
that hold one, evolve of a dense PP Hamiltonian is that component route
bit for bit and resolves a phase 21 decades below the norm against an
80-digit mpmath evolution, full_vs_effective splits into its drive-parallel
(H) and probe-blind (V) channels, and the longdouble Jacobi gives the values of
the kernel it replaced, bit for bit.  The secular roots from the stacked
block are checked against 50-digit mpmath eigenvalues and regime_scan
against estimate_eigenvalues point by point; the coefficient-level
quintic_roots against the same kind of oracle next to a fixed 60-step
Aberth loop; the secular stack kernel's rows against stacks of their own;
the array-drawn secular oracle against a per-draw loop; the one dark-root
pick (EigenEstimate.exact_small) against its errors, the CSV cell and
full_vs_effective's prediction, also at Delta = +-0 and a +-lambda tie; and
the stacked characteristic polynomial against np.poly per matrix.
Examples are derandomized so the suite stays deterministic.
"""

import cmath
import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from ppqnd import (
    DensityMatrix,
    Operator,
    PolarizationQubit,
    PolUnitary,
    SchemeParams,
    StateVector,
    annihilation_op,
    atom_transition_op,
    build_pp_hamiltonian,
    char_poly_coefficients,
    check_invariance,
    coherent_state,
    default_cutoff,
    dephasing_grid,
    diagonal_invariance,
    estimate_eigenvalues,
    evolve,
    evolve_qnd,
    fidelity,
    full_model_grid,
    full_vs_effective,
    homodyne_estimate,
    lift_unitary,
    lr_to_hv,
    make_space,
    number_op,
    partial_trace,
    polarization_dephasing,
    pp_mirror_permutation,
    quintic_roots,
    regime_scan,
    scan_to_csv_rows,
    secular_coefficients,
)
from ppqnd import cli
from ppqnd.fock import (
    _components,
    _evolve_diagonal,
    _evolve_sectors,
    _jacobi_eigh_longdouble,
    _readonly,
    _require_extended_precision,
    _round_robin,
    _sector_blocks,
    _sectors,
)
from ppqnd.polarization import _principal_generator
from ppqnd.schemes import (
    _ket_eigenpairs,
    _pp_block_stack,
    _pp_chain_stack,
    _pp_components,
    _pp_table,
    build_pp_block_matrix,
    ppqnd_energies,
)
from ppqnd.secular import (_hermitian_eigvalsh, _point_arrays, char_poly_from_eigenvalues,
                           estimate_stack)

from linear_pp_oracle import linear_pp_sectors, linear_pp_table, padded, table_lower

try:
    import mpmath
except ImportError:  # the oracle test is skipped without it
    mpmath = None

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
def lift_cases(draw, max_cut=4):
    """(space, modes) with two distinct, equally truncated modes in any order."""
    pair_cut = draw(st.integers(1, max_cut))
    other = draw(st.lists(st.integers(1, 3), max_size=1))
    cutoffs = [pair_cut, pair_cut] + other
    order = draw(st.permutations(range(len(cutoffs))))
    space = make_space(draw(st.integers(1, 2)), [cutoffs[k] for k in order])
    modes = (order.index(0), order.index(1))
    return space, modes


@PROPERTY
@given(spaces(), seeds, st.floats(-50.0, 50.0))
def test_diagonal_evolve_matches_eigh_route(space, seed, t):
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1.0, 1.0, space.total_dim)
    h = Operator(space, np.diag(diag).astype(complex))
    psi = random_state(rng, space)

    w, v = np.linalg.eigh(h.matrix)
    oracle = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi.amplitudes))
    ours = evolve(h, psi, t).amplitudes
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


def pair_space_lift(u, space, modes):
    """The lift the sector route replaced: exp(-i G) on the cutoff^2-dim pair
    space, generator from logm, embedded by contraction with a D x D identity."""
    i, j = modes
    h = 1j * scipy.linalg.logm(u.matrix)
    h = 0.5 * (h + h.conj().T)
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
    return np.moveaxis(u_full, (0, 1), (i + 1, j + 1)).reshape(dim, dim)


@PROPERTY
@given(lift_cases(), seeds)
def test_sector_lift_matches_pair_space_lift(case, seed):
    space, modes = case
    u = haar_unitary(np.random.default_rng(seed))
    ours = lift_unitary(u, space, modes).matrix
    assert np.max(np.abs(ours - pair_space_lift(u, space, modes))) < 1e-12


@st.composite
def unitaries(draw):
    """(kind, u): Haar, an eigenvalue of exactly -1 in a Haar basis, or e^{i phi} I."""
    kind = draw(st.sampled_from(["haar", "minus_one", "scalar"]))
    rng = np.random.default_rng(draw(seeds))
    if kind == "scalar":
        phi = draw(st.sampled_from([0.0, math.pi, -math.pi / 2])) if draw(st.booleans()) \
            else draw(st.floats(-math.pi, math.pi))
        return kind, np.exp(1j * phi) * np.eye(2)
    v = haar_unitary(rng).matrix
    if kind == "haar":
        return kind, v
    other = np.exp(1j * draw(st.floats(-3.0, 3.0)))
    return kind, (v * np.array([-1.0, other])) @ v.conj().T


@PROPERTY
@given(unitaries())
def test_closed_form_log_matches_logm(case):
    kind, u = case
    ours = _principal_generator(u)
    assert np.array_equal(ours, ours.conj().T)
    assert np.max(np.abs(scipy.linalg.expm(-1j * ours) - u)) < 1e-13
    oracle = 1j * scipy.linalg.logm(u)
    oracle = 0.5 * (oracle + oracle.conj().T)
    if kind != "minus_one":
        assert np.max(np.abs(ours - oracle)) < 1e-13
        return
    # logm puts the -1 eigenvalue on either side of the cut, as rounding
    # falls; the principal branch takes its argument as +pi, so h = -pi there
    w, v = np.linalg.eigh(ours)
    assert abs(w[0] + math.pi) < 1e-13
    minus = np.outer(v[:, 0], v[:, 0].conj())
    assert min(np.max(np.abs(ours - oracle - 2 * math.pi * k * minus)) for k in (-1, 0, 1)) < 1e-12


@PROPERTY
@given(lift_cases(), seeds, st.sampled_from(["invariant", "diagonal", "dense"]))
def test_blockwise_invariance_matches_dense_triple_product(case, seed, kind):
    space, modes = case
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng)
    if kind == "invariant":  # a function of n_i + n_j and of the other factors
        grid = np.indices(space.dims).reshape(len(space.dims), -1)
        pair_total = grid[modes[0] + 1] + grid[modes[1] + 1]
        others = [k for k in range(len(space.dims)) if k not in (modes[0] + 1, modes[1] + 1)]
        key = np.ravel_multi_index([pair_total] + [grid[k] for k in others],
                                   [2 * space.mode_cutoffs[modes[0]]] + [space.dims[k] for k in others])
        m = np.diag(rng.uniform(-1.0, 1.0, key.max() + 1)[key]).astype(complex)
    elif kind == "diagonal":
        m = np.diag(rng.uniform(-1.0, 1.0, space.total_dim)).astype(complex)
    else:
        m = rng.standard_normal((space.total_dim,) * 2) + 1j * rng.standard_normal((space.total_dim,) * 2)
        m = m + m.conj().T
    lift = pair_space_lift(u, space, modes)
    oracle = np.max(np.abs(lift @ m @ lift.conj().T - m))
    ours = check_invariance(Operator(space, m), u, modes)
    assert abs(ours - oracle) < 1e-12
    if kind == "invariant":
        assert ours < 1e-12


# The identity, a scalar e^{i theta} I (h01 = 0), Z = diag(1, -1) (on the
# principal log's branch cut), LR -> HV and Haar.
polarization_unitaries = st.one_of(
    st.just(np.eye(2, dtype=complex)),
    st.floats(-math.pi, math.pi).map(lambda theta: np.exp(1j * theta) * np.eye(2)),
    st.just(np.diag([1.0, -1.0]).astype(complex)),
    st.just(lr_to_hv().matrix),
    seeds.map(lambda seed: haar_unitary(np.random.default_rng(seed)).matrix))


@PROPERTY
@given(lift_cases(max_cut=6), polarization_unitaries, seeds, st.floats(1e-3, 1e3))
def test_diagonal_invariance_is_its_definition(case, u, seed, scale):
    # max |L diag(e) L^+ - diag(e)| with L the dense lift, against the sector
    # route that forms no L.  Per entry each route sums at most cutoff
    # products L_am e_m L*_bm, each within about 2 eps of max|e| (the rows of L
    # are unit vectors); two routes, so they agree to 4 eps max|e| cutoff
    space, modes = case
    e = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, space.total_dim)
    lift = lift_unitary(PolUnitary(u), space, modes).matrix
    definition = np.max(np.abs(lift @ np.diag(e) @ lift.conj().T - np.diag(e)))
    ours = diagonal_invariance(space, e, u[None], modes)[0]
    bound = 4 * np.finfo(float).eps * np.max(np.abs(e)) * space.mode_cutoffs[modes[0]]
    assert abs(ours - definition) <= bound


def dense_readout(rho, lo_phase):
    """(<a>, <X>, Var X) from dense truncated operators on a density matrix."""
    a = np.diag(np.sqrt(np.arange(1, len(rho))), 1).astype(complex)
    x = 0.5 * (a * np.exp(-1j * lo_phase) + a.conj().T * np.exp(1j * lo_phase))
    mean_x = np.trace(rho @ x).real
    return complex(np.trace(rho @ a)), mean_x, np.trace(rho @ x @ x).real - mean_x ** 2


@st.composite
def probe_amplitudes(draw):
    """(rows, cutoff) amplitudes of a pure state, the probe photon number last.

    coherent: one row of a truncated coherent state; spread: random
    amplitudes over the whole range; edge: weight on the top levels c-3 .. c-1,
    where the truncated a a^+ = diag(1, ..., c-1, 0) differs from a^+ a + 1.
    """
    cutoff = draw(st.integers(30, 300))
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["coherent", "spread", "edge"]))
    if kind == "coherent":
        alpha = draw(st.floats(0.0, math.sqrt(cutoff + 6.0) - 4.0)) \
            * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        return coherent_state(cutoff, alpha).amplitudes[None, :]
    rows = draw(st.integers(1, 3))
    m = rng.standard_normal((rows, cutoff)) + 1j * rng.standard_normal((rows, cutoff))
    if kind == "edge":
        m[:, 4:-3] = 0.0
    return m / np.linalg.norm(m)


def readout_bound(rho):
    """Rounding scale of the dense route: eps-level relative to <a^+ a> + 1."""
    return 1e-14 * (1.0 + float(np.diagonal(rho).real @ np.arange(len(rho))))


@PROPERTY
@given(probe_amplitudes(), st.floats(-math.pi, math.pi))
def test_ladder_readouts_match_dense_operators(m, lo_phase):
    space = make_space(1, [m.shape[1]])
    rho = partial_trace(StateVector(make_space(1, m.shape), m.ravel()), keep=[1]).matrix
    mean_a, mean_x, variance = dense_readout(rho, lo_phase)
    tol = readout_bound(rho)
    states = [DensityMatrix(space, rho)]
    if m.shape[0] == 1:
        states.append(StateVector(space, m[0]))
    for state in states:
        ours = homodyne_estimate(state, lo_phase)
        assert abs(ours.quadrature_mean - mean_x) < tol
        assert abs(ours.quadrature_variance - variance) < tol
        if ours.phase_shift is not None:
            assert abs(cmath.phase(mean_a) - ours.phase_shift) < 1e-12 or abs(mean_a) < 1e-6


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 3), st.floats(0.5, 10.0), st.floats(-math.pi, math.pi),
       st.floats(-0.5, 0.5), st.floats(0.0, 20.0), st.integers(0, 60), st.floats(-math.pi, math.pi))
def test_evolve_qnd_matches_reduced_density_matrix(n_s, mag, arg, chi, t, extra, lo_phase):
    alpha = mag * cmath.exp(1j * arg)
    cutoff = default_cutoff(alpha) + extra
    res = evolve_qnd(n_s, alpha, chi, t, cutoff_p=cutoff, lo_phase=lo_phase)
    rho_p = partial_trace(res.state.to_density_matrix(), keep=[1])
    _, mean_x, variance = dense_readout(rho_p.matrix, lo_phase)
    tol = readout_bound(rho_p.matrix)
    assert abs(res.readout.quadrature_mean - mean_x) < tol
    assert abs(res.readout.quadrature_variance - variance) < tol
    assert abs(res.probe_purity - rho_p.purity()) < 1e-13
    for beta, ours in ((alpha * cmath.exp(-1j * chi * n_s * t), res.probe_fidelity),
                       (alpha * cmath.exp(1j * chi * n_s * t), res.probe_fidelity_flipped)):
        assert abs(ours - fidelity(coherent_state(cutoff, beta), rho_p)) < 1e-13



def coherent_state_fidelity(m, cutoff, beta):
    """<beta| rho_p |beta> with |beta> built by coherent_state, as evolve_qnd's
    reference kets were before they skipped its truncation check."""
    ket = coherent_state(cutoff, beta).amplitudes
    return float(np.clip(np.linalg.norm(m @ ket.conj()) ** 2, 0.0, 1.0))


@PROPERTY
@given(st.integers(0, 5), st.floats(0.0, 8.0, exclude_min=True), st.floats(-math.pi, math.pi),
       st.floats(-1.0, 1.0), st.floats(0.0, 50.0), st.one_of(st.none(), st.integers(2, 40)))
def test_evolve_qnd_reference_kets_are_coherent_states(n_s, mag, arg, chi, t, cutoff_p):
    # truncated cutoffs included: the kets match bit for bit, warning or not
    alpha = mag * cmath.exp(1j * arg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = evolve_qnd(n_s, alpha, chi, t, cutoff_p=cutoff_p)
        cutoff = default_cutoff(alpha) if cutoff_p is None else cutoff_p
        m = res.state.amplitudes.reshape(n_s + 1, cutoff)
        for beta, ours in ((alpha * cmath.exp(-1j * chi * n_s * t), res.probe_fidelity),
                           (alpha * cmath.exp(1j * chi * n_s * t), res.probe_fidelity_flipped)):
            assert ours.hex() == coherent_state_fidelity(m, cutoff, beta).hex()

def per_point_dephasing(qubit, alpha, chi, t, sensitive):
    """The route dephasing_grid replaced: the joint state of the signal pair
    and the probe, its partial trace and the fidelity to the input qubit."""
    cutoff = default_cutoff(alpha)
    space, energies = ppqnd_energies(chi, 2, 2, cutoff, sensitive)
    pair = np.zeros((2, 2), dtype=complex)
    pair[1, 0], pair[0, 1] = qubit.c_l, qubit.c_r
    amps = pair[..., None] * coherent_state(cutoff, alpha).amplitudes
    psi_t = _evolve_diagonal(energies, StateVector(space, amps.ravel()), t)
    reduced = partial_trace(psi_t, keep=[0, 1])
    fid = fidelity(StateVector(reduced.space, pair.ravel()), reduced)
    coherence = 2.0 * abs(reduced.matrix.reshape(2, 2, 2, 2)[1, 0, 0, 1])
    return reduced.matrix, fid, reduced.purity(), coherence


@st.composite
def qubits(draw):
    rng = np.random.default_rng(draw(seeds))
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PolarizationQubit.normalized(*c)


@PROPERTY
@given(st.lists(qubits(), min_size=1, max_size=4),
       st.floats(0.0, 6.0, exclude_min=True), st.floats(-math.pi, math.pi),
       st.floats(-1.0, 1.0), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
       st.booleans())
def test_dephasing_grid_matches_the_per_point_route(qubit_list, mag, arg, chi, times, sensitive):
    alpha = mag * cmath.exp(1j * arg)
    grid = dephasing_grid(qubit_list, alpha, chi, times, sensitive)
    for q, qubit in enumerate(qubit_list):
        for k, t in enumerate(times):
            rho, fid, purity, coherence = per_point_dephasing(qubit, alpha, chi, t, sensitive)
            assert np.max(np.abs(grid.reduced[q, k] - rho)) < 1e-13
            assert abs(grid.fidelity[q, k] - fid) < 1e-13
            assert abs(grid.purity[q, k] - purity) < 1e-13
            assert abs(grid.coherence[q, k] - coherence) < 1e-13
            point = polarization_dephasing(qubit, alpha, chi, t, sensitive)
            for ours, alone in ((grid.fidelity[q, k], point.fidelity),
                                (grid.purity[q, k], point.purity),
                                (grid.coherence[q, k], point.coherence),
                                (grid.reduced[q, k], point.reduced.matrix)):
                assert np.asarray(ours).tobytes() == np.asarray(alone).tobytes()


@PROPERTY
@given(spaces(max_modes=4, max_cutoff=5))
def test_number_op_matches_unpack_loop(space):
    for mode in range(space.n_modes):
        oracle = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        for i in range(space.total_dim):
            oracle[i, i] = space.unpack(i)[1][mode]
        assert np.array_equal(number_op(space, mode).matrix, oracle)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 7), seeds)
def test_batched_jacobi_diagonalizes_each_matrix_as_alone(batch, n, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-6, 4, size=(batch, n, 1))  # graded rows and columns
    a = rng.standard_normal((batch, n, n)) * scales * scales.transpose(0, 2, 1)
    a = a + a.transpose(0, 2, 1)
    w, v = _jacobi_eigh_longdouble(a)
    for k in range(batch):
        w_k, v_k = _jacobi_eigh_longdouble(a[k])
        assert np.array_equal(w_k, w[k]) and np.array_equal(v_k, v[k])
    norm = np.sqrt(np.sum(a * a, axis=(1, 2)))[:, None, None]
    rebuilt = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
    assert np.all(np.abs(rebuilt - a.astype(np.longdouble)) <= 1e-17 * norm)
    assert np.max(np.abs(v.transpose(0, 2, 1) @ v - np.eye(n))) < 1e-17


@st.composite
def pp_params(draw):
    """Delta, delta >> Omega_d >> xi_p >> xi_s, each step a factor 10 to 100."""
    omega = draw(st.floats(10.0, 100.0))
    r_det, r_drive, r_probe = (draw(st.floats(10.0, 100.0)) for _ in range(3))
    xi_p = omega / r_drive
    return SchemeParams(omega * r_det * draw(st.floats(1.0, 3.0)), omega * r_det, omega,
                        xi_p / r_probe, xi_p)


@PROPERTY
@given(st.lists(st.integers(-3, 6), min_size=1, max_size=40))
def test_sectors_partition_the_indices_by_label(labels):
    label = np.array(labels)
    groups = _sectors(label)
    rows = [row for index in groups for row in index]
    assert sorted(np.concatenate(rows).tolist()) == list(range(len(label)))
    for row in rows:
        assert np.all(np.diff(row) > 0)
        assert np.all(label[row] == label[row[0]])
    assert len({label[row[0]] for row in rows}) == len(rows)
    sizes = [index.shape[1] for index in groups]
    assert sizes == sorted(set(sizes))
    for index in groups:  # rows of one size run in label order
        assert np.all(np.diff(label[index[:, 0]]) > 0)


pp_cutoffs = st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 5))


def pp_excitations(space):
    """N_s = n_sL + n_sR + [atom not in 1], N_p = n_p + [atom in 4], from the public operators."""
    eye = np.eye(space.total_dim)
    n_s = number_op(space, 0).matrix + number_op(space, 1).matrix \
        + eye - atom_transition_op(space, 0, 0).matrix
    n_p = number_op(space, 2).matrix + atom_transition_op(space, 4, 4).matrix
    return n_s.real, n_p.real


def ground_states(space):
    """Flat indices of every state on atomic level 1."""
    return np.arange(space.total_dim // space.atom_dim)


@PROPERTY
@given(pp_params(), pp_cutoffs)
def test_pp_hamiltonian_conserves_both_excitation_numbers(params, cutoffs):
    h = build_pp_hamiltonian(params, *cutoffs).matrix
    for n_op in pp_excitations(make_space(5, cutoffs)):
        assert np.max(np.abs(h @ n_op - n_op @ h)) == 0.0


@PROPERTY
@given(pp_params(), st.integers(2, 3), st.integers(2, 5))
def test_pp_hamiltonian_is_mirror_invariant(params, cutoff_s, cutoff_p):
    h = build_pp_hamiltonian(params, cutoff_s, cutoff_s, cutoff_p).matrix
    perm = pp_mirror_permutation(make_space(5, [cutoff_s, cutoff_s, cutoff_p]))
    assert np.array_equal(h[np.ix_(perm, perm)], h)


@PROPERTY
@given(pp_params(), pp_cutoffs)
def test_pp_sectors_scatter_back_to_the_dense_hamiltonian(params, cutoffs):
    space, (rows, cols, vals) = linear_pp_table(params, *cutoffs)
    h = np.zeros((space.total_dim, space.total_dim), dtype=np.longdouble)
    h[rows, cols] = h[cols, rows] = vals  # the linear table, scattered in its own dtype
    sectors = linear_pp_sectors(params, cutoffs, np.arange(space.total_dim))
    n_s, n_p = (np.diagonal(n_op) for n_op in pp_excitations(space))
    rebuilt = np.zeros((space.total_dim, space.total_dim), dtype=np.longdouble)
    covered = np.zeros(space.total_dim, dtype=int)
    for index, blocks in sectors:
        for row, block in zip(index, blocks):
            assert np.all(np.diff(row) > 0)
            sector = (n_s[row[0]], n_p[row[0]])  # one (N_s, N_p) per row
            assert np.all(n_s[row] == sector[0]) and np.all(n_p[row] == sector[1])
            n_parts, _ = scipy.sparse.csgraph.connected_components(block != 0, directed=False)
            assert n_parts == 1  # each row is connected ...
            assert np.array_equal(block, block.T)
            rebuilt[np.ix_(row, row)] = block
            covered[row] += 1
    assert np.all(covered == 1)  # ... the rows partition the basis ...
    assert np.array_equal(rebuilt, h)  # ... and every nonzero entry lies in one: the components


@PROPERTY
@given(pp_params(), st.integers(2, 3), st.integers(2, 4))
def test_linear_table_is_the_circular_hamiltonian_rotated(params, cutoff_s, cutoff_p):
    # modes by the lift of the real Hadamard (L, R) -> (H, V), levels by
    # 2, 2' -> 2+- = (|2> +- |2'>)/sqrt(2); the lift is exact on the complete
    # sectors N_s <= cutoff_s - 1, and only there are the two compared
    h = build_pp_hamiltonian(params, cutoff_s, cutoff_s, cutoff_p)
    space = h.space
    s = 1 / math.sqrt(2)
    levels = np.eye(5)
    levels[1:3, 1:3] = [[s, s], [s, -s]]
    modes = lift_unitary(PolUnitary(np.array([[s, s], [s, -s]])), space, (0, 1)).matrix
    u = np.kron(levels, np.eye(space.total_dim // 5)) @ modes
    rotated = u @ h.matrix @ u.conj().T
    _, (rows, cols, vals) = linear_pp_table(params, cutoff_s, cutoff_s, cutoff_p)
    linear = np.zeros((space.total_dim, space.total_dim))
    linear[rows, cols] = linear[cols, rows] = vals
    n_s, _ = (np.diagonal(n_op) for n_op in pp_excitations(space))
    complete = np.ix_(n_s <= cutoff_s - 1, n_s <= cutoff_s - 1)
    assert np.max(np.abs(rotated[complete] - linear[complete])) <= 1e-14 * np.max(np.abs(h.matrix))


@PROPERTY
@given(pp_params(), st.integers(2, 6), st.integers(2, 6), st.integers(2, 8))
def test_pp_sector_components_hold_at_most_five_states(params, cutoff_h, cutoff_v, cutoff_p):
    # |1; n_H, n_V, n_p>, 2+, 2-, 3, 4 at most, whatever the cutoffs: the
    # stack the Jacobi sees is at most 5 wide, one row per level-1 state,
    # and its rows are disjoint
    space = make_space(5, [cutoff_h, cutoff_v, cutoff_p])
    index, blocks = _pp_components(params, space.mode_cutoffs, ground_states(space))
    real = index[index < space.total_dim]
    assert len(index) == space.total_dim // 5 and index.shape[1] <= 5
    assert blocks.shape == (*index.shape, index.shape[1])
    assert len(np.unique(real)) == real.size


@st.composite
def pp_params_with_zeros(draw):
    """pp_params, with one of Omega_d, xi_s and xi_p set to 0 in some draws:
    a zero coupling keeps its table entries, so the components stay the same."""
    params = draw(pp_params())
    zero = draw(st.sampled_from([None, "omega_d", "xi_s", "xi_p"]))
    return params if zero is None else dataclasses.replace(params, **{zero: 0.0})


@PROPERTY
@given(pp_params_with_zeros(),
       st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 8)), seeds)
def test_components_are_the_linear_table_cut_bit_for_bit(params, cutoffs, seed):
    # the closed form against the generic cut of the oracle table, padded to
    # one stack: the same states, dtype, width and entries (signs of zero
    # included), row for row matched by ground state
    space = make_space(5, cutoffs)
    rng = np.random.default_rng(seed)
    ground = ground_states(space)
    keep = rng.choice(ground, size=rng.integers(1, len(ground) + 1), replace=False)
    index, blocks = _pp_components(params, cutoffs, keep)
    index_ref, blocks_ref = padded(linear_pp_sectors(params, cutoffs, keep), space.total_dim)
    assert index.dtype == index_ref.dtype and blocks.dtype == blocks_ref.dtype
    assert index.shape == index_ref.shape and blocks.shape == blocks_ref.shape
    assert np.array_equal(index[:, 0], np.sort(keep))  # one row per kept state, ascending
    order = np.argsort(index_ref[:, 0])  # a row's ground state is its smallest index
    assert np.array_equal(index, index_ref[order])
    assert np.array_equal(blocks, blocks_ref[order])
    assert np.array_equal(np.signbit(blocks), np.signbit(blocks_ref[order]))


def test_components_refuse_states_off_level_1_or_outside_the_space():
    params, cutoffs = SchemeParams(1e4, 1e4, 1e2, 0.01, 1.0), (2, 2, 3)
    space = make_space(5, cutoffs)
    for keep in ([space.index_of(1, (0, 0, 0))], [0, space.index_of(4, (1, 1, 2))],
                 [space.total_dim], [-1]):
        with pytest.raises(ValueError):
            _pp_components(params, cutoffs, keep)


@pytest.mark.parametrize("cutoffs", list(itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 4))))
def test_components_build_at_any_cutoff_as_the_linear_table_cut(cutoffs):
    # no floor at cutoff 2: with a mode cut at 1 the closed form still
    # matches the oracle's generic cut, row for row, bit for bit
    params = SchemeParams(1e4, 3e4, 1e2, 0.1, 1.0)
    space = make_space(5, cutoffs)
    keep = ground_states(space)
    index, blocks = _pp_components(params, cutoffs, keep)
    index_ref, blocks_ref = padded(linear_pp_sectors(params, cutoffs, keep), space.total_dim)
    order = np.argsort(index_ref[:, 0])
    assert index.shape == index_ref.shape and blocks.dtype == blocks_ref.dtype
    assert np.array_equal(index, index_ref[order])
    assert np.array_equal(blocks, blocks_ref[order])
    assert np.array_equal(np.signbit(blocks), np.signbit(blocks_ref[order]))


def circular_sector_eigenpairs(params, n_sl, n_sr, n_p):
    """Oracle: eigenvalues of the whole circular (N_s, N_p) sector of the ket
    |1; n_sL, n_sR, n_p> and their overlaps v[ket]^2, one Jacobi on up to 16
    states (the route compare_block_to_full took before the linear basis)."""
    n_s = n_sl + n_sr
    space, table = _pp_table(params, n_s + 1, n_s + 1, n_p + 1)
    ket = space.index_of(0, (n_sl, n_sr, n_p))
    ((index, blocks),) = _sector_blocks(table_lower(space.total_dim, table), [ket])
    w, v = _jacobi_eigh_longdouble(blocks[0])
    return w, v[np.flatnonzero(index[0] == ket)[0]].astype(np.float64) ** 2


@settings(derandomize=True, max_examples=20, deadline=None)
@given(pp_params(), st.sampled_from([(1, 0, 1), (0, 1, 2), (1, 1, 1), (2, 0, 1), (2, 1, 2),
                                     (0, 3, 1), (1, 2, 3)]))
def test_linear_ket_eigenpairs_match_the_circular_sector(params, point):
    pairs = []
    for w, overlaps in (_ket_eigenpairs(params, *point)[:2],
                        circular_sector_eigenpairs(params, *point)):
        seen = overlaps > 1e-3
        pairs.append(sorted(zip(w[seen].astype(np.float64), overlaps[seen])))
    ours, oracle = pairs
    assert len(ours) == len(oracle) >= 2
    for (lam, overlap), (lam_ref, overlap_ref) in zip(ours, oracle):
        assert abs(lam - lam_ref) <= 1e-12 * abs(lam_ref)
        assert abs(overlap - overlap_ref) <= 1e-12


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
@settings(derandomize=True, max_examples=15, deadline=None)
@given(pp_params(), pp_cutoffs)
def test_quasidark_eigenvalues_match_mpmath(params, cutoffs):
    mpmath.mp.dps = 40
    space = make_space(5, cutoffs)
    index, blocks = _pp_components(params, cutoffs, ground_states(space))
    for row, padded_block in zip(index, blocks):
        size = np.count_nonzero(row < space.total_dim)  # the padding is at the end
        block = padded_block[:size, :size]
        if len(block) < 2:
            continue
        w, _ = _jacobi_eigh_longdouble(block)
        ours = w[np.argmin(np.abs(w))]
        entries = [[mpmath.mpf(str(x)) for x in row] for row in block]  # longdouble, exactly
        exact = min(mpmath.eigsy(mpmath.matrix(entries), eigvals_only=True), key=abs)
        norm = float(np.linalg.norm(block))
        if abs(exact) <= 1e-30 * norm:  # a probe-free CPT dark state: exactly zero
            assert abs(ours) <= np.finfo(np.longdouble).eps * norm
        else:
            assert abs((mpmath.mpf(str(ours)) - exact) / exact) <= 1e-6


@PROPERTY
@given(st.integers(1, 40), st.sampled_from(["sparse", "paths"]), seeds)
def test_components_match_scipy_connected_components(size, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "sparse":  # random edges, self-loops and repeats included
        rows, cols = rng.integers(size, size=(2, rng.integers(0, 2 * size + 1)))
    else:  # long shuffled chains: the worst case for label propagation
        order = rng.permutation(size)
        links = rng.random(size - 1) < 0.9
        rows, cols = order[:-1][links], order[1:][links]
    graph = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
    n, labels = scipy.sparse.csgraph.connected_components(graph, directed=False)
    smallest = np.full(n, size)
    np.minimum.at(smallest, labels, np.arange(size))  # each component named by its smallest index
    assert np.array_equal(_components(rows, cols, size), smallest[labels])


@PROPERTY
@given(pp_params(), pp_cutoffs)
def test_pp_components_refine_the_excitation_sectors(params, cutoffs):
    space, (rows, cols, _) = _pp_table(params, *cutoffs)
    label = _components(rows, cols, space.total_dim)
    n_s, n_p = (np.diagonal(n_op) for n_op in pp_excitations(space))
    # label[i] is a state of i's component, so each component has one (N_s, N_p)
    assert np.array_equal(n_s[label], n_s) and np.array_equal(n_p[label], n_p)
    assert len(np.unique(label)) >= len(set(zip(n_s, n_p)))


@PROPERTY
@given(pp_params(), pp_cutoffs, seeds, st.floats(1e-3, 1e12))
def test_evolve_is_the_pp_component_route_bit_for_bit(params, cutoffs, seed, t):
    h = build_pp_hamiltonian(params, *cutoffs)
    rng = np.random.default_rng(seed)
    support = np.flatnonzero(rng.random(h.space.total_dim) < rng.choice([0.05, 0.5, 1.0]))
    support = np.union1d(support, rng.integers(h.space.total_dim, size=1))
    amps = np.zeros(h.space.total_dim, dtype=complex)
    amps[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    psi = StateVector(h.space, amps / np.linalg.norm(amps))
    ours = evolve(h, psi, t).amplitudes
    space, table = _pp_table(params, *cutoffs)  # the circular table evolve cuts from H
    sectors = _sector_blocks(table_lower(space.total_dim, table), support)
    assert np.array_equal(ours, _evolve_sectors([psi], sectors, t)[0].amplitudes)


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
def test_evolve_resolves_a_quasidark_phase_21_decades_below_the_norm():
    # The generic evolve of a dense PP Hamiltonian whose dark eigenvalue sits
    # at 1.25e-21 |H|, at t = 0.1 / |lambda|.  Double-precision LAPACK put
    # this amplitude 1.49 away from the exact one.  Oracle: the ket's
    # (N_s, N_p) sector, cut from the dense H by the excitation numbers,
    # evolved with 80-digit eigenpairs.
    params = SchemeParams(2e6, 2e6, 1e2, 0.01, 1.0)
    h = build_pp_hamiltonian(params, 2, 2, 3)
    space = h.space
    ket = space.index_of(0, (1, 0, 1))
    n_s, n_p = (np.diagonal(n_op) for n_op in pp_excitations(space))
    sector = np.flatnonzero((n_s == n_s[ket]) & (n_p == n_p[ket]))
    ref = int(np.flatnonzero(sector == ket)[0])
    with mpmath.workdps(80):
        w, v = mpmath.eigsy(mpmath.matrix(h.matrix.real[np.ix_(sector, sector)].tolist()))
        lam = min(w, key=abs)
        t = float(0.1 / abs(lam))
        exact = complex(mpmath.fsum(v[ref, k] ** 2 * mpmath.expj(-w[k] * mpmath.mpf(t))
                                    for k in range(len(sector))))
        assert abs(lam) / mpmath.mpf(np.linalg.norm(h.matrix, 2)) < 2e-21
    psi = StateVector(space, np.eye(1, space.total_dim, ket, dtype=complex)[0])
    assert abs(evolve(h, psi, t).amplitudes[ket] - exact) < 1e-12


# The longdouble Jacobi as it stood before its round rotated [a | v^T] in one
# call (kept verbatim but for the names): the bit-for-bit reference that
# pins the kernel's output.  It rotated only the pairs some matrix of the
# batch turned, and a's rows, a's columns and v's columns in three calls.
REFERENCE_SWEEPS = 60


@functools.lru_cache(maxsize=None)
def reference_round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
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


def reference_rotate_rows(x: np.ndarray, p: np.ndarray, q: np.ndarray, c: np.ndarray,
                 s: np.ndarray) -> None:
    """Rows (p, q) of every matrix in the stack x <- (c x_p - s x_q, s x_p + c x_q)."""
    xp, xq = x[:, p, :], x[:, q, :]
    c, s = c[:, :, None], s[:, :, None]
    x[:, p, :] = c * xp - s * xq
    x[:, q, :] = s * xp + c * xq


def reference_jacobi_eigh_longdouble(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    for _ in range(REFERENCE_SWEEPS):
        squares = a * a
        squares[:, diag, diag] = 0
        off = np.sqrt(np.sum(squares, axis=(1, 2)))
        live &= off < prev_off  # stagnated at the noise floor
        if not live.any():
            break
        prev_off = off
        rotated = np.zeros(batch, dtype=bool)
        for p, q in reference_round_robin(n):
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
            reference_rotate_rows(a, p, q, c, s)
            reference_rotate_rows(a.swapaxes(1, 2), p, q, c, s)
            reference_rotate_rows(v.swapaxes(1, 2), p, q, c, s)
        live &= rotated  # a sweep without a rotation has converged
    w = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(w, axis=1)
    w = np.take_along_axis(w, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    return (w[0], v[0]) if matrix.ndim == 2 else (w, v)


def assert_same_bits(ours, reference):
    """Every value the same, bit for bit.  An exact zero may differ in sign:
    a pair that no matrix turns now gets c = 1, s = 0 and can turn a -0 into
    +0, and no nonzero value depends on the sign of a zero.  (The 80-bit
    longdouble's padding bytes are undefined, so bytes are not compared.)"""
    for x, y in zip(ours, reference):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert np.array_equal(x, y)


@PROPERTY
@given(st.integers(1, 16), st.integers(1, 11), st.sampled_from(["graded", "sparse", "mixed"]),
       seeds)
def test_jacobi_is_bitwise_the_reference_kernel(n, batch, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "graded":  # rows and columns scaled over 16 decades
        scales = 10.0 ** rng.uniform(-8, 8, size=(batch, n, 1))
        a = rng.standard_normal((batch, n, n)) * scales * scales.transpose(0, 2, 1)
    elif kind == "sparse":  # exact zeros: pairs that never turn next to pairs that do
        a = rng.standard_normal((batch, n, n)) * (rng.random((batch, n, n)) < 0.3)
    else:  # members that stop at different sweeps in one stack: a graded or a
        # dense block of size 0, 1, 2 or n, zero-padded to n, with some padded
        # diagonal entries.  Up to size 1 nothing turns in sweep 1; a graded
        # pair turns one round, sweep after sweep, until it stagnates, so the
        # round skip must still test the round that turned last.
        size = rng.choice([0, 1, 2, n], size=(batch, 1, 1))
        graded = rng.random((batch, 1, 1)) < 0.5
        scales = np.where(graded, 10.0 ** rng.uniform(-8, 8, size=(batch, n, 1)), 1.0)
        a = rng.standard_normal((batch, n, n)) * scales * scales.transpose(0, 2, 1)
        inside = np.arange(n) < size
        kept = (inside & inside.transpose(0, 2, 1)) | (np.eye(n, dtype=bool)
                                                        & (rng.random((batch, n, 1)) < 0.5))
        a = a * kept
    a = a + a.transpose(0, 2, 1)
    assert_same_bits(_jacobi_eigh_longdouble(a), reference_jacobi_eigh_longdouble(a))
    assert_same_bits(_jacobi_eigh_longdouble(a[0]), reference_jacobi_eigh_longdouble(a[0]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(pp_params(), st.integers(2, 30))
def test_jacobi_is_bitwise_the_reference_kernel_on_pp_sectors(params, cutoff_p):
    # the linear five-level stacks, of rows of one size s = 2 .. 5 and of all
    # of them zero-padded to 5, and the circular 11 x 11 and 16 x 16 sectors
    # that evolve of build_pp_hamiltonian still runs at n_s = 2 and 3
    space = make_space(5, [2, 2, cutoff_p])
    _, n_h, n_v, n_p = np.unravel_index(ground_states(space), space.dims)
    shapes = [(n_h == 0) & (n_v == 1), (n_h == 1) & (n_v == 0) & (n_p == 0),
              (n_h == 1) & (n_v == 0) & (n_p > 0), (n_h == 1) & (n_v == 1), n_h >= 0]
    stacks = [_pp_components(params, space.mode_cutoffs, np.flatnonzero(shape))[1]
              for shape in shapes]
    for n_sl, n_sr in ((2, 0), (1, 2)):
        circular, table = _pp_table(params, n_sl + n_sr + 1, n_sl + n_sr + 1, 3)
        ket = circular.index_of(0, (n_sl, n_sr, 2))
        ((_, blocks),) = _sector_blocks(table_lower(circular.total_dim, table), [ket])
        stacks.append(blocks[0])
    assert {stack.shape[-1] for stack in stacks} >= {2, 3, 4, 5, 11, 16}
    for stack in stacks:
        assert_same_bits(_jacobi_eigh_longdouble(stack), reference_jacobi_eigh_longdouble(stack))


def test_jacobi_is_bitwise_the_reference_kernel_at_n_40():
    # the five-level stacks stop at n = 16; a dense n = 40 matrix turns every
    # one of its 39 rounds, pairs whose rows and columns no small n reaches
    rng = np.random.default_rng(40)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    assert_same_bits(_jacobi_eigh_longdouble(a), reference_jacobi_eigh_longdouble(a))


@pytest.mark.parametrize("n", range(1, 17))
def test_round_robin_plan_addresses_each_pair_once(n):
    # one matrix's [a | v^T], n rows of width 2n, each entry holding its own
    # flat index, which decodes to (row, column)
    width = 2 * n
    av = np.arange(n * width).reshape(n, width)
    seen = []
    for entries, pairs in _round_robin(n):
        k = len(pairs)
        assert entries.shape == (3, k) and pairs.shape == (k, 2)
        assert not (entries.flags.writeable or pairs.flags.writeable)
        p, q = pairs.T
        assert np.all(p < q) and len(set(p) | set(q)) == 2 * k  # disjoint pairs
        seen += zip(p.tolist(), q.tolist())
        assert np.array_equal(av.ravel()[entries], [av[p, q], av[p, p], av[q, q]])
        rows = av[pairs]  # (k, 2, 2n): the pair rows of [a | v^T]
        assert np.array_equal(rows // width, np.broadcast_to(pairs[..., None], rows.shape))
        assert np.array_equal(rows % width, np.broadcast_to(np.arange(width), rows.shape))
        cols = av[:, :n].T[pairs]  # (k, 2, n): a's pair columns
        assert np.array_equal(cols % width, np.broadcast_to(pairs[..., None], cols.shape))
        assert np.array_equal(cols // width, np.broadcast_to(np.arange(n), cols.shape))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@PROPERTY
@given(pp_params(), pp_cutoffs, seeds, st.floats(1e-3, 1e6))
def test_restricted_cut_is_the_full_cut_where_a_kept_state_lives(params, cutoffs, seed, t):
    space = make_space(5, cutoffs)
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(space.total_dim) < rng.choice([0.02, 0.2]))
    keep = np.union1d(keep, rng.integers(space.total_dim, size=1))
    full = linear_pp_sectors(params, cutoffs, np.arange(space.total_dim))
    ours = linear_pp_sectors(params, cutoffs, keep)
    expected = []
    for index, blocks in full:
        rows = np.isin(index, keep).any(axis=1)
        if rows.any():
            expected.append((index[rows], blocks[rows]))
    assert len(ours) == len(expected)
    for (index, blocks), (index_ref, blocks_ref) in zip(ours, expected):
        assert index.dtype == index_ref.dtype and np.array_equal(index, index_ref)
        assert blocks.dtype == blocks_ref.dtype and np.array_equal(blocks, blocks_ref)
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[keep] = rng.standard_normal(keep.size) + 1j * rng.standard_normal(keep.size)
    psi = StateVector(space, amps / np.linalg.norm(amps))
    restricted = _evolve_sectors([psi], ours, t)[0].amplitudes
    assert np.array_equal(restricted, _evolve_sectors([psi], full, t)[0].amplitudes)


def phase_target_time(params, n_p, phase):
    """The time at which the dark root of n_p probe photons turns by phase."""
    return phase / abs(min(estimate_eigenvalues(params, 1, 0, n_p).exact_roots, key=abs))


@st.composite
def qubit_lists(draw):
    """Drawn qubits and exact H, V, L and R, then the mirror (c_R, c_L) or a
    repeat of some of them, in any order."""
    exact = st.sampled_from([PolarizationQubit.horizontal(), PolarizationQubit.vertical(),
                             PolarizationQubit.left(), PolarizationQubit.right()])
    out = draw(st.lists(st.one_of(qubits(), exact), min_size=1, max_size=4))
    for k in draw(st.lists(st.integers(0, len(out) - 1), max_size=3)):
        out.append(PolarizationQubit(out[k].c_r, out[k].c_l) if draw(st.booleans()) else out[k])
    return draw(st.permutations(out))


@PROPERTY
@given(pp_params(), qubit_lists(),
       st.sampled_from([{"n_p": 0}, {"n_p": 1}, {"n_p": 3}, {"alpha_p": 0.5 + 0.2j},
                        {"alpha_p": 1.0, "cutoff_p": 12}, {"alpha_p": 2.0}]),
       st.floats(-3.0, 3.0))
def test_full_model_grid_is_each_qubit_alone_bit_for_bit(params, qubit_list, probe, phase):
    # one stack over every qubit's chains and pairs, one Jacobi call: each
    # qubit still gets the record it gets alone, and target_phase is the
    # time phase / |exact_small|, out of reach at n_p = 0 (no shift)
    lam = estimate_eigenvalues(params, 1, 0, probe.get("n_p", 1)).exact_small
    t = phase / abs(lam) if lam else phase
    alone = repr(tuple(full_vs_effective(params, q, t, **probe) for q in qubit_list))
    assert repr(full_model_grid(params, qubit_list, t=t, **probe)) == alone
    if lam:
        assert repr(full_model_grid(params, qubit_list, target_phase=phase, **probe)) == alone
    else:
        with pytest.raises(ValueError, match="target_phase unreachable"):
            full_model_grid(params, qubit_list, target_phase=phase, **probe)


@PROPERTY
@given(pp_params(), st.floats(0.01, 3.0), st.floats(-math.pi, math.pi), st.floats(0.1, 2.0))
def test_vertical_photon_leaves_the_probe_phase_alone(params, phase, arg, mag):
    # V = (L - R)/sqrt(2) lives in the odd pairs {|1; V>, 2-}, which the
    # drive never links to |3>: whatever the parameters, the probe keeps its phase
    c = cmath.exp(1j * arg) / math.sqrt(2)
    res = full_vs_effective(params, PolarizationQubit(c, -c), phase_target_time(params, 1, phase),
                            alpha_p=mag)
    assert abs(res.measured_phase) <= 1e-15


@PROPERTY
@given(pp_params(), qubits(), st.integers(1, 3), st.floats(0.01, 3.0))
def test_fock_probe_overlap_is_the_weighted_sum_of_its_channels(params, qubit, n_p, phase):
    # <psi0|psi_t> = w_H <H run> + w_V <V run>, w_H = |c_L + c_R|^2 / 2 and
    # w_V = |c_L - c_R|^2 / 2: each channel evolves on its own
    t = phase_target_time(params, n_p, phase)

    def amplitude(q):
        res = full_vs_effective(params, q, t, n_p=n_p)
        return math.sqrt(res.input_overlap) * cmath.exp(1j * res.measured_phase)

    w_h, w_v = abs(qubit.c_l + qubit.c_r) ** 2 / 2, abs(qubit.c_l - qubit.c_r) ** 2 / 2
    expected = (w_h * amplitude(PolarizationQubit.horizontal())
                + w_v * amplitude(PolarizationQubit.vertical()))
    assert abs(amplitude(qubit) - expected) <= 1e-12


def reference_aberth(poly, starts, max_iter=60):
    """Per-polynomial Aberth loop with a 60-step budget: the accuracy reference.

    Its stopping test, max|step| <= 1e-16 max(1, max|z|), asks for less than
    half an ulp of the largest root, so it nearly always runs all max_iter
    steps.
    """
    dpoly = np.polyder(poly)
    z = starts.astype(complex)
    off_diag = ~np.eye(len(z), dtype=bool)
    scale = max(1.0, float(np.max(np.abs(z))))
    for _ in range(max_iter):
        pz = np.polyval(poly, z)
        dz = np.polyval(dpoly, z)
        newton = np.where(dz == 0, 0.0, pz / np.where(dz == 0, 1.0, dz))
        diff = z[:, None] - z[None, :]
        recip = np.zeros_like(diff)
        ok = off_diag & (diff != 0)
        recip[ok] = 1.0 / diff[ok]
        denom = 1.0 - newton * recip.sum(axis=1)
        step = np.where(denom == 0, 0.0, newton / np.where(denom == 0, 1.0, denom))
        z_next = z - step
        if not np.all(np.isfinite(z_next)):
            break
        z = z_next
        if np.max(np.abs(step)) <= 1e-16 * scale:
            break
    return z


@st.composite
def quintics(draw):
    """Secular coefficients at hierarchy ratios 3 to 300 and occupations 0 to 3.

    An occupation of 0 makes e = 0 (a root at exactly 0); equal detunings
    park two levels together, which clusters two roots into a near-double
    root.
    """
    ratio = draw(st.floats(3.0, 300.0))
    omega = draw(st.floats(10.0, 100.0))
    r_det, r_drive, r_probe = (ratio * draw(st.floats(1.0, 1.5)) for _ in range(3))
    big = omega * r_det
    delta = big if draw(st.booleans()) else big * draw(st.floats(1.0, 3.0))
    params = SchemeParams(big, delta, omega, omega / r_drive / r_probe, omega / r_drive)
    occupations = [draw(st.integers(0, 3)) for _ in range(3)]
    return secular_coefficients(params, *occupations)


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def rounding_bound(poly, root):
    """First-order forward-error bound of a real root under float64 Horner.

    Horner's computed p(x) is off by at most 10 eps sum|c_k| |x|^k for a
    quintic; divided by |p'(root)| that bounds how far rounding alone can
    move a computed root.
    """
    powers = np.abs(root) ** np.arange(len(poly) - 1, -1, -1)
    slope = abs(np.polyval(np.polyder(poly), root))
    if slope == 0:
        return math.inf
    return 10 * np.finfo(float).eps * float(np.sum(np.abs(poly) * powers)) / slope


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
@PROPERTY
@given(quintics())
def test_roots_are_no_farther_from_mpmath_than_the_reference_loop(coeffs):
    poly = np.array([-1.0, *coeffs.as_tuple()])
    with mpmath.workdps(50):
        exact = np.sort([float(mpmath.re(r)) for r in mpmath.polyroots(
            [mpmath.mpf(float(c)) for c in poly], maxsteps=500, extraprec=500)])
    ours = quintic_roots(coeffs)
    reference = np.sort(reference_aberth(poly, np.roots(poly)).real)
    for r, new, old in zip(exact, ours, reference):
        # Where rounding noise of p swamps the root (clusters), each loop
        # stops at a point of that noise; the bound is its width.
        assert abs(new - r) <= max(abs(old - r), rounding_bound(poly, r))


@st.composite
def secular_points(draw):
    """(params, n_sL, n_sR, n_p) at hierarchy ratios 3 to 300, a third of them
    at delta = Delta, with occupations 0 to 3."""
    ratio = draw(st.floats(3.0, 300.0))
    omega = draw(st.floats(10.0, 100.0))
    r_det, r_drive, r_probe = (ratio * draw(st.floats(1.0, 1.5)) for _ in range(3))
    big = omega * r_det
    delta = big if draw(st.integers(0, 2)) == 0 else big * draw(st.floats(1.0, 3.0))
    params = SchemeParams(big, delta, omega, omega / r_drive / r_probe, omega / r_drive)
    return (params, *(draw(st.integers(0, 3)) for _ in range(3)))


@pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(secular_points())
def test_block_roots_match_mpmath(point):
    # the oracle: 50-digit eigenvalues of the same float block
    block = _pp_block_stack(*_point_arrays([point]))[0]
    roots = estimate_eigenvalues(*point).exact_roots
    with mpmath.workdps(50):
        exact = sorted(mpmath.eigsy(mpmath.matrix(block.tolist()), eigvals_only=True))
        dark = min(range(5), key=lambda k: abs(exact[k]))
        norm = max(abs(w) for w in exact)
        for k, (ours, w) in enumerate(zip(roots, exact)):
            if abs(w) <= 1e-30 * norm:  # n_s = 0 or n_p = 0: exactly singular, e = 0
                assert ours == 0.0
            else:
                assert abs(mpmath.mpf(ours) - w) <= (4e-15 if k == dark else 8e-15) * abs(w)


@PROPERTY
@given(st.lists(secular_points(), min_size=1, max_size=8))
def test_regime_scan_rows_equal_estimate_eigenvalues(points):
    for row, point in zip(regime_scan(points), points):
        alone = estimate_eigenvalues(*point)
        assert bitwise_equal(row.estimate.exact_roots, alone.exact_roots)
        assert row.estimate == alone


@PROPERTY
@given(st.lists(secular_points(), min_size=1, max_size=4), seeds, st.integers(0, 50))
def test_stack_kernel_rows_equal_stacks_of_their_own(points, seed, count):
    # the points first, then the extra rows; each row's coefficients and
    # eigenvalues as from a stack of that row alone, each point's estimate
    # as estimate_eigenvalues
    rng = np.random.default_rng(seed)
    draws = cli._draw_hierarchy_params(rng, count)
    occupations = rng.integers(1, 5, size=(count, 3))
    n_s, n_p = occupations[:, 0] + occupations[:, 1], occupations[:, 2]
    estimates, coeffs, w = estimate_stack(points, draws, n_s, n_p)
    assert len(estimates) == len(points)
    assert coeffs.shape == w.shape == (len(points) + count, 5)
    for est, point in zip(estimates, points):
        alone = estimate_eigenvalues(*point)
        assert bitwise_equal(est.exact_roots, alone.exact_roots)
        assert est == alone
    for k in range(count):
        _, c, v = estimate_stack([], draws[k:k + 1], n_s[k:k + 1], n_p[k:k + 1])
        assert bitwise_equal(coeffs[len(points) + k], c[0])
        assert bitwise_equal(w[len(points) + k], v[0])


TIE_POINT = SchemeParams(0.0, 124.0, 0.16, 7500.0, 0.005)  # its two least roots are +-lambda


def at_probe_detuning(value):
    return lambda point: (dataclasses.replace(point[0], delta_probe=value), *point[1:])


# secular_points, the same at Delta = +0 and -0, and the +-lambda tie point
dark_root_points = st.one_of(secular_points(), secular_points().map(at_probe_detuning(0.0)),
                             secular_points().map(at_probe_detuning(-0.0)),
                             st.just((TIE_POINT, 1, 0, 1)))


@PROPERTY
@given(st.lists(dark_root_points, min_size=1, max_size=6))
def test_exact_small_is_the_root_every_consumer_reads(points):
    # one pick of the dark root: the errors are measured against it and
    # the CSV writes it, bit for bit
    rows = regime_scan(points)
    table = scan_to_csv_rows(rows)
    assert table[0][9] == "lambda_s_exact"
    for row, cells in zip(rows, table[1:]):
        est = row.estimate
        roots = np.array(est.exact_roots)
        assert np.any(roots.view(np.int64) == np.float64(est.exact_small).view(np.int64))
        assert abs(est.exact_small) <= np.abs(roots).min() * (1 + 1e-12)
        floor = max(abs(est.exact_small), 1e-300)
        assert est.rel_err_small == abs(est.lambda_small - est.exact_small) / floor
        assert bitwise_equal(est.rel_err_small_reduced,
                             abs(est.lambda_small_reduced - est.exact_small) / floor)
        assert cells[9] == repr(est.exact_small)


@pytest.mark.parametrize("qubit", [PolarizationQubit.horizontal(), PolarizationQubit.vertical(),
                                   PolarizationQubit.left(), PolarizationQubit(0.6, 0.8j)])
@pytest.mark.parametrize("probe", [{"n_p": 1}, {"n_p": 3}, {"alpha_p": 0.5 + 0.2j},
                                   {"alpha_p": 2.0}])
@settings(derandomize=True, max_examples=9, deadline=None)
@given(pp_params(), st.sampled_from([None, 0.0, -0.0]), st.floats(0.01, 3.0))
def test_full_vs_effective_predicts_with_exact_small(qubit, probe, params, delta_probe, phase):
    # a coherent probe is read per probe photon, at n_p = 1; at Delta = +-0
    # there is no Kerr coefficient and no result
    n_p = probe.get("n_p", 1)
    t = phase_target_time(params, n_p, phase)
    if delta_probe is not None:
        params = dataclasses.replace(params, delta_probe=delta_probe)
        with pytest.raises(ValueError, match="not finite"):
            full_vs_effective(params, qubit, t, **probe)
        return
    res = full_vs_effective(params, qubit, t, **probe)
    assert res.predicted_phase_secular == -estimate_eigenvalues(params, 1, 0, n_p).exact_small * t


@PROPERTY
@given(seeds, st.integers(1, 50))
def test_array_drawn_secular_oracle_equals_per_draw_loop(seed, count):
    # each draw's oracle row is the char poly of its own even chain's
    # eigenvalues and delta, bit for bit, and agrees with the char poly of
    # its 5x5 block to the CLI's 1e-9
    rng = np.random.default_rng(seed)
    draws = cli._draw_hierarchy_params(rng, count)
    occupations = rng.integers(1, 5, size=(count, 3))
    n_s, n_p = occupations[:, 0] + occupations[:, 1], occupations[:, 2]
    _, closed, w = estimate_stack([], draws, n_s, n_p)
    oracle = char_poly_from_eigenvalues(w)
    for row, occ, c, o in zip(draws.tolist(), occupations.tolist(), closed, oracle):
        params = SchemeParams(*row)
        assert bitwise_equal(c, secular_coefficients(params, *occ).as_tuple())
        even = np.array([[row[0], row[1], row[2] * math.sqrt(2), row[3], row[4]]])
        chain = _pp_chain_stack(even, np.array([occ[0] + occ[1]]), np.array([occ[2]]))[0]
        assert bitwise_equal(o, -np.poly(np.sort([*np.linalg.eigvalsh(chain), row[1]]))[1:])
        block = np.array(char_poly_coefficients(build_pp_block_matrix(params, *occ)).as_tuple())
        assert np.all(np.abs(o - block) <= 1e-9 * np.maximum(np.abs(o), np.abs(block)))


@st.composite
def hermitian_stacks(draw):
    """(B, 5, 5) stacks: block models of the PP scheme or random Hermitian
    matrices, real or complex, some with exact zero eigenvalues."""
    rng = np.random.default_rng(draw(seeds))
    batch = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["block", "real", "complex", "diagonal"]))
    if kind == "block":
        params = draw(pp_params())
        return np.array([build_pp_block_matrix(params, *(int(n) for n in rng.integers(1, 4, 3)))
                         for _ in range(batch)])
    if kind == "diagonal":
        return np.array([np.diag(rng.integers(-2, 3, 5).astype(float)) for _ in range(batch)])
    m = rng.standard_normal((batch, 5, 5))
    if kind == "complex":
        m = m + 1j * rng.standard_normal((batch, 5, 5))
    return m + np.swapaxes(m, 1, 2).conj()


@PROPERTY
@given(hermitian_stacks())
def test_stacked_char_poly_matches_np_poly_per_matrix(stack):
    ours = char_poly_from_eigenvalues(_hermitian_eigvalsh(stack))
    for m, row in zip(stack, ours):
        assert bitwise_equal(row, -np.poly(np.linalg.eigvalsh(m))[1:])
