import cmath
import math
import re
import warnings

import numpy as np
import pytest

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None

from ppqnd import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateVector,
    annihilation_op,
    atom_transition_op,
    basis_state,
    char_poly_coefficients,
    coherent_state,
    coherent_truncation_loss,
    creation_op,
    default_cutoff,
    evolve,
    fidelity,
    hermitian_eig,
    make_space,
    number_op,
    partial_trace,
    tensor_state,
)
from ppqnd.fock import _check_unitarity, _coherent_amplitudes, _coherent_probe


def random_hermitian(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (m + m.conj().T)
    return h * scale / max(1.0, np.linalg.norm(h, 2))


class TestHilbertSpace:
    def test_total_dims(self):
        assert make_space(1, [1]).total_dim == 1
        assert make_space(5, [2, 2, 2]).total_dim == 40
        assert make_space(4, [2, 8]).total_dim == 64

    def test_total_dim_is_exact(self):
        # the product of the factors as a Python int: np.prod wrapped it in int64
        for space in (make_space(1, [10**5] * 4), HilbertSpace(np.int64(10**5), (10**5,) * 3)):
            assert space.total_dim == 10**20
            assert type(space.total_dim) is int

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_space(0, [2])
        with pytest.raises(ValueError):
            make_space(2, [0])
        with pytest.raises(ValueError):
            make_space(2, [3, -1])

    def test_index_bijection_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            atom = int(rng.integers(1, 5))
            cutoffs = [int(c) for c in rng.integers(1, 5, size=rng.integers(1, 4))]
            space = make_space(atom, cutoffs)
            for idx in range(space.total_dim):
                lvl, occ = space.unpack(idx)
                assert space.index_of(lvl, occ) == idx

    def test_state_vector_refuses_nan_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(make_space(1, [2]), [math.nan, 0.0])

    def test_density_matrix_refuses_nan_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(make_space(1, [2]), [[math.nan, 0.0], [0.0, 0.0]])

    def test_row_major_order_atom_slowest(self):
        space = make_space(2, [2, 3])
        # last mode fastest
        assert space.index_of(0, (0, 1)) == 1
        assert space.index_of(0, (1, 0)) == 3
        assert space.index_of(1, (0, 0)) == 6


class TestLadderOperators:
    def test_annihilation_cutoff2(self):
        space = make_space(1, [2])
        a = annihilation_op(space, 0).matrix
        one = basis_state(space, 0, [1]).amplitudes
        zero = basis_state(space, 0, [0]).amplitudes
        assert np.allclose(a @ one, zero)
        assert np.allclose(a @ zero, 0.0)

    def test_sqrt_n_rule(self):
        space = make_space(1, [4])
        a = annihilation_op(space, 0).matrix
        three = basis_state(space, 0, [3]).amplitudes
        assert np.allclose(a @ three, math.sqrt(3) * basis_state(space, 0, [2]).amplitudes)

    def test_number_identity(self):
        space = make_space(2, [3, 4])
        for mode in (0, 1):
            n_direct = number_op(space, mode).matrix
            a = annihilation_op(space, mode).matrix
            assert np.allclose(a.conj().T @ a, n_direct)

    def test_commutator_below_boundary(self):
        # [a, a+] = 1 on every basis state with n < cutoff - 1
        space = make_space(1, [6])
        a = annihilation_op(space, 0).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        for n in range(5):
            v = basis_state(space, 0, [n]).amplitudes
            assert np.allclose(comm @ v, v)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            annihilation_op(make_space(1, [2]), 1)


class TestAtomOperators:
    def test_projector_idempotent(self):
        space = make_space(3, [2])
        p = atom_transition_op(space, 1, 1).matrix
        assert np.allclose(p @ p, p)

    def test_adjoint(self):
        space = make_space(3, [2])
        assert np.allclose(atom_transition_op(space, 0, 1).matrix.conj().T,
                           atom_transition_op(space, 1, 0).matrix)

    def test_completeness(self):
        space = make_space(4, [3])
        total = sum(atom_transition_op(space, i, i).matrix for i in range(4))
        assert np.allclose(total, np.eye(space.total_dim))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            atom_transition_op(make_space(2, [2]), 2, 0)


def kron_embedding(space, atom, mode=None, single=None):
    """Independent oracle: atom (x) I ... (x) single at `mode` ... (x) I, by np.kron."""
    out = np.asarray(atom, dtype=complex)
    for m, cut in enumerate(space.mode_cutoffs):
        out = np.kron(out, single if m == mode else np.eye(cut, dtype=complex))
    return out


class TestCouplingTableOperators:
    # the operators come from the coupling table; the kron embedding they
    # replaced stays here as the oracle, compared byte for byte
    SPACES = [(1, [1]), (1, [5]), (1, [2, 1, 3]), (2, [1, 4]), (3, [3, 2]), (5, [2, 2, 3])]

    @pytest.mark.parametrize("atom_dim,cutoffs", SPACES)
    def test_ladder_operators_match_kron_embedding(self, atom_dim, cutoffs):
        space = make_space(atom_dim, cutoffs)
        for mode, cut in enumerate(cutoffs):
            single = np.diag(np.sqrt(np.arange(1, cut)), 1).astype(complex)
            oracle = kron_embedding(space, np.eye(atom_dim, dtype=complex), mode, single)
            a, a_dag = annihilation_op(space, mode), creation_op(space, mode)
            assert a.matrix.tobytes() == oracle.tobytes()
            assert a_dag.matrix.tobytes() == oracle.conj().T.tobytes()
            assert not a.hermitian_flag and not a_dag.hermitian_flag

    @pytest.mark.parametrize("atom_dim,cutoffs", SPACES)
    def test_atom_transitions_match_kron_embedding(self, atom_dim, cutoffs):
        space = make_space(atom_dim, cutoffs)
        for i in range(atom_dim):
            for j in range(atom_dim):
                e = np.zeros((atom_dim, atom_dim), dtype=complex)
                e[i, j] = 1.0
                op = atom_transition_op(space, i, j)
                assert op.matrix.tobytes() == kron_embedding(space, e).tobytes()
                assert op.hermitian_flag == (i == j)


def truncated_poisson_mean(alpha, cutoff):
    """Independent oracle: renormalized mean of Poisson(|alpha|^2) below cutoff."""
    lam = abs(alpha) ** 2
    logs = [n * math.log(lam) - lam - math.lgamma(n + 1) for n in range(cutoff)]
    p = np.exp(logs)
    return float(np.sum(np.arange(cutoff) * p) / np.sum(p))


class TestCoherentStates:
    def test_alpha_zero_is_vacuum(self):
        state = coherent_state(5, 0.0)
        assert np.allclose(state.amplitudes, basis_state(make_space(1, [5]), 0, [0]).amplitudes)

    def test_truncation_loss_alpha2_cutoff40(self):
        loss = coherent_truncation_loss(40, 2.0)
        # oracle: Poisson(4) tail weight at n >= 40
        tail = sum(math.exp(n * math.log(4.0) - 4.0 - math.lgamma(n + 1)) for n in range(40, 400))
        assert loss < 1e-12
        assert loss == pytest.approx(tail, rel=1e-3, abs=1e-25)

    def test_mean_photon_number(self):
        state = coherent_state(40, 2.0)
        space = state.space
        mean_n = state.expectation(number_op(space, 0)).real
        assert abs(mean_n - 4.0) < 1e-9
        assert mean_n == pytest.approx(truncated_poisson_mean(2.0, 40), abs=1e-12)

    def test_coherent_is_annihilation_eigenstate(self):
        alpha = 1 + 1j
        state = coherent_state(40, alpha)
        a = annihilation_op(state.space, 0)
        mean_a = complex(np.vdot(state.amplitudes, a.matrix @ state.amplitudes))
        assert abs(mean_a - alpha) < 1e-9

    @pytest.mark.parametrize("cutoff", [1, 2, 5, 30, 75])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 3 * cmath.exp(2.2j), -7.1 + 3j])
    def test_probe_array_is_the_state_amplitudes(self, cutoff, alpha):
        # the reference: the truncated coefficients over their norm, as the
        # state has always been built
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lossy truncations at the small cutoffs
            state, probe = coherent_state(cutoff, alpha), _coherent_probe(cutoff, alpha)
        c = _coherent_amplitudes(cutoff, alpha)
        assert probe.tobytes() == (c / np.linalg.norm(c)).tobytes()
        assert state.amplitudes.tobytes() == probe.tobytes()

    def test_warns_on_lossy_truncation(self):
        with pytest.warns(UserWarning):
            coherent_state(9, 3.0)

    @pytest.mark.parametrize("alpha", [39.0, 40.0, 50.0, 45j, -40 + 30j])
    def test_large_amplitudes_build_without_underflow(self, alpha):
        # e^{-|alpha|^2/2} underflows from |alpha| ~ 39 on; the state must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = coherent_state(default_cutoff(alpha), alpha)
            loss = coherent_truncation_loss(default_cutoff(alpha), alpha)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-14
        assert loss < 1e-9
        n = np.arange(len(state.amplitudes))
        pop = np.abs(state.amplitudes) ** 2
        assert pop @ n == pytest.approx(abs(alpha) ** 2, rel=1e-12)

    def test_cutoff_without_weight_is_refused(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="none of the weight"):
            coherent_state(5, 50.0)

    @pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
    def test_amplitudes_no_farther_from_mpmath_than_the_loop(self):
        # the reference: the sequential loop the vectorized build replaced
        def loop(cutoff, alpha):
            c = np.empty(cutoff, dtype=complex)
            c[0] = math.exp(-0.5 * abs(alpha) ** 2)
            for n in range(1, cutoff):
                c[n] = c[n - 1] * alpha / math.sqrt(n)
            return c / np.linalg.norm(c)

        def error(c, exact):
            return max(abs(mpmath.mpc(x.real, x.imag) - e) for x, e in zip(c, exact))

        ours_errors, loop_errors = [], []
        for mag in (0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 7.3, 10.0):
            for phase in (0.0, math.pi / 3, -2.1, math.pi):
                alpha = mag * cmath.exp(1j * phase)
                cutoff = default_cutoff(alpha)
                with mpmath.workdps(40):
                    a = mpmath.mpc(alpha.real, alpha.imag)
                    exact = [a ** n / mpmath.sqrt(mpmath.factorial(n)) for n in range(cutoff)]
                    norm = mpmath.sqrt(sum(abs(x) ** 2 for x in exact))
                    exact = [x / norm for x in exact]
                    ours = error(coherent_state(cutoff, alpha).amplitudes, exact)
                    old = error(loop(cutoff, alpha), exact)
                # per state: no farther than the loop, or within one rounding
                # of the unit-norm scale (both sit at 1-2 ulp)
                assert ours <= max(old, np.finfo(float).eps)
                ours_errors.append(ours)
                loop_errors.append(old)
        assert sum(ours_errors) <= sum(loop_errors)


class TestTensorState:
    def test_ground_is_index_zero(self):
        space = make_space(3, [2, 2])
        vac = np.array([1.0, 0.0])
        state = tensor_state(space, 0, [vac, vac])
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_norm_one(self):
        space = make_space(2, [3])
        state = tensor_state(space, 1, [np.array([1.0, 1.0, 1.0])])
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_distinct_products_orthogonal(self):
        space = make_space(2, [2, 2])
        s1 = tensor_state(space, 0, [np.array([1, 0]), np.array([0, 1])])
        s2 = tensor_state(space, 1, [np.array([1, 0]), np.array([0, 1])])
        assert abs(s1.overlap(s2)) == 0.0

    def test_shape_mismatch(self):
        space = make_space(2, [2, 2])
        with pytest.raises(ValueError):
            tensor_state(space, 0, [np.array([1, 0, 0]), np.array([1, 0])])


class TestEigendecomposition:
    def test_identity(self):
        space = make_space(1, [3])
        w, _ = hermitian_eig(Operator(space, np.eye(3, dtype=complex)))
        assert np.allclose(w, 1.0)

    def test_two_level_flip(self):
        space = make_space(2, [1])
        w, _ = hermitian_eig(Operator(space, np.array([[0, 1], [1, 0]], dtype=complex)))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        for dim in (5, 40, 200):
            space = make_space(1, [dim])
            h = random_hermitian(rng, dim, scale=7.0)
            op = Operator(space, h)
            w, v = hermitian_eig(op)
            norm = np.linalg.norm(h, 2)
            assert np.linalg.norm(h @ v - v * w, 2) <= 1e-9 * norm
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10

    def test_rejects_nonhermitian_flag(self):
        space = make_space(1, [2])
        op = annihilation_op(space, 0)
        with pytest.raises(ValueError):
            hermitian_eig(op)


def nan_off_diagonal(n):
    """The maximally mixed n x n matrix with one NaN pair off the diagonal:
    unit trace, and Hermitian but for the NaN."""
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = m[1, 0] = math.nan
    return m


@pytest.mark.parametrize("check", [
    lambda m: Operator(make_space(1, [5]), m),
    lambda m: DensityMatrix(make_space(1, [5]), m),
    char_poly_coefficients,
], ids=["Operator", "DensityMatrix", "char_poly_coefficients"])
def test_hermitian_checks_refuse_nan(check):
    # max |M - M^+| is NaN here, which a `dev > bound` test lets through
    with pytest.raises(ValueError, match=r"Hermitian|\|M - M\^\+\|"):
        check(nan_off_diagonal(5))


SPACE_2 = make_space(1, [2])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: make_space(1, [2, 2]).index_of(0, [1]),
                 "expected 2 occupation numbers, got 1", id="index_of-occupations"),
    pytest.param(lambda: StateVector(SPACE_2, np.ones(3) / math.sqrt(3)),
                 "amplitude vector has shape (3,), space needs (2,)", id="StateVector-shape"),
    pytest.param(lambda: DensityMatrix(SPACE_2, np.eye(3) / 3),
                 "matrix shape (3, 3) does not match space dim 2", id="DensityMatrix-shape"),
    pytest.param(lambda: Operator(SPACE_2, np.eye(3)),
                 "matrix shape (3, 3) does not match space dim 2", id="Operator-shape"),
    pytest.param(lambda: DensityMatrix(SPACE_2, np.diag([1.5, -0.5])),
                 "density matrix has negative eigenvalue -0.5", id="DensityMatrix-negative"),
    pytest.param(lambda: coherent_state(0, 1.0), "cutoff must be >= 1", id="coherent_state-0"),
    pytest.param(lambda: tensor_state(make_space(2, [2]), 2, [np.array([1, 0])]),
                 "atom level 2 out of range for atom_dim 2", id="tensor_state-level"),
    pytest.param(lambda: tensor_state(SPACE_2, 0, []), "expected 1 mode factors, got 0",
                 id="tensor_state-factors"),
    pytest.param(lambda: tensor_state(SPACE_2, 0, [np.zeros(2)]),
                 "tensor_state: a mode factor is the zero vector", id="tensor_state-zero"),
    pytest.param(lambda: evolve(annihilation_op(SPACE_2, 0), basis_state(SPACE_2, 0, [1]), 1.0),
                 "evolve requires a Hermitian operator", id="evolve-non-hermitian"),
])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestEvolve:
    def test_time_zero(self):
        space = make_space(1, [12])
        psi = coherent_state(12, 0.5)
        h = Operator(space, np.diag(np.arange(12.0)).astype(complex))
        out = evolve(h, psi, 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_eigenvector_gets_phase(self):
        space = make_space(1, [3])
        h = Operator(space, np.diag([0.0, 2.0, 5.0]).astype(complex))
        psi = basis_state(space, 0, [1])
        out = evolve(h, psi, 0.7)
        assert np.allclose(out.amplitudes, np.exp(-1j * 2.0 * 0.7) * psi.amplitudes)

    def test_group_property(self):
        rng = np.random.default_rng(5)
        space = make_space(1, [12])
        h = Operator(space, random_hermitian(rng, 12, scale=3.0))
        psi = coherent_state(12, 0.8)
        one_shot = evolve(h, psi, 1.9)
        two_step = evolve(h, evolve(h, psi, 1.1), 0.8)
        assert np.max(np.abs(one_shot.amplitudes - two_step.amplitudes)) < 1e-10

    def test_norm_preserved_long_times(self):
        rng = np.random.default_rng(8)
        space = make_space(1, [16])
        h = Operator(space, random_hermitian(rng, 16, scale=1e3))
        psi = coherent_state(16, 1.0)
        out = evolve(h, psi, 1e3)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_space_mismatch(self):
        h = Operator(make_space(1, [3]), np.eye(3, dtype=complex))
        psi = coherent_state(4, 0.1)
        with pytest.raises(ValueError):
            evolve(h, psi, 1.0)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_infinite_time_refused(self, diagonal):
        # exp(-i H inf) has no phases: the time is refused by name before any
        # arithmetic (no numpy warning), and a NaN norm still fails the
        # unitarity check behind it
        space = make_space(1, [4])
        m = np.diag(np.arange(4.0)) + (0 if diagonal else 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1)))
        psi = StateVector(space, np.full(4, 0.5))
        with pytest.raises(ValueError, match="evolution time t must be finite"):
            evolve(Operator(space, m.astype(complex)), psi, float("inf"))
        with pytest.raises(ArithmeticError, match="unitarity"):
            _check_unitarity(np.array([np.nan]))


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        space = make_space(2, [3])
        mode = np.array([0.6, 0.8, 0.0])
        state = tensor_state(space, 1, [mode])
        reduced = partial_trace(state.to_density_matrix(), keep=[0])
        expected = np.outer(mode, mode.conj())
        assert np.max(np.abs(reduced.matrix - expected)) < 1e-12
        assert reduced.purity() == pytest.approx(1.0, abs=1e-12)

    def test_entangled_reduces_to_mixed(self):
        space = make_space(1, [2, 2])
        amps = np.zeros(4, dtype=complex)
        amps[space.index_of(0, (0, 0))] = 1 / math.sqrt(2)
        amps[space.index_of(0, (1, 1))] = 1 / math.sqrt(2)
        rho = StateVector(space, amps).to_density_matrix()
        reduced = partial_trace(rho, keep=[0])
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_trace_preserved_and_valid(self):
        rng = np.random.default_rng(21)
        space = make_space(2, [2, 3])
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amps /= np.linalg.norm(amps)
        rho = StateVector(space, amps).to_density_matrix()
        for keep in (["atom"], [0], [1], ["atom", 1]):
            red = partial_trace(rho, keep=keep)
            assert abs(np.trace(red.matrix) - 1.0) < 1e-12  # DensityMatrix also validates

    def test_empty_selector(self):
        rho = coherent_state(8, 0.3).to_density_matrix()
        with pytest.raises(ValueError):
            partial_trace(rho, keep=[])


class TestFidelity:
    def test_identical_pure(self):
        a = coherent_state(16, 1.0)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        space = make_space(1, [2])
        assert fidelity(basis_state(space, 0, [0]), basis_state(space, 0, [1])) == 0.0

    def test_global_phase_invariance(self):
        a = coherent_state(10, 0.7)
        b = StateVector(a.space, np.exp(1j * 1.234) * a.amplitudes)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_mixed(self):
        space = make_space(1, [2])
        plus = StateVector(space, np.array([1, 1]) / math.sqrt(2))
        mixed = DensityMatrix(space, np.eye(2) / 2)
        assert fidelity(plus, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_mixed_self(self):
        rho = coherent_state(10, 0.4).to_density_matrix()
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(coherent_state(6, 0.1), coherent_state(7, 0.1))


class TestIndependentOracles:
    def test_evolve_matches_scipy_expm(self):
        # cross-oracle: eigendecomposition evolution vs scaling-and-squaring
        import scipy.linalg
        from ppqnd import Operator, StateVector, evolve, make_space
        rng = np.random.default_rng(31)
        space = make_space(2, [3, 2])
        dim = space.total_dim
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = Operator(space, 0.5 * (m + m.conj().T))
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = StateVector(space, amps / np.linalg.norm(amps))
        for t in (0.3, 2.7):
            ours = evolve(h, psi, t).amplitudes
            oracle = scipy.linalg.expm(-1j * h.matrix * t) @ psi.amplitudes
            assert np.max(np.abs(ours - oracle)) < 1e-10

    def test_partial_trace_matches_loop_oracle(self):
        from ppqnd import StateVector, make_space, partial_trace
        rng = np.random.default_rng(32)
        space = make_space(3, [2, 4])
        amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
        rho = StateVector(space, amps / np.linalg.norm(amps)).to_density_matrix()

        # keep the atom and mode 1, trace mode 0, by explicit index loops
        reduced = partial_trace(rho, keep=["atom", 1])
        oracle = np.zeros((12, 12), dtype=complex)
        for a_r in range(3):
            for n1_r in range(4):
                for a_c in range(3):
                    for n1_c in range(4):
                        acc = 0.0 + 0.0j
                        for n0 in range(2):
                            acc += rho.matrix[space.index_of(a_r, (n0, n1_r)),
                                              space.index_of(a_c, (n0, n1_c))]
                        oracle[a_r * 4 + n1_r, a_c * 4 + n1_c] = acc
        assert np.max(np.abs(reduced.matrix - oracle)) < 1e-13


    def test_extended_precision_path(self):
        # a real symmetric H goes through the longdouble Jacobi and agrees with
        # LAPACK on moderate scales; the Jacobi rejects a genuinely complex
        # Hermitian, which evolve sends to LAPACK instead
        import scipy.linalg
        from ppqnd import Operator, StateVector, evolve, make_space
        from ppqnd.fock import _jacobi_eigh_longdouble
        rng = np.random.default_rng(33)
        space = make_space(1, [8])
        m = rng.standard_normal((8, 8))
        h = Operator(space, (0.5 * (m + m.T)).astype(complex))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = StateVector(space, amps / np.linalg.norm(amps))
        w, v = np.linalg.eigh(h.matrix)
        lapack = v @ (np.exp(-1j * w * 2.2) * (v.conj().T @ psi.amplitudes))
        assert np.max(np.abs(evolve(h, psi, 2.2).amplitudes - lapack)) < 1e-12

        mc = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h_complex = Operator(space, 0.5 * (mc + mc.conj().T))
        with pytest.raises(ValueError):
            _jacobi_eigh_longdouble(h_complex.matrix)
        oracle = scipy.linalg.expm(-1j * h_complex.matrix) @ psi.amplitudes
        assert np.max(np.abs(evolve(h_complex, psi, 1.0).amplitudes - oracle)) < 1e-12
