import cmath
import collections
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ppqnd import (
    MAX_STATE_SIZE,
    Operator,
    PolarizationQubit,
    SchemeParams,
    backaction_product,
    basis_state,
    build_pp_block_matrix,
    coherent_state,
    compare_block_to_full,
    default_cutoff,
    dephasing_grid,
    discrimination_error,
    estimate_eigenvalues,
    evolve,
    evolve_qnd,
    fidelity,
    full_model_grid,
    full_vs_effective,
    homodyne_estimate,
    lambda_dark_state,
    make_space,
    polarization_dephasing,
    ppqnd_energies,
    qnd_hamiltonian,
)

from linear_pp_oracle import linear_pp_sectors

try:
    import mpmath
except ImportError:  # the 60-digit oracle test is skipped without it
    mpmath = None

SQ2 = 1 / math.sqrt(2)
CLI_QUBITS = [PolarizationQubit(1.0, 0.0), PolarizationQubit(0.0, 1.0),
              PolarizationQubit(SQ2, SQ2), PolarizationQubit(SQ2, -SQ2),
              PolarizationQubit(SQ2, 1j * SQ2), PolarizationQubit(SQ2, -1j * SQ2)]


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


RATIO100 = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.01, xi_p=1.0)


def dense_jacobi_evolve(h, psi, t):
    """The dense oracle: the whole real D x D H as one block of the longdouble Jacobi."""
    from ppqnd.fock import _evolve_sectors
    m = h.matrix.real
    return _evolve_sectors([psi], [(np.arange(len(m))[None], m[None])], t)[0]


class TestEvolveQnd:
    def test_purity_forms_no_signal_gram(self):
        # n_s = 1000 at cutoff 30: the (n_s + 1)^2 Gram matrix m m^+ alone
        # would take 16 MB
        assert traced_peak(lambda: evolve_qnd(1000, 2.0, -0.01, 10.0)) < 4e6

    def test_truncated_probe_warns_once(self):
        # the probe's truncation check runs once; the two reference kets skip it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve_qnd(1, 3.0, -0.01, 10.0, cutoff_p=12)
        assert [w.category for w in caught] == [UserWarning]
        assert "truncation loss" in str(caught[0].message)

    def test_no_signal_no_phase(self):
        res = evolve_qnd(0, 2.0, -0.05, 3.0)
        assert res.readout.phase_shift == pytest.approx(0.0, abs=1e-12)
        assert res.probe_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_pi_kick_flips_amplitude(self):
        res = evolve_qnd(1, 1.5, -math.pi, 1.0)
        flipped = coherent_state(res.state.space.mode_cutoffs[1], -1.5)
        rho_p = _reduced_probe(res)
        assert fidelity(flipped, rho_p) == pytest.approx(1.0, abs=1e-9)

    def test_two_photon_phase(self):
        # chi t = -0.1 per photon, n_s = 2: probe rotates by +0.2 rad
        res = evolve_qnd(2, 3.0, -0.05, 2.0)
        assert res.readout.phase_shift == pytest.approx(0.2, abs=1e-9)
        assert res.probe_fidelity >= 1.0 - 1e-9
        assert res.probe_fidelity > res.probe_fidelity_flipped
        assert res.readout.inferred_n_s == 2

    @pytest.mark.parametrize("n_s, t, inferred", [
        (1, 10.0, 1), (3, 100.0, 3), (1, 400.0, None), (4, 100.0, None), (0, 1e3, 0)])
    def test_photon_number_inferred_only_where_the_shift_is_unambiguous(self, n_s, t, inferred):
        # the shift is wrapped to (-pi, pi]: past n_s |chi t| = pi it was
        # divided by the unwrapped -chi t, and n_s = 1 at chi t = -4 read 0
        res = evolve_qnd(n_s, 2.0, -0.01, t)
        assert res.readout.inferred_n_s == inferred

    def test_joint_state_stays_product(self):
        res = evolve_qnd(3, 2.0, -0.3, 1.7)
        assert res.probe_purity == pytest.approx(1.0, abs=1e-10)

    def test_signal_distribution_frozen(self):
        res = evolve_qnd(2, 2.0, -0.3, 5.0)
        space = res.state.space
        dist = np.zeros(space.mode_cutoffs[0])
        for i, amp in enumerate(res.state.amplitudes):
            _, (ns, _) = space.unpack(i)
            dist[ns] += abs(amp) ** 2
        expected = np.zeros_like(dist)
        expected[2] = 1.0
        assert np.max(np.abs(dist - expected)) < 1e-12


def _reduced_probe(res):
    from ppqnd import partial_trace
    return partial_trace(res.state.to_density_matrix(), keep=[1])


class TestHomodyne:
    def test_coherent_mean_and_variance(self):
        state = coherent_state(40, 2.0)
        readout = homodyne_estimate(state, 0.0)
        assert readout.quadrature_mean == pytest.approx(2.0, abs=1e-9)
        assert readout.quadrature_variance == pytest.approx(0.25, abs=1e-6)
        assert readout.lo_phase == 0.0

    def test_phase_estimate(self):
        state = coherent_state(40, 2.0 * cmath.exp(0.3j))
        readout = homodyne_estimate(state, 0.0)
        assert readout.phase_shift == pytest.approx(0.3, abs=1e-9)

    def test_fock_state_phase_undefined(self):
        space = make_space(1, [4])
        one = basis_state(space, 0, [1])
        readout = homodyne_estimate(one, 0.0)
        assert readout.phase_shift is None
        assert readout.inferred_n_s is None

    def test_photon_inference_rounds_and_clamps(self):
        state = coherent_state(40, 2.0 * cmath.exp(0.21j))
        readout = homodyne_estimate(state, 0.0, phase_per_photon=0.1)
        assert readout.inferred_n_s == 2
        readout = homodyne_estimate(state, 0.0, phase_per_photon=-0.1)
        assert readout.inferred_n_s == 0  # clamped below at zero


class TestDiscrimination:
    def test_indistinguishable_at_zero_amplitude(self):
        res = discrimination_error(0.0, 0.5, trials=200, seed=1)
        assert res.analytic_error == 0.5
        assert abs(res.mc_error - 0.5) < 0.15

    def test_separated_gaussians(self):
        res = discrimination_error(100.0, 0.5, trials=500, seed=2)
        assert res.analytic_error < 1e-12
        assert res.mc_error == 0.0

    def test_monte_carlo_tracks_analytic(self):
        res = discrimination_error(4.0, 0.25, trials=20000, seed=3)
        assert abs(res.mc_error - res.analytic_error) <= 3 * res.std_error

    def test_monotone_in_alpha(self):
        analytic = []
        for alpha in (0.5, 1.0, 2.0, 4.0):
            res = discrimination_error(alpha, 0.3, trials=4000, seed=4)
            assert abs(res.mc_error - res.analytic_error) <= 4 * max(res.std_error, 1e-4)
            analytic.append(res.analytic_error)
        assert all(a > b for a, b in zip(analytic, analytic[1:]))

    def test_deterministic_under_seed(self):
        a = discrimination_error(2.0, 0.2, trials=500, seed=99)
        b = discrimination_error(2.0, 0.2, trials=500, seed=99)
        assert a == b

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            discrimination_error(1.0, 0.1, trials=0, seed=0)


class TestBackaction:
    def test_poisson_budget_alpha_2(self):
        rep = backaction_product(2.0)
        assert rep.number_variance == pytest.approx(4.0, abs=1e-9)
        assert rep.phase_variance == pytest.approx(1 / 16, abs=1e-9)
        assert rep.product == pytest.approx(0.25, abs=1e-6)

    def test_quarter_product_across_amplitudes(self):
        for alpha in (1.0, 2.0, 5.0):
            rep = backaction_product(alpha)
            assert rep.product == pytest.approx(0.25, abs=1e-6)
            assert rep.phase_variance_min_uncertainty == pytest.approx(
                1 / (4 * rep.number_variance), rel=1e-12)

    def test_dephasing_route_agrees(self):
        rep = backaction_product(2.0)
        # second estimate carries O(phi^2) bias from the Poisson third cumulant
        assert rep.number_variance_from_dephasing == pytest.approx(rep.number_variance, rel=1e-2)

    def test_complex_amplitude(self):
        rep = backaction_product(2.0 * cmath.exp(0.7j))
        assert rep.product == pytest.approx(0.25, abs=1e-6)

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            backaction_product(0.0)

    def test_one_level_probe_rejected(self):
        # cutoff 1 leaves <a> = 0 and zero number variance, however large alpha
        with pytest.warns(UserWarning, match="truncation loss"):
            with pytest.raises(ValueError, match="number variance"):
                backaction_product(2.0, cutoff=1)


class TestPpqndNumberConservation:
    def test_per_mode_distributions_frozen(self):
        # both circular occupations and their whole distributions are
        # motion constants under chi (n_sL + n_sR) n_p
        from ppqnd import StateVector, evolve, make_space, ppqnd_hamiltonian
        rng = np.random.default_rng(11)
        h = ppqnd_hamiltonian(-0.7, 3, 3, 6)
        space = h.space
        amps = rng.standard_normal(space.total_dim) + 1j * rng.standard_normal(space.total_dim)
        psi0 = StateVector(space, amps / np.linalg.norm(amps))

        def signal_dists(state):
            out = [np.zeros(3), np.zeros(3)]
            for i, amp in enumerate(state.amplitudes):
                _, (nl, nr, _) = space.unpack(i)
                out[0][nl] += abs(amp) ** 2
                out[1][nr] += abs(amp) ** 2
            return out

        before = signal_dists(psi0)
        after = signal_dists(evolve(h, psi0, 37.0))
        for b, a in zip(before, after):
            assert np.max(np.abs(b - a)) < 1e-12


class TestPolarizationDephasing:
    def test_preserving_interaction_random_qubits(self):
        rng = np.random.default_rng(7)
        chi = -1.0
        for _ in range(25):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            qubit = PolarizationQubit.normalized(c[0], c[1])
            t = rng.uniform(0.0, 10 * math.pi)
            res = polarization_dephasing(qubit, 2.0, chi, t)
            assert res.fidelity == pytest.approx(1.0, abs=1e-10)
            assert res.purity == pytest.approx(1.0, abs=1e-10)

    def test_sensitive_control_dephases(self):
        # |alpha|^2 (1 - cos chi t) = 4 * (1 - cos 1) large: fidelity drops,
        # and the coherence matches the analytic envelope
        chi, t, alpha = -0.5, 2.0, 2.0
        qubit = PolarizationQubit.horizontal()
        res = polarization_dephasing(qubit, alpha, chi, t, sensitive=True)
        envelope = math.exp(-abs(alpha) ** 2 * (1 - math.cos(chi * t)))
        assert res.fidelity < 0.75
        assert res.coherence == pytest.approx(envelope, abs=1e-6)
        assert res.fidelity <= 0.5 * (1 + envelope) + 1e-6

    def test_sensitive_control_revives_at_two_pi(self):
        chi = -0.5
        t = 2 * math.pi / abs(chi)
        res = polarization_dephasing(PolarizationQubit.horizontal(), 2.0, chi, t, sensitive=True)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_reduced_state_is_returned(self):
        res = polarization_dephasing(PolarizationQubit.left(), 1.0, -0.1, 1.0)
        assert res.reduced.space.mode_cutoffs == (2, 2)


class TestDephasingGrid:
    def test_grid_holds_one_time_of_probe_states(self):
        # |alpha| = 300, cutoff 92410: the four probe states of one time take
        # 5.9 MB, so a grid of joint states for 6 qubits x 4 times would take
        # 24 times that
        times = [1.0, 2.0, 5.0, 10.0]
        assert default_cutoff(300.0) == 92410
        point = traced_peak(lambda: dephasing_grid(CLI_QUBITS[2:3], 300.0, -0.1, times[:1]))
        grid = traced_peak(lambda: dephasing_grid(CLI_QUBITS, 300.0, -0.1, times))
        assert grid <= 1.5 * point

    def test_shape_and_read_only_arrays(self):
        grid = dephasing_grid(CLI_QUBITS, 2.0, -0.1, [1.0, 2.0, 5.0])
        assert grid.fidelity.shape == grid.purity.shape == grid.coherence.shape == (6, 3)
        assert grid.reduced.shape == (6, 3, 4, 4)
        for a in (grid.fidelity, grid.purity, grid.coherence, grid.reduced):
            assert not a.flags.writeable

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit and one time"):
            dephasing_grid([], 2.0, -0.1, [1.0])
        with pytest.raises(ValueError, match="at least one qubit and one time"):
            dephasing_grid(CLI_QUBITS, 2.0, -0.1, [])

    def test_lost_unitarity_refused(self):
        # chi and t finite, chi * t overflows: the phases exp(-i inf) are NaN,
        # refused without a numpy warning (the suite makes those errors)
        with pytest.raises(ArithmeticError, match="lost unitarity"):
            dephasing_grid(CLI_QUBITS, 2.0, 1e300, [1e300])


def test_evolve_qnd_lost_unitarity_refused():
    # as dephasing_grid: NaN phases, refused without a numpy warning
    with pytest.raises(ArithmeticError, match="lost unitarity"):
        evolve_qnd(1, 2.0, 1e300, 1e300)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: homodyne_estimate(basis_state(make_space(1, [2, 2]), 0, [0, 0]), 0.0),
                 "homodyne readout expects a single-mode state", id="homodyne-two-modes"),
    pytest.param(lambda: evolve_qnd(-1, 2.0, -0.01, 1.0), "n_s must be >= 0",
                 id="evolve_qnd-negative-n_s"),
    pytest.param(lambda: backaction_product(2.0, cutoff=0), "^cutoff must be >= 1$",
                 id="backaction-cutoff-0"),
])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestNonFiniteDefaultCutoff:
    @pytest.mark.parametrize("alpha", [1e200, math.inf, math.nan])
    @pytest.mark.parametrize("entry", [
        default_cutoff,
        lambda alpha: evolve_qnd(1, alpha, -0.01, 1.0),
        lambda alpha: polarization_dephasing(PolarizationQubit.left(), alpha, -0.1, 1.0),
        lambda alpha: backaction_product(alpha),
        lambda alpha: full_model_grid(RATIO100, [PolarizationQubit.horizontal()], t=1.0,
                                      alpha_p=alpha),
    ], ids=["default_cutoff", "evolve_qnd", "polarization_dephasing", "backaction_product",
            "full_model_grid"])
    def test_named_value_error(self, entry, alpha):
        # was OverflowError (1e200, inf) and "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=r"\|alpha\| = "):
            entry(alpha)

    def test_largest_finite_size_still_has_a_cutoff(self):
        assert default_cutoff(1e150) > 1e299


@pytest.mark.parametrize("entry", [
    lambda: coherent_state(3, 2.0),
    lambda: evolve_qnd(1, 2.0, -0.01, 1.0, cutoff_p=3),
    lambda: dephasing_grid(CLI_QUBITS, 2.0, -0.1, [1.0], cutoff_p=3),
    lambda: backaction_product(2.0, cutoff=3),
    lambda: full_model_grid(RATIO100, [PolarizationQubit.horizontal()], t=1.0, alpha_p=2.0,
                            cutoff_p=3),
    lambda: polarization_dephasing(PolarizationQubit.left(), 2.0, -0.1, 1.0, cutoff_p=3),
    lambda: full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0, alpha_p=2.0,
                              cutoff_p=3),
], ids=["coherent_state", "evolve_qnd", "dephasing_grid", "backaction_product",
        "full_model_grid", "polarization_dephasing", "full_vs_effective"])
def test_one_truncation_warning_at_the_public_call(entry):
    # the first frame outside the package, however many package frames the
    # public call goes through (polarization_dephasing and full_vs_effective
    # pointed inside qnd.py)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry()
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]


@pytest.mark.parametrize("entry, size", [
    (lambda: coherent_state(10**7 + 1, 1.0), 10**7 + 1),
    (lambda: backaction_product(1.0, cutoff=10**7 + 1), 10**7 + 1),
    (lambda: evolve_qnd(1, 1.0, -0.01, 1.0, cutoff_p=5 * 10**6 + 1), 10**7 + 2),
    (lambda: evolve_qnd(10**6, 1.0, -0.01, 1.0), (10**6 + 1) * default_cutoff(1.0)),
    (lambda: evolve_qnd(1, 1e4, -0.01, 1.0), 2 * default_cutoff(1e4)),
    (lambda: dephasing_grid(CLI_QUBITS, 1.0, -0.1, [1.0], cutoff_p=2_500_001), 10_000_004),
    (lambda: polarization_dephasing(PolarizationQubit.left(), 1.0, -0.1, 1.0,
                                    cutoff_p=2_500_001), 10_000_004),
    (lambda: full_model_grid(RATIO100, [PolarizationQubit.horizontal()], t=1.0, alpha_p=1.0,
                             cutoff_p=500_001), 10_000_020),
    (lambda: full_model_grid(RATIO100, [PolarizationQubit.horizontal()], t=1.0,
                             n_p=500_000), 10_000_020),
    (lambda: full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0, alpha_p=1.0,
                               cutoff_p=10**7), 2 * 10**8),
    (lambda: full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0,
                               n_p=10**7), 2 * 10**8 + 20),
], ids=["coherent_state", "backaction_product", "evolve_qnd_cutoff", "evolve_qnd_n_s",
        "evolve_qnd_alpha", "dephasing_grid", "polarization_dephasing",
        "full_model_grid_coherent", "full_model_grid_fock", "full_vs_effective_coherent",
        "full_vs_effective_fock"])
def test_oversized_states_are_refused_before_allocation(entry, size):
    # one bound, the CLI's: a state above MAX_STATE_SIZE complex numbers is
    # refused by its size before the probe or the joint state exists (a
    # 2e8-number full_model_grid call was killed for memory)
    assert MAX_STATE_SIZE == 10**7

    def refused():
        with pytest.raises(ValueError, match=rf"asks for a state of {size} complex numbers, "
                                             r"more than 1e\+07$"):
            entry()

    assert traced_peak(refused) < 2**20


def _evolve_tridiagonal(t, imag=0.0):
    space = make_space(1, [4])
    upper = (0.1 + 1j * imag) * np.eye(4, k=1)
    h = Operator(space, np.diag(np.arange(4.0)) + upper + upper.conj().T)
    return evolve(h, basis_state(space, 0, [1]), t)


TIMED_ENTRIES = {
    "evolve_real": _evolve_tridiagonal,
    "evolve_complex": lambda t: _evolve_tridiagonal(t, imag=0.1),
    "evolve_qnd": lambda t: evolve_qnd(1, 2.0, -0.01, t),
    "full_vs_effective_fock": lambda t: full_vs_effective(
        RATIO100, PolarizationQubit.horizontal(), t=t, n_p=1),
    "full_vs_effective_coherent": lambda t: full_vs_effective(
        RATIO100, PolarizationQubit.horizontal(), t=t, alpha_p=0.5),
    "dephasing_grid": lambda t: dephasing_grid(CLI_QUBITS, 2.0, -0.1, [1.0, t]),
    "polarization_dephasing": lambda t: polarization_dephasing(
        PolarizationQubit.left(), 2.0, -0.1, t, sensitive=True),
}


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", TIMED_ENTRIES.values(), ids=TIMED_ENTRIES.keys())
    def test_named_value_error(self, entry, t):
        # was numpy's "invalid value" RuntimeWarning, then "evolution lost
        # unitarity: |psi| = nan"
        with pytest.raises(ValueError, match="evolution time t must be finite"):
            entry(t)

    @pytest.mark.parametrize("t", [0.0, -0.0, -3.0])
    @pytest.mark.parametrize("entry", TIMED_ENTRIES.values(), ids=TIMED_ENTRIES.keys())
    def test_zero_and_negative_times_run(self, entry, t):
        entry(t)


class TestInputTypes:
    @pytest.mark.parametrize("n", [True, np.bool_(True), 1.5, 1.0, np.float64(2.0), "1"])
    def test_non_integer_photon_numbers_named(self, n):
        # n_p = True ran as 'fock:True'; 1.5 failed in np.eye, n_s = 1.5 in indexing
        with pytest.raises(ValueError, match="n_p must be an integer photon number"):
            full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0, n_p=n)
        with pytest.raises(ValueError, match="n_s must be an integer photon number"):
            evolve_qnd(n, 2.0, -0.01, 1.0)
        # the block of n_sL = 1.5 was built at n_s = 2.5, compare_block_to_full
        # failed inside numpy ("got '3.5'") and took True as a count
        for name, position in (("n_sl", 0), ("n_sr", 1), ("n_p", 2)):
            point = [1, 1, 1]
            point[position] = n
            for entry in (build_pp_block_matrix, compare_block_to_full):
                with pytest.raises(ValueError, match=f"{name} must be an integer photon number"):
                    entry(RATIO100, *point)
        with pytest.raises(ValueError, match="n_s must be an integer photon number"):
            lambda_dark_state(RATIO100, n, 5)

    def test_numpy_integers_are_photon_numbers(self):
        qubit = PolarizationQubit.horizontal()
        assert (repr(full_vs_effective(RATIO100, qubit, t=1.0, n_p=np.int64(2)))
                == repr(full_vs_effective(RATIO100, qubit, t=1.0, n_p=2)))
        ours, plain = evolve_qnd(np.int32(1), 2.0, -0.01, 1.0), evolve_qnd(1, 2.0, -0.01, 1.0)
        assert np.array_equal(ours.state.amplitudes, plain.state.amplitudes)

    @pytest.mark.parametrize("name, alpha, theta", [
        ("alpha", math.nan, 0.1), ("alpha", math.inf, 0.1), ("alpha", -math.inf, 0.1),
        ("theta", 2.0, math.nan), ("theta", 2.0, math.inf)])
    def test_non_finite_discrimination_inputs_named(self, name, alpha, theta):
        # a NaN alpha returned analytic_error = nan next to a Monte Carlo number
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            discrimination_error(alpha, theta, 10, 0)

    @pytest.mark.parametrize("trials", [1.5, 2.0, True, np.bool_(True), "10"])
    def test_non_integer_trials_named(self, trials):
        # 1.5 and True failed inside numpy: "expected a sequence of integers"
        with pytest.raises(ValueError, match="trials must be an integer"):
            discrimination_error(2.0, 0.1, trials, 0)

    def test_numpy_integer_trials_are_trials(self):
        ours, plain = discrimination_error(2.0, 0.1, np.int64(50), 3), discrimination_error(2.0, 0.1, 50, 3)
        assert repr(ours) == repr(plain)

    @pytest.mark.parametrize("chi", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", [
        lambda chi: evolve_qnd(1, 2.0, chi, 1.0),
        lambda chi: dephasing_grid(CLI_QUBITS, 2.0, chi, [1.0]),
        lambda chi: polarization_dephasing(PolarizationQubit.left(), 2.0, chi, 1.0, sensitive=True),
        lambda chi: ppqnd_energies(chi, 2, 2, 3),
        lambda chi: qnd_hamiltonian(chi, 2, 3),
    ], ids=["evolve_qnd", "dephasing_grid", "polarization_dephasing", "ppqnd_energies",
            "qnd_hamiltonian"])
    def test_non_finite_chi_named(self, entry, chi):
        # inf was numpy's "invalid value encountered in multiply", NaN
        # "evolution lost unitarity: |psi| = nan"
        with pytest.raises(ValueError, match="chi must be finite, got chi = "):
            entry(chi)

    @pytest.mark.parametrize("entry", [
        lambda chi: evolve_qnd(1, 2.0, chi, 1.0),
        lambda chi: dephasing_grid(CLI_QUBITS, 2.0, chi, [1.0]),
        lambda chi: polarization_dephasing(PolarizationQubit.left(), 2.0, chi, 1.0, sensitive=True),
        lambda chi: ppqnd_energies(chi, 2, 2, 3),
        lambda chi: qnd_hamiltonian(chi, 2, 3),
    ], ids=["evolve_qnd", "dephasing_grid", "polarization_dephasing", "ppqnd_energies",
            "qnd_hamiltonian"])
    def test_overflowing_chi_named(self, entry):
        # a finite chi times a photon-number product past the float range was
        # numpy's "overflow encountered in multiply"
        for chi in (1e308, -1e308):
            message = re.escape(f"overflow: chi = {chi!r} times the largest")
            with pytest.raises(ValueError, match=message):
                entry(chi)

    def test_largest_chi_with_a_unit_product(self):
        # one photon in each mode at most: chi itself is the largest energy
        _, energies = ppqnd_energies(1e308, 2, 1, 2)
        assert energies.max() == 1e308

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                       complex(1.0, -math.inf)])
    @pytest.mark.parametrize("entry", [
        lambda alpha: coherent_state(5, alpha),
        lambda alpha: evolve_qnd(1, alpha, -0.01, 1.0, cutoff_p=12),
        lambda alpha: dephasing_grid(CLI_QUBITS, alpha, -0.1, [1.0], cutoff_p=12),
        lambda alpha: full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0,
                                        alpha_p=alpha, cutoff_p=5),
        lambda alpha: backaction_product(alpha, cutoff=12),
    ], ids=["coherent_state", "evolve_qnd", "dephasing_grid", "full_vs_effective",
            "backaction_product"])
    def test_non_finite_alpha_with_a_cutoff_named(self, entry, alpha):
        # with a cutoff given, nan was "invalid value encountered in divide"
        # and inf "... in add"; without one, default_cutoff names |alpha|
        with pytest.raises(ValueError, match="alpha must be finite, got alpha = "):
            entry(alpha)


class TestFullVsEffective:
    def test_zero_signal_coupling(self):
        params = SchemeParams(1e4, 1e4, 1e2, 0.0, 1.0)
        res = full_vs_effective(params, PolarizationQubit.horizontal(), t=1e3, n_p=1)
        assert res.measured_phase == pytest.approx(0.0, abs=1e-12)
        assert res.atomic_leakage == pytest.approx(0.0, abs=1e-15)

    def test_bright_channel_tracks_secular_prediction(self):
        # deep-hierarchy run at the phase target 0.1 rad; the dark-state
        # eigenvalue of the closed-form quintic is the right prediction
        from ppqnd import quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        lam = roots[np.argmin(np.abs(roots))]
        t = 0.1 / abs(lam)
        res = full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=t, n_p=1)
        assert res.regime_ok
        assert res.rel_err_secular < 0.05
        assert res.atomic_leakage < 1e-3
        assert res.input_overlap > 0.99

    def test_single_route_kerr_formula_is_double_the_full_dynamics(self):
        # the N-scheme formula chi = -xi_s^2 xi_p^2 / (Delta Omega^2) over-
        # predicts the five-level scheme by 2: both drive legs stiffen the
        # dark state; the record keeps both predictions visible
        from ppqnd import quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        res = full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=t, n_p=1)
        assert res.measured_phase / res.predicted_phase_kerr == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("probe", [{"n_p": 1}, {"n_p": 3}, {"alpha_p": 0.5, "cutoff_p": 12}])
    def test_secular_prediction_uses_the_estimate_dark_root(self, probe):
        # the prediction and estimate_eigenvalues share one dark root; a
        # coherent probe is read per probe photon, i.e. at n_p = 1
        t = 1e9
        res = full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=t, **probe)
        roots = estimate_eigenvalues(RATIO100, 1, 0, probe.get("n_p", 1)).exact_roots
        assert res.predicted_phase_secular == -min(roots, key=abs) * t

    def test_left_right_phases_identical(self):
        # a mirrored qubit flips only the sign of c_V, which every float
        # operation carries exactly: bit-identical records
        t = 1e9
        for probe in ({"n_p": 1}, {"alpha_p": 0.5, "cutoff_p": 12}):
            for c_l, c_r in ((1.0, 0.0), (0.6, 0.8j)):
                res_l = full_vs_effective(RATIO100, PolarizationQubit(c_l, c_r), t=t, **probe)
                res_r = full_vs_effective(RATIO100, PolarizationQubit(c_r, c_l), t=t, **probe)
                assert res_l.measured_phase == res_r.measured_phase  # bitwise, via mirror
                assert res_l.input_overlap == res_r.input_overlap
                assert res_l.atomic_leakage == res_r.atomic_leakage
                assert res_l == res_r

    def test_jacobi_sees_even_chains_and_odd_pairs_only(self, monkeypatch):
        # in the drive's linear basis an H photon fills only the even chains
        # (3 states at n = 0, else 4) and an L photon also the odd pairs;
        # no 6-state circular sector is diagonalized.  The Jacobi sees them
        # zero-padded in one stack, so a block's size is its nonzero rows.
        from ppqnd import fock
        jacobi, sizes = fock._jacobi_eigh_longdouble, collections.Counter()

        def counting(blocks):
            sizes.update(np.count_nonzero(np.any(blocks != 0, axis=2), axis=1).tolist())
            return jacobi(blocks)

        monkeypatch.setattr(fock, "_jacobi_eigh_longdouble", counting)
        cutoff = default_cutoff(2.0)
        expected = {"H": {3: 1, 4: cutoff - 1}, "L": {2: cutoff, 3: 1, 4: cutoff - 1}}
        for name, qubit in (("H", PolarizationQubit.horizontal()), ("L", PolarizationQubit.left())):
            sizes.clear()
            full_vs_effective(RATIO100, qubit, t=1e9, alpha_p=2.0)
            assert sizes == expected[name]
        sizes.clear()
        full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1e9, n_p=1)
        assert sizes == {4: 1}

    @pytest.mark.parametrize("qubit", [PolarizationQubit.horizontal(), PolarizationQubit.vertical(),
                                       PolarizationQubit.left()])
    @pytest.mark.parametrize("probe", [{"n_p": 1}, {"n_p": 3}, {"alpha_p": 2.0}])
    def test_one_jacobi_call_per_evolution(self, monkeypatch, qubit, probe):
        # chains and pairs of every size ride one zero-padded stack
        from ppqnd import fock
        jacobi, shapes = fock._jacobi_eigh_longdouble, []

        def counting(blocks):
            shapes.append(blocks.shape)
            return jacobi(blocks)

        monkeypatch.setattr(fock, "_jacobi_eigh_longdouble", counting)
        full_vs_effective(RATIO100, qubit, t=1e9, **probe)
        assert len(shapes) == 1 and shapes[0][1:] in {(2, 2), (3, 3), (4, 4)}

    def test_padded_stack_is_bitwise_the_per_size_route(self, monkeypatch):
        # padding a chain of 3 to 4 or a pair to any width keeps the Jacobi's
        # rotation sequence, so every record equals, byte for byte, the one
        # from the oracle's linear coupling table cut generically and a Jacobi
        # call per block size (the per-size evolution kept here)
        from ppqnd import qnd
        from ppqnd.fock import _jacobi_eigh_longdouble, _unitary_result

        def per_size_evolve_sectors(psi, sectors, t):
            amps0 = psi.amplitudes
            amps = np.zeros_like(amps0)
            for index, blocks in sectors:
                w, v = _jacobi_eigh_longdouble(blocks)
                v64 = v.astype(np.float64)
                wt = np.mod(w * np.longdouble(t), 2 * np.arccos(np.longdouble(-1)))
                coeffs = np.exp(-1j * wt.astype(np.float64)) * np.einsum("bji,bj->bi", v64,
                                                                         amps0[index])
                amps[index] = np.einsum("bij,bj->bi", v64, coeffs)
            return _unitary_result(psi.space, amps)

        points = [RATIO100, SchemeParams(1e4, 3e4, 1e2, 0.1, 1.0),
                  SchemeParams(3e3, 5e3, 50.0, 0.05, 0.7)]
        qubits = [PolarizationQubit.horizontal(), PolarizationQubit.vertical(),
                  PolarizationQubit.left(), PolarizationQubit.right(),
                  PolarizationQubit.normalized(0.6, 0.8j)]
        probes = [{"n_p": 1}, {"n_p": 3}, {"alpha_p": 0.5 + 0.2j}, {"alpha_p": 2.0}]

        def records():
            out = []
            for params in points:
                t = 0.1 / abs(min(estimate_eigenvalues(params, 1, 0, 1).exact_roots, key=abs))
                out += [repr(full_vs_effective(params, q, t, **p)) for q in qubits for p in probes]
            return out

        ours = records()
        monkeypatch.setattr(qnd, "_pp_components", linear_pp_sectors)
        monkeypatch.setattr(qnd, "_evolve_sectors", lambda psis, stacks, t: [
            per_size_evolve_sectors(psi, stacks[0], t) for psi in psis])
        assert ours == records()

    def test_five_level_path_builds_no_coupling_table(self, monkeypatch):
        # the components are built in closed form: no coupling table, no
        # component search, no generic cut, and one Jacobi call per result
        from ppqnd import fock, qnd, schemes
        from ppqnd.schemes import compare_block_to_full
        counts = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in ("_coupling_table", "_components", "_sector_blocks",
                     "_jacobi_eigh_longdouble"):
            wrapped = counting(name, getattr(fock, name))
            for module in (fock, schemes, qnd):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        calls = [functools.partial(full_vs_effective, RATIO100, qubit, 1e9, **probe)
                 for qubit in (PolarizationQubit.horizontal(), PolarizationQubit.left())
                 for probe in ({"n_p": 1}, {"alpha_p": 2.0})]
        calls.append(functools.partial(compare_block_to_full, RATIO100, 2, 1, 2))
        for call in calls:
            counts.clear()
            call()
            assert counts == {"_jacobi_eigh_longdouble": 1}

    @pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
    def test_default_fullmodel_point_matches_60_digit_evolution(self):
        # the fullmodel default (RATIO100, an H photon, n_p = 1, phase target
        # 0.1) against the circular 6-state sector {|1; L>, |1; R>, |2>, |2'>,
        # |3>, |4; 0>}, whose entries are exact floats, evolved at 60 digits.
        # A sqrt(2) Omega_d leg rounded to double misses the phase by ~1e-13.
        qubit = PolarizationQubit.horizontal()
        t = 0.1 / abs(min(estimate_eigenvalues(RATIO100, 1, 0, 1).exact_roots, key=abs))
        res = full_vs_effective(RATIO100, qubit, t=t, n_p=1)
        with mpmath.workdps(60):
            big, delta, om, xs, xp = map(mpmath.mpf, (1e4, 1e4, 1e2, 0.01, 1.0))
            h = mpmath.matrix([[0, 0, xs, 0, 0, 0], [0, 0, 0, xs, 0, 0],
                               [xs, 0, delta, 0, om, 0], [0, xs, 0, delta, om, 0],
                               [0, 0, om, om, 0, xp], [0, 0, 0, 0, xp, big]])
            w, v = mpmath.eigsy(h)
            psi0 = mpmath.matrix([qubit.c_l, qubit.c_r, 0, 0, 0, 0])
            phases = mpmath.diag([mpmath.expj(-w[k] * mpmath.mpf(t)) for k in range(6)])
            psi_t = v * phases * v.T * psi0
            amp = sum(psi0[k] * psi_t[k] for k in range(2))
            leak = sum(abs(psi_t[k]) ** 2 for k in range(2, 6)) / mpmath.norm(psi_t) ** 2
            assert abs(res.measured_phase - mpmath.arg(amp)) <= 1e-15
            assert abs(res.atomic_leakage - leak) <= 1e-6 * leak

    def test_coherent_probe_route(self):
        from ppqnd import quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        lam = roots[np.argmin(np.abs(roots))]
        t = 0.1 / abs(lam)
        res = full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=t,
                                alpha_p=1.0, cutoff_p=12)
        assert res.probe.startswith("coherent")
        assert res.rel_err_secular < 0.05

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_coherent_probe_at_default_cutoff(self, alpha):
        # default probe cutoffs 15 and 30 (dims 300 and 600) stay in extended
        # precision: only the populated 6-state sectors are diagonalized
        from ppqnd import quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        res = full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=t, alpha_p=alpha)
        assert res.rel_err_secular < 0.05
        assert res.atomic_leakage < 1e-3

    @pytest.mark.parametrize("n_p", [1, 2, 3])
    def test_sector_route_matches_dense_extended_evolution(self, n_p):
        # oracle: the dense full-space H diagonalized as one Jacobi block
        from ppqnd import StateVector, build_pp_hamiltonian, quintic_roots, \
            secular_coefficients
        from ppqnd.fock import _evolve_sectors, _sector_blocks
        h = build_pp_hamiltonian(RATIO100, 2, 2, n_p + 1)
        space = h.space
        sectors = _sector_blocks(np.tril(h.matrix.real), np.arange(space.total_dim))
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[space.index_of(0, (1, 0, n_p))] = 0.6
        amps[space.index_of(0, (0, 1, n_p))] = 0.8j
        psi0 = StateVector(space, amps)
        for t in (1e3, 1e6):
            dense = dense_jacobi_evolve(h, psi0, t).amplitudes
            ours = _evolve_sectors([psi0], sectors, t)[0].amplitudes
            assert np.max(np.abs(ours - dense)) < 1e-12
        # At the phase target t ~ 1e11 the fast levels accumulate w t ~ 1e15 rad,
        # which longdouble resolves only to ~1e-4 rad in either route; the
        # level-1 amplitudes carry the probe phase and must still agree.
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, n_p))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        dense = dense_jacobi_evolve(h, psi0, t).amplitudes.reshape(5, -1)
        ours = _evolve_sectors([psi0], sectors, t)[0].amplitudes.reshape(5, -1)
        assert np.max(np.abs(ours[0] - dense[0])) < 1e-12

    def test_coherent_phase_matches_dense_readout(self):
        # oracle: the dense Jacobi evolution read out through arg <a_p> with
        # the full-space annihilation operator
        from ppqnd import StateVector, annihilation_op, build_pp_hamiltonian, \
            quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        alpha, cutoff = 0.3, 6
        qubit = PolarizationQubit.normalized(0.6, 0.8j)
        h = build_pp_hamiltonian(RATIO100, 2, 2, cutoff)
        amps = np.zeros((5, 2, 2, cutoff), dtype=complex)
        probe = coherent_state(cutoff, alpha).amplitudes
        amps[0, 1, 0], amps[0, 0, 1] = qubit.c_l * probe, qubit.c_r * probe
        psi_t = dense_jacobi_evolve(h, StateVector(h.space, amps.ravel()), t)
        oracle = cmath.phase(psi_t.expectation(annihilation_op(h.space, 2)))
        res = full_vs_effective(RATIO100, qubit, t=t, alpha_p=alpha, cutoff_p=cutoff)
        assert res.measured_phase == pytest.approx(oracle, abs=1e-12)

    def test_refuses_without_extended_longdouble(self, monkeypatch):
        # The platform contract: where numpy's longdouble is plain double
        # (modelled here by patching its finfo to double eps), every route
        # through the longdouble Jacobi refuses at call time: the five-level
        # routes and evolve of any real H, diagonal included.  Importing, a
        # complex Hermitian H (LAPACK) and the double-precision effective
        # paths still work.
        from ppqnd import Operator, StateVector, compare_block_to_full, evolve, \
            ppqnd_hamiltonian
        real_finfo = np.finfo

        def double_only(dtype):
            return real_finfo(np.float64 if np.dtype(dtype) == np.longdouble else dtype)

        monkeypatch.setattr(np, "finfo", double_only)
        with pytest.raises(RuntimeError, match="extended precision unavailable"):
            full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0, n_p=1)
        with pytest.raises(RuntimeError, match="extended precision unavailable"):
            compare_block_to_full(RATIO100, 1, 0, 1)
        h = ppqnd_hamiltonian(-0.1, 2, 2, 3)
        psi = StateVector(h.space, np.full(12, 12 ** -0.5))
        with pytest.raises(RuntimeError, match="extended precision unavailable"):
            evolve(h, psi, 1.0)
        hop = 0.5j * (np.eye(12, k=1) - np.eye(12, k=-1))
        out = evolve(Operator(h.space, h.matrix + hop), psi, 1.0)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        res = polarization_dephasing(PolarizationQubit.left(), 1.0, -0.1, 1.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("qubits, when, match", [
        ([], {"t": 1.0}, "at least one qubit"),
        ([PolarizationQubit.left()], {}, "exactly one of t or target_phase"),
        ([PolarizationQubit.left()], {"t": 1.0, "target_phase": 0.1},
         "exactly one of t or target_phase"),
        ([PolarizationQubit.left()], {"target_phase": math.inf}, "target_phase must be finite"),
        ([PolarizationQubit.left()], {"target_phase": math.nan}, "target_phase must be finite"),
    ])
    def test_full_model_grid_refuses_by_name(self, qubits, when, match):
        with pytest.raises(ValueError, match=match):
            full_model_grid(RATIO100, qubits, n_p=1, **when)

    def test_zero_dark_root_names_the_library_and_the_config_time(self):
        # the message named the fullmodel config's 'time' but not the library's t
        dark = SchemeParams(1e4, 1e4, 1e2, 0.0, 1.0)
        with pytest.raises(ValueError) as info:
            full_model_grid(dark, [PolarizationQubit.left()], target_phase=0.1, n_p=1)
        assert str(info.value).startswith("target_phase unreachable: ")
        assert str(info.value).endswith("(t, or 'time' in a fullmodel config)")

    def test_rejects_ambiguous_probe(self):
        with pytest.raises(ValueError):
            full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0, n_p=1, alpha_p=1.0)
        with pytest.raises(ValueError):
            full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0)

    def test_refuses_cutoff_p_with_a_fock_probe(self):
        # a Fock probe |n_p> is cut at n_p + 1; cutoff_p truncates a coherent one
        for cutoff in (1, 3, 5):
            with pytest.raises(ValueError, match="cutoff_p truncates a coherent probe only"):
                full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0, n_p=3,
                                  cutoff_p=cutoff)
        with pytest.raises(ValueError, match="n_p must be >= 0"):
            full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0, n_p=-1)

    def test_readme_headline_phases(self):
        # README: at the fullmodel parameters with |alpha| = 1 and
        # t = 0.1/|lambda|, an H photon writes 0.09999 rad, L or R 0.04999
        # and V none (below 1e-15)
        h, l, r, v = full_model_grid(RATIO100, [
            PolarizationQubit.horizontal(), PolarizationQubit.left(),
            PolarizationQubit.right(), PolarizationQubit.vertical()],
            target_phase=0.1, alpha_p=1.0)
        assert abs(h.measured_phase - 0.09999) <= 1e-5
        assert abs(l.measured_phase - 0.04999) <= 1e-5
        assert repr(l.measured_phase) == repr(r.measured_phase)
        assert abs(v.measured_phase) <= 1e-15

    def test_record_memory_does_not_grow_with_the_qubits(self):
        # each basis ket |1; H> and |1; V> is evolved once and each qubit
        # weighs the two: 64 qubits at n_p = 1000 kept 64 pairs of
        # 20 * 1001-number states (83 MB peak)
        rng = np.random.default_rng(5)
        qubits = [PolarizationQubit.horizontal(), PolarizationQubit.vertical()] + [
            PolarizationQubit(math.cos(th), math.sin(th) * cmath.exp(1j * ph))
            for th, ph in rng.uniform(0.0, math.pi / 2, size=(62, 2))]
        peak = traced_peak(lambda: full_model_grid(RATIO100, qubits, t=1e9, n_p=1000))
        assert peak < 8e6

    @pytest.mark.parametrize("qubit", [PolarizationQubit.horizontal(), PolarizationQubit.left(),
                                       PolarizationQubit.vertical()], ids=["H", "L", "V"])
    def test_coherent_probe_at_cutoff_one_is_the_vacuum_fock_probe(self, qubit):
        # cutoff 1 holds only the vacuum: the components build there, and the
        # leakage and overlap are the Fock n_p = 0 record's, bit for bit
        with pytest.warns(UserWarning, match="truncation loss"):
            coherent = full_vs_effective(RATIO100, qubit, t=1e9, alpha_p=0.3, cutoff_p=1)
        fock = full_vs_effective(RATIO100, qubit, t=1e9, n_p=0)
        assert fock.probe == "fock:0"
        assert repr(coherent.atomic_leakage) == repr(fock.atomic_leakage)
        assert repr(coherent.input_overlap) == repr(fock.input_overlap)
