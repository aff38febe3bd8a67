import cmath
import math

import numpy as np
import pytest

from ppqnd import (
    PolarizationQubit,
    SchemeParams,
    backaction_product,
    basis_state,
    coherent_state,
    discrimination_error,
    estimate_eigenvalues,
    evolve_qnd,
    fidelity,
    full_vs_effective,
    homodyne_estimate,
    make_space,
    polarization_dephasing,
)

RATIO100 = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.01, xi_p=1.0)


class TestEvolveQnd:
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
        t = 1e9
        res_l = full_vs_effective(RATIO100, PolarizationQubit.left(), t=t, n_p=1)
        res_r = full_vs_effective(RATIO100, PolarizationQubit.right(), t=t, n_p=1)
        assert res_l.measured_phase == res_r.measured_phase  # bitwise, via mirror
        assert res_r.mirror_canonicalized and not res_l.mirror_canonicalized

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
        # oracle: the dense full-space H through the generic evolve(extended=True)
        from ppqnd import StateVector, build_pp_hamiltonian, evolve, quintic_roots, \
            secular_coefficients
        from ppqnd.fock import _evolve_sectors
        from ppqnd.schemes import _pp_sectors
        h = build_pp_hamiltonian(RATIO100, 2, 2, n_p + 1)
        space, sectors = _pp_sectors(RATIO100, 2, 2, n_p + 1)
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[space.index_of(0, (1, 0, n_p))] = 0.6
        amps[space.index_of(0, (0, 1, n_p))] = 0.8j
        psi0 = StateVector(space, amps)
        for t in (1e3, 1e6):
            dense = evolve(h, psi0, t, extended=True).amplitudes
            ours = _evolve_sectors(psi0, sectors.values(), t).amplitudes
            assert np.max(np.abs(ours - dense)) < 1e-12
        # At the phase target t ~ 1e11 the fast levels accumulate w t ~ 1e15 rad,
        # which longdouble resolves only to ~1e-4 rad in either route; the
        # level-1 amplitudes carry the probe phase and must still agree.
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, n_p))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        dense = evolve(h, psi0, t, extended=True).amplitudes.reshape(5, -1)
        ours = _evolve_sectors(psi0, sectors.values(), t).amplitudes.reshape(5, -1)
        assert np.max(np.abs(ours[0] - dense[0])) < 1e-12

    def test_coherent_phase_matches_dense_readout(self):
        # oracle: dense evolve(extended=True) read out through arg <a_p> with
        # the full-space annihilation operator
        from ppqnd import StateVector, annihilation_op, build_pp_hamiltonian, evolve, \
            quintic_roots, secular_coefficients
        roots = quintic_roots(secular_coefficients(RATIO100, 1, 0, 1))
        t = 0.1 / abs(roots[np.argmin(np.abs(roots))])
        alpha, cutoff = 0.3, 6
        qubit = PolarizationQubit.normalized(0.6, 0.8j)
        h = build_pp_hamiltonian(RATIO100, 2, 2, cutoff)
        amps = np.zeros((5, 2, 2, cutoff), dtype=complex)
        probe = coherent_state(cutoff, alpha).amplitudes
        amps[0, 1, 0], amps[0, 0, 1] = qubit.c_l * probe, qubit.c_r * probe
        psi_t = evolve(h, StateVector(h.space, amps.ravel()), t, extended=True)
        oracle = cmath.phase(psi_t.expectation(annihilation_op(h.space, 2)))
        res = full_vs_effective(RATIO100, qubit, t=t, alpha_p=alpha, cutoff_p=cutoff)
        assert res.measured_phase == pytest.approx(oracle, abs=1e-12)

    def test_refuses_without_extended_longdouble(self, monkeypatch):
        # where numpy's longdouble is plain double the five-level routes refuse
        # at call time; importing and the double-precision paths still work
        from ppqnd import compare_block_to_full, ppqnd_hamiltonian
        real_finfo = np.finfo

        def double_only(dtype):
            return real_finfo(np.float64 if np.dtype(dtype) == np.longdouble else dtype)

        monkeypatch.setattr(np, "finfo", double_only)
        with pytest.raises(RuntimeError, match="extended precision unavailable"):
            full_vs_effective(RATIO100, PolarizationQubit.horizontal(), t=1.0, n_p=1)
        with pytest.raises(RuntimeError, match="extended precision unavailable"):
            compare_block_to_full(RATIO100, 1, 0, 1)
        res = polarization_dephasing(PolarizationQubit.left(), 1.0, -0.1, 1.0)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert ppqnd_hamiltonian(-0.1, 2, 2, 3).space.total_dim == 12

    def test_rejects_ambiguous_probe(self):
        with pytest.raises(ValueError):
            full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0, n_p=1, alpha_p=1.0)
        with pytest.raises(ValueError):
            full_vs_effective(RATIO100, PolarizationQubit.left(), t=1.0)
