import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from ppqnd import (
    SchemeParams,
    annihilation_op,
    atom_transition_op,
    basis_state,
    build_lambda_hamiltonian,
    build_n_hamiltonian,
    build_pp_block_matrix,
    build_pp_hamiltonian,
    char_poly_coefficients,
    chi_from_params,
    compare_block_to_full,
    lambda_dark_state,
    make_space,
    number_op,
    pp_mirror_permutation,
    ppqnd_hamiltonian,
    qnd_hamiltonian,
    regime_scan,
    scan_to_csv_rows,
    secular_coefficients,
)
from ppqnd.fock import _jacobi_eigh_longdouble, _occupations
from ppqnd.schemes import _cross_kerr_energies

SPEC_POINT = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.1, xi_p=1.0)
FULLMODEL_POINT = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.01, xi_p=1.0)


def quasidark_eigenvalue_extended(h, reference):
    """Extended-precision quasidark eigenvalue: needed because the level of
    interest sits far below eps * |H| in deep hierarchies."""
    w, v = _jacobi_eigh_longdouble(h.matrix)
    overlaps = np.abs(v.astype(np.float64).T @ reference.amplitudes)
    k = int(np.argmax(overlaps))
    return float(w[k]), float(overlaps[k] ** 2)


class TestSchemeParams:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SchemeParams(1.0, 1.0, -1.0, 0.1, 0.5)

    def test_hierarchy_ratios(self):
        assert SPEC_POINT.hierarchy_ratios() == (100.0, 100.0, 10.0)
        assert SPEC_POINT.regime_ok()
        assert not SPEC_POINT.regime_ok(threshold=20)

    def test_zero_coupling_ratios_are_inf(self):
        p = SchemeParams(1.0, 1.0, 1.0, 0.0, 0.5)
        assert p.hierarchy_ratios()[2] == math.inf

    @pytest.mark.filterwarnings("error")
    def test_fields_are_stored_as_python_floats(self):
        # numpy-scalar fields would reach the CSV as np.float64(...) cells and
        # meet Delta = 0 with a numpy RuntimeWarning instead of a clean refusal
        p = SchemeParams(*np.array([3e3, 5e3, 30.0, 0.03, 1.0]))
        assert [type(v) for v in astuple(p)] == [float] * 5
        assert p == SchemeParams(3e3, 5e3, 30.0, 0.03, 1.0)
        assert type(SchemeParams(1, 2, 3, 4, np.int64(5)).xi_p) is float
        cells = scan_to_csv_rows(regime_scan([(p, 1, 0, 1)]))[1]
        assert cells[:5] == ("3000.0", "5000.0", "30.0", "0.03", "1.0")
        with pytest.raises(ValueError, match="not finite"):
            chi_from_params(SchemeParams(*np.array([0.0, 5e3, 30.0, 0.03, 1.0])))

    @pytest.mark.parametrize("value", [True, np.True_, "1.0", None, 1j])
    def test_non_real_fields_rejected(self, value):
        with pytest.raises(TypeError, match="delta_two must be a real number"):
            SchemeParams(1.0, value, 1.0, 0.1, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)],
                             ids=["nan", "inf", "-inf", "np-nan"])
    @pytest.mark.parametrize("field", range(5))
    def test_non_finite_fields_rejected_by_name(self, field, value):
        # a NaN entry never passes the Jacobi's threshold, so compare_block_to_full
        # used to return all zeros for a NaN xi_s instead of refusing
        values = list(astuple(SPEC_POINT))
        values[field] = value
        name = list(SPEC_POINT.__dataclass_fields__)[field]
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            SchemeParams(*values)


class TestLambdaScheme:
    def test_decoupled_ground_states_with_zero_signal_coupling(self):
        params = SchemeParams(0.0, 3.0, 2.0, 0.0, 0.0)
        h = build_lambda_hamiltonian(params, cutoff_s=3)
        for n in range(3):
            v = basis_state(h.space, 0, [n]).amplitudes
            assert np.max(np.abs(h.matrix @ v)) == 0.0

    def test_dark_state_is_zero_eigenvector(self):
        params = SchemeParams(0.0, 5.0, 2.0, 0.7, 0.0)
        h = build_lambda_hamiltonian(params, cutoff_s=5)
        for n_s in (1, 2, 3, 4):
            dark = lambda_dark_state(params, n_s, 5)
            assert np.max(np.abs(h.matrix @ dark.amplitudes)) < 1e-10

    def test_single_excitation_spectrum(self):
        # sector {|1,1>, |2,0>, |3,0>} with xi_s = omega_d = 1, delta = 0:
        # exact 3x3 eigenvalues are 0 and +-sqrt(2)
        params = SchemeParams(0.0, 0.0, 1.0, 1.0, 0.0)
        h = build_lambda_hamiltonian(params, cutoff_s=2)
        idx = [h.space.index_of(0, [1]), h.space.index_of(1, [0]), h.space.index_of(2, [0])]
        block = h.matrix[np.ix_(idx, idx)]
        w = np.linalg.eigvalsh(block)
        assert np.allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


class TestNScheme:
    def test_probe_decoupling_at_zero_xi_p(self):
        params = SchemeParams(7.0, 3.0, 2.0, 0.5, 0.0)
        h = build_n_hamiltonian(params, 3, 3)
        # level 4 (index 3) connects to nothing
        for i in range(h.space.total_dim):
            lvl_i, _ = h.space.unpack(i)
            for j in range(h.space.total_dim):
                lvl_j, _ = h.space.unpack(j)
                if (lvl_i == 3) != (lvl_j == 3):
                    assert h.matrix[i, j] == 0.0

    def test_quasidark_matches_kerr_formula_at_spec_point(self):
        h = build_n_hamiltonian(SPEC_POINT, 2, 2)
        ref = basis_state(h.space, 0, (1, 1))
        lam, overlap = quasidark_eigenvalue_extended(h, ref)
        assert overlap > 0.999
        assert lam == pytest.approx(-1e-10, rel=0.02)

    def test_quasidark_tracks_kerr_formula_over_regime_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            omega = rng.uniform(10, 100)
            xi_p = rng.uniform(0.1, 1.0)
            xi_s = xi_p / 10
            delta = rng.uniform(1e3, 1e5)
            big = rng.uniform(1e3, 1e5)
            params = SchemeParams(big, delta, omega, xi_s, xi_p)
            h = build_n_hamiltonian(params, 2, 2)
            ref = basis_state(h.space, 0, (1, 1))
            lam, _ = quasidark_eigenvalue_extended(h, ref)
            predicted = -xi_s**2 * xi_p**2 / (big * omega**2)
            assert lam == pytest.approx(predicted, rel=0.05)



@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_lambda_hamiltonian(SPEC_POINT, 1), "cutoff_s must be >= 2",
                 id="lambda-cutoff"),
    pytest.param(lambda: lambda_dark_state(SPEC_POINT, 3, 3),
                 "need 1 <= n_s < cutoff_s, got n_s=3, cutoff_s=3", id="dark-state-n_s"),
    pytest.param(lambda: build_n_hamiltonian(SPEC_POINT, 1, 3), "cutoffs must be >= 2",
                 id="n-scheme-cutoff"),
    pytest.param(lambda: build_pp_hamiltonian(SPEC_POINT, 2, 2, 1), "cutoffs must be >= 2",
                 id="pp-scheme-cutoff"),
    pytest.param(lambda: pp_mirror_permutation(make_space(4, [2, 2, 2])),
                 "mirror permutation is defined for PP-scheme spaces", id="mirror-space"),
    pytest.param(lambda: pp_mirror_permutation(make_space(5, [2, 3, 2])),
                 "signal cutoffs must match for the mirror to be a bijection",
                 id="mirror-cutoffs"),
])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPPScheme:
    def test_hermitian_exactly(self):
        h = build_pp_hamiltonian(SPEC_POINT, 2, 2, 3)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0

    def test_reduces_to_n_scheme_on_empty_right_mode(self):
        params = SchemeParams(7.0, 3.0, 2.0, 0.5, 0.9)
        h_pp = build_pp_hamiltonian(params, 3, 2, 3)
        h_n = build_n_hamiltonian(params, 3, 3)
        # PP levels (1, 2, 3, 4) = indices (0, 1, 3, 4) against N indices (0, 1, 2, 3),
        # restricted to n_sR = 0
        level_map = {0: 0, 1: 1, 3: 2, 4: 3}
        for i_pp in range(h_pp.space.total_dim):
            lvl_i, (nl_i, nr_i, np_i) = h_pp.space.unpack(i_pp)
            if nr_i != 0 or lvl_i == 2:
                continue
            i_n = h_n.space.index_of(level_map[lvl_i], (nl_i, np_i))
            for j_pp in range(h_pp.space.total_dim):
                lvl_j, (nl_j, nr_j, np_j) = h_pp.space.unpack(j_pp)
                if nr_j != 0 or lvl_j == 2:
                    continue
                j_n = h_n.space.index_of(level_map[lvl_j], (nl_j, np_j))
                assert h_pp.matrix[i_pp, j_pp] == h_n.matrix[i_n, j_n]

    def test_total_excitation_conserved(self):
        # quanta: levels (1, 2, 2', 3, 4) carry (0, 1, 1, 1, 2); each photon carries 1
        params = SchemeParams(7.0, 3.0, 2.0, 0.5, 0.9)
        h = build_pp_hamiltonian(params, 3, 3, 3)
        space = h.space
        weights = [0, 1, 1, 1, 2]
        n_exc = sum(w * atom_transition_op(space, lvl, lvl).matrix
                    for lvl, w in enumerate(weights))
        for mode in range(3):
            n_exc = n_exc + number_op(space, mode).matrix
        comm = h.matrix @ n_exc - n_exc @ h.matrix
        assert np.max(np.abs(comm)) < 1e-12

    def test_mirror_symmetry_is_exact(self):
        h = build_pp_hamiltonian(SPEC_POINT, 3, 3, 2)
        perm = pp_mirror_permutation(h.space)
        mirrored = h.matrix[np.ix_(perm, perm)]
        assert np.array_equal(mirrored, h.matrix)

    def test_block_restriction_matches_exactly_for_single_photon(self):
        # with one left-circular photon the degenerate block is the exact
        # restriction of the full Hamiltonian to the four chain states
        params = SchemeParams(7.0, 3.0, 2.0, 0.5, 0.9)
        n_p = 1
        h = build_pp_hamiltonian(params, 2, 2, 2)
        space = h.space
        idx = [
            space.index_of(0, (1, 0, n_p)),
            space.index_of(1, (0, 0, n_p)),
            space.index_of(3, (0, 0, n_p)),
            space.index_of(4, (0, 0, n_p - 1)),
        ]
        restriction = h.matrix[np.ix_(idx, idx)].real
        block = build_pp_block_matrix(params, 1, 0, n_p)
        assert block.shape == (4, 4)
        assert np.array_equal(restriction, block)


class TestPPBlockMatrix:
    def test_trace_identity(self):
        block = build_pp_block_matrix(SPEC_POINT, 2, 1, 3)
        assert np.trace(block) == pytest.approx(
            2 * SPEC_POINT.delta_two + SPEC_POINT.delta_probe)

    def test_zero_couplings_spectrum(self):
        params = SchemeParams(2.0, 1.0, 0.0, 0.0, 0.0)
        block = build_pp_block_matrix(params, 1, 1, 1)
        w = np.sort(np.linalg.eigvalsh(block))
        assert np.allclose(w, [0.0, 0.0, 1.0, 1.0, 2.0])

    def test_char_poly_matches_closed_forms_over_draws(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            omega = rng.uniform(10, 100)
            xi_p = omega / rng.uniform(10, 100)
            xi_s = xi_p / rng.uniform(10, 100)
            params = SchemeParams(omega * rng.uniform(10, 1000), omega * rng.uniform(10, 1000),
                                  omega, xi_s, xi_p)
            occ = [int(v) for v in rng.integers(1, 5, 3)]
            closed = secular_coefficients(params, *occ).as_tuple()
            oracle = char_poly_coefficients(build_pp_block_matrix(params, *occ)).as_tuple()
            for x, y in zip(closed, oracle):
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)

    def test_occupation_swap_leaves_matrix_unchanged(self):
        block_a = build_pp_block_matrix(SPEC_POINT, 3, 1, 2)
        block_b = build_pp_block_matrix(SPEC_POINT, 1, 3, 2)
        assert np.array_equal(block_a, block_b)

    def test_degenerate_occupations_reduce(self):
        assert build_pp_block_matrix(SPEC_POINT, 2, 0, 1).shape == (4, 4)
        assert build_pp_block_matrix(SPEC_POINT, 0, 2, 1).shape == (4, 4)

    def test_rejects_no_signal_or_probe(self):
        with pytest.raises(ValueError):
            build_pp_block_matrix(SPEC_POINT, 0, 0, 1)
        with pytest.raises(ValueError):
            build_pp_block_matrix(SPEC_POINT, 1, 0, 0)


class TestEffectiveHamiltonians:
    def test_chi_value(self):
        params = SchemeParams(100.0, 1.0, 10.0, 1.0, 1.0)
        assert chi_from_params(params) == pytest.approx(-1e-4)

    def test_chi_zero_coupling(self):
        params = SchemeParams(100.0, 1.0, 10.0, 0.0, 1.0)
        assert chi_from_params(params) == 0.0

    def test_chi_drive_scaling(self):
        p1 = SchemeParams(100.0, 1.0, 10.0, 1.0, 1.0)
        p2 = SchemeParams(100.0, 1.0, 20.0, 1.0, 1.0)
        assert chi_from_params(p2) == pytest.approx(chi_from_params(p1) / 4)

    def test_chi_refuses_overflow(self):
        # xi_s^2 overflows a Python float (an OverflowError before); the
        # refusal names the point
        with pytest.raises(ValueError, match=r"xi_s=1e\+300"):
            chi_from_params(SchemeParams(1e4, 1e4, 1e2, 1e300, 1.0))

    def test_chi_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            chi_from_params(SchemeParams(0.0, 1.0, 10.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            chi_from_params(SchemeParams(100.0, 1.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("chi", [-1e-3, -0.0, 0.0, 0.37])
    def test_cross_kerr_energies_are_the_occupation_products(self, chi):
        # the reference: one flat occupation vector per mode, summed, then
        # multiplied; the broadcast ranges must give the same bits, zero
        # signs included
        def reference(space, signal_modes, probe_mode):
            n_signal = sum(_occupations(space, m) for m in signal_modes)
            return chi * (n_signal * _occupations(space, probe_mode))

        for c1, c2, cp in itertools.product((1, 2, 3), (1, 2, 4), (1, 2, 5)):
            for dims, signal_modes in (([c1, cp], (0,)), ([c1, c2, cp], (0, 1)),
                                       ([c1, c2, cp], (0,))):  # qnd, PP, sensitive
                space = make_space(1, dims)
                ours = _cross_kerr_energies(space, chi, signal_modes, len(dims) - 1)
                want = reference(space, signal_modes, len(dims) - 1)
                assert ours.shape == want.shape == (space.total_dim,)
                assert ours.tobytes() == want.tobytes()
                assert ours.flags.writeable

    def test_qnd_diagonal_rule(self):
        chi = -0.3
        h = qnd_hamiltonian(chi, 3, 4)
        for i in range(h.space.total_dim):
            _, (ns, npp) = h.space.unpack(i)
            assert h.matrix[i, i] == pytest.approx(chi * ns * npp)
        assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) == 0

    def test_qnd_commutes_with_signal_number(self):
        h = qnd_hamiltonian(-0.3, 3, 4)
        n_s = number_op(h.space, 0).matrix
        assert np.max(np.abs(h.matrix @ n_s - n_s @ h.matrix)) == 0.0

    def test_qnd_zero_chi(self):
        assert np.count_nonzero(qnd_hamiltonian(0.0, 2, 2).matrix) == 0

    def test_ppqnd_single_photon_eigenvalue(self):
        chi = -0.2
        h = ppqnd_hamiltonian(chi, 2, 2, 3)
        space = h.space
        for (nl, nr) in ((1, 0), (0, 1)):
            for npp in range(3):
                v = basis_state(space, 0, (nl, nr, npp)).amplitudes
                assert np.allclose(h.matrix @ v, chi * 1 * npp * v)

    def test_ppqnd_reduces_to_qnd(self):
        chi = -0.2
        h_pp = ppqnd_hamiltonian(chi, 3, 2, 4)
        h_qnd = qnd_hamiltonian(chi, 3, 4)
        for i in range(h_qnd.space.total_dim):
            _, (ns, npp) = h_qnd.space.unpack(i)
            i_pp = h_pp.space.index_of(0, (ns, 0, npp))
            assert h_pp.matrix[i_pp, i_pp] == h_qnd.matrix[i, i]

    def test_ppqnd_conservation_laws(self):
        h = ppqnd_hamiltonian(-0.2, 2, 2, 3)
        n_tot = number_op(h.space, 0).matrix + number_op(h.space, 1).matrix
        n_p = number_op(h.space, 2).matrix
        assert np.max(np.abs(h.matrix @ n_tot - n_tot @ h.matrix)) == 0.0
        assert np.max(np.abs(h.matrix @ n_p - n_p @ h.matrix)) == 0.0


class TestBlockVsFull:
    def test_single_circular_photon_splits_into_two_channels(self):
        report = compare_block_to_full(SPEC_POINT, 1, 0, 1)
        # an L photon straddles the bright (probe-coupled) and dark channels
        assert report["overlap"] > 0.4 and report["overlap_second"] > 0.4
        lams = sorted((report["lambda_full"], report["lambda_full_second"]), key=abs)
        # bright channel shifts by about half the degenerate (N-chain) block value
        assert 0.3 < abs(lams[0] / report["lambda_block"]) < 0.7
        # dark channel keeps the probe-independent light shift -xi_s^2 / delta
        expected_dark = -SPEC_POINT.xi_s**2 / SPEC_POINT.delta_two
        assert lams[1] == pytest.approx(expected_dark, rel=0.05)

    @pytest.mark.parametrize("point", [(1, 1, 1), (2, 2, 1), (2, 1, 2), (1, 2, 3)])
    def test_block_is_the_h_photon_channel(self, point):
        # both circular occupations nonzero: the 5x5 block is the full
        # model's component of |1; n_s H photons, n_p> plus the uncoupled
        # 2-, so lambda_full, that component's dark root, is the block's
        report = compare_block_to_full(FULLMODEL_POINT, *point)
        assert report["relative_difference"] <= 1e-14

    @pytest.mark.parametrize("point", [(1, 0, 1), (0, 2, 1)])
    def test_single_route_block_is_twice_the_h_photon_channel(self, point):
        # one circular occupation zero: the reduced 4x4 chain has one drive
        # leg, not sqrt(2) Omega_d, and its dark root is about twice as large
        report = compare_block_to_full(FULLMODEL_POINT, *point)
        assert report["relative_difference"] == pytest.approx(0.5, abs=1e-3)

    def test_jacobi_sees_no_block_larger_than_five_states(self, monkeypatch):
        # only the linear components of the rotated ket are diagonalized;
        # the circular sectors held 6, 11 and 16 states at n_s = 1, 2, 3.
        # The Jacobi sees them zero-padded in one stack with the block model,
        # so a block's size is its nonzero rows.
        import ppqnd.schemes as schemes
        sizes, jacobi = [], schemes._jacobi_eigh_longdouble

        def counted(matrix):
            stack = np.reshape(matrix, (-1, *np.shape(matrix)[-2:]))
            sizes.extend(np.count_nonzero(np.any(stack != 0, axis=2), axis=1).tolist())
            return jacobi(matrix)

        monkeypatch.setattr(schemes, "_jacobi_eigh_longdouble", counted)
        for n_sl, n_sr in ((1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3)):
            for n_p in (1, 2, 3):
                compare_block_to_full(SPEC_POINT, n_sl, n_sr, n_p)
        assert sizes and max(sizes) <= 5

    def test_one_jacobi_call_per_comparison(self, monkeypatch):
        # the block model rides the same zero-padded stack as the ket's components
        import ppqnd.schemes as schemes
        shapes, jacobi = [], schemes._jacobi_eigh_longdouble

        def counted(matrix):
            shapes.append(np.shape(matrix))
            return jacobi(matrix)

        monkeypatch.setattr(schemes, "_jacobi_eigh_longdouble", counted)
        for point in ((1, 0, 1), (1, 1, 1), (2, 1, 2), (0, 2, 1), (2, 2, 3)):
            shapes.clear()
            compare_block_to_full(SPEC_POINT, *point)
            assert len(shapes) == 1 and shapes[0][1] <= 5

    @pytest.mark.parametrize("n_s", [1, 2, 3])
    @pytest.mark.parametrize("n_p", [1, 2])
    def test_only_the_nonzero_linear_terms_are_kept(self, monkeypatch, n_s, n_p):
        # |1; n, n> in the linear basis is (H^2 - V^2)^n |0>: only even n_H
        # hold amplitude, and no rounding residue cuts a component at odd n_H
        import ppqnd.schemes as schemes
        kept, build = [], schemes._pp_components

        def recorded(params, cutoffs, keep):
            kept.append(np.asarray(keep))
            return build(params, cutoffs, keep)

        monkeypatch.setattr(schemes, "_pp_components", recorded)
        compare_block_to_full(FULLMODEL_POINT, n_s, n_s, n_p)
        space = make_space(5, (2 * n_s + 1, 2 * n_s + 1, n_p + 1))
        expected = [space.index_of(0, (n_h, 2 * n_s - n_h, n_p))
                    for n_h in range(0, 2 * n_s + 1, 2)]
        assert len(kept) == 1 and sorted(kept[0].tolist()) == expected

    @pytest.mark.parametrize("point", [(1, 0, 1), (0, 2, 1), (3, 0, 2), (0, 1, 3)])
    def test_single_route_block_root_is_never_a_padded_zero(self, point):
        # the reduced 4x4 chain is padded to the widest component (5 states
        # at n_s >= 2); its padded eigenvalue 0 must not win argmin |lambda|
        report = compare_block_to_full(FULLMODEL_POINT, *point)
        w, _ = _jacobi_eigh_longdouble(build_pp_block_matrix(FULLMODEL_POINT, *point))
        alone = float(w[np.argmin(np.abs(w))])
        assert report["lambda_block"] != 0.0
        assert abs(report["lambda_block"] - alone) <= 1e-13 * abs(alone)

    def test_two_photon_report_is_finite_data(self):
        report = compare_block_to_full(SPEC_POINT, 1, 1, 1)
        for key in ("lambda_block", "lambda_full", "relative_difference",
                    "overlap", "lambda_full_second", "overlap_second"):
            assert np.isfinite(report[key])


class TestHadamardColumn:
    @pytest.mark.parametrize("n_s", [1, 2, 3, 4])
    def test_closed_form_is_the_lifted_hadamard_column(self, n_s):
        # the binomial column against the real part of the lift of (L, R) ->
        # (H, V) on the complete pair sector n_s (the part the ket rotation
        # took from it), and exactly 0 where the integer sum is
        from ppqnd.polarization import PolUnitary, lift_unitary
        from ppqnd.schemes import _hadamard_column
        pair = make_space(1, (n_s + 1, n_s + 1))
        s = 1 / math.sqrt(2)
        lift = lift_unitary(PolUnitary(np.array([[s, s], [s, -s]])), pair, (0, 1)).matrix.real
        for n_sl in range(n_s + 1):
            n_sr = n_s - n_sl
            column = _hadamard_column(n_sl, n_sr)
            lifted = [lift[pair.index_of(0, (n_h, n_s - n_h)), pair.index_of(0, (n_sl, n_sr))]
                      for n_h in range(n_s + 1)]
            assert np.max(np.abs(column - np.array(lifted))) <= 1e-15
            for n_h in range(n_s + 1):
                integer = sum(math.comb(n_sl, i) * math.comb(n_sr, j) * (-1) ** (n_sr - j)
                              for i in range(n_sl + 1) for j in range(n_sr + 1) if i + j == n_h)
                assert (column[n_h] == 0.0) == (integer == 0)
