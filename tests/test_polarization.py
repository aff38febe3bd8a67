import math
import tracemalloc

import numpy as np
import pytest

from ppqnd import (
    Operator,
    PolarizationQubit,
    PolUnitary,
    basis_state,
    check_invariance,
    diagonal_invariance,
    lift_unitary,
    lr_to_hv,
    make_space,
    number_op,
    polarization_dephasing,
    ppqnd_energies,
    ppqnd_hamiltonian,
    stokes_vector,
)
from ppqnd import polarization


def haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return PolUnitary(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


class TestPolarizationQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PolarizationQubit(1.0, 1.0)

    @pytest.mark.parametrize("amplitudes",
                             [(math.nan, 0.0), (1.0, math.nan), (complex(math.nan, 0.0), 0.0)])
    def test_rejects_nan(self, amplitudes):
        with pytest.raises(ValueError):
            PolarizationQubit(*amplitudes)

    def test_normalized_constructor(self):
        q = PolarizationQubit.normalized(3.0, 4.0)
        assert abs(q.c_l) == pytest.approx(0.6)
        assert abs(q.c_r) == pytest.approx(0.8)


class TestLrToHv:
    def test_unitary(self):
        u = lr_to_hv().matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15

    def test_fixed_entries(self):
        u = lr_to_hv().matrix
        s = 1 / math.sqrt(2)
        assert np.allclose(u, [[s, 1j * s], [s, -1j * s]])

    def test_left_photon_in_linear_basis(self):
        # states carry the conjugate of the mode-operator map:
        # c_HV = u^+ c_LR, so |1_L> reads (|1_H> - i |1_V>)/sqrt(2)
        u = lr_to_hv().matrix
        c_hv = u.conj().T @ np.array([1.0, 0.0])
        s = 1 / math.sqrt(2)
        assert np.allclose(c_hv, [s, -1j * s])

    def test_round_trip_on_states(self):
        rng = np.random.default_rng(0)
        u = lr_to_hv().matrix
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        back = u @ (u.conj().T @ c)
        assert np.max(np.abs(back - c)) < 1e-12


class TestLiftUnitary:
    def test_identity_lifts_to_identity(self):
        space = make_space(1, [3, 3, 2])
        lift = lift_unitary(PolUnitary(np.eye(2)), space, (0, 1))
        assert np.max(np.abs(lift.matrix - np.eye(space.total_dim))) < 1e-12

    def test_single_photon_sector_action(self):
        # the active lift transforms single-photon amplitude columns by u
        space = make_space(1, [2, 2])
        u = lr_to_hv()
        lift = lift_unitary(u, space, (0, 1))
        i10 = space.index_of(0, (1, 0))
        i01 = space.index_of(0, (0, 1))
        for k, i_in in enumerate((i10, i01)):
            vec = np.zeros(space.total_dim, dtype=complex)
            vec[i_in] = 1.0
            out = lift.matrix @ vec
            assert out[i10] == pytest.approx(u.matrix[0, k], abs=1e-12)
            assert out[i01] == pytest.approx(u.matrix[1, k], abs=1e-12)

    def test_preserves_total_photon_number(self):
        rng = np.random.default_rng(1)
        space = make_space(1, [3, 3])
        n_tot = number_op(space, 0).matrix + number_op(space, 1).matrix
        for _ in range(5):
            lift = lift_unitary(haar_unitary(rng), space, (0, 1))
            comm = lift.matrix @ n_tot - n_tot @ lift.matrix
            assert np.max(np.abs(comm)) < 1e-10

    def test_is_unitary(self):
        rng = np.random.default_rng(2)
        space = make_space(1, [4, 4])
        lift = lift_unitary(haar_unitary(rng), space, (0, 1)).matrix
        assert np.max(np.abs(lift.conj().T @ lift - np.eye(space.total_dim))) < 1e-10

    def test_homomorphism_on_complete_sectors(self):
        # lift(u1 u2) = lift(u1) lift(u2) exactly on every photon-number
        # sector that fits under the cutoff; boundary sectors are
        # truncation artifacts and carry no representation content
        rng = np.random.default_rng(3)
        space = make_space(1, [4, 4])
        sector_idx = [space.index_of(0, (k, n - k))
                      for n in range(4) for k in range(n + 1)]
        sel = np.ix_(sector_idx, sector_idx)
        for _ in range(5):
            u1, u2 = haar_unitary(rng), haar_unitary(rng)
            lhs = lift_unitary(u1 @ u2, space, (0, 1)).matrix
            rhs = lift_unitary(u1, space, (0, 1)).matrix @ lift_unitary(u2, space, (0, 1)).matrix
            assert np.max(np.abs(lhs[sel] - rhs[sel])) < 1e-9

    def test_branch_cut_eigenvalue_minus_one(self):
        # u with eigenvalue -1 lands on the principal-log branch cut; the
        # lift stays a faithful similarity transform regardless
        space = make_space(1, [3, 3])
        u = PolUnitary(np.diag([1.0, -1.0]))
        lift = lift_unitary(u, space, (0, 1)).matrix
        assert np.max(np.abs(lift.conj().T @ lift - np.eye(space.total_dim))) < 1e-10

    def test_rejects_unequal_cutoffs(self):
        space = make_space(1, [3, 4])
        with pytest.raises(ValueError):
            lift_unitary(PolUnitary(np.eye(2)), space, (0, 1))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            PolUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_rejects_nan(self, entry):
        m = np.eye(2, dtype=complex)
        m[entry] = math.nan
        with pytest.raises(ValueError, match="not unitary"):
            PolUnitary(m)


class TestInvariance:
    def test_ppqnd_invariant_under_lr_to_hv(self):
        h = ppqnd_hamiltonian(-1e-3, 4, 4, 4)
        assert check_invariance(h, lr_to_hv(), (0, 1)) <= 1e-10

    def test_ppqnd_invariant_under_random_unitaries(self):
        rng = np.random.default_rng(4)
        h = ppqnd_hamiltonian(-1e-3, 3, 3, 3)
        for _ in range(20):
            assert check_invariance(h, haar_unitary(rng), (0, 1)) <= 1e-10

    def test_sensitive_hamiltonian_is_not_invariant(self):
        space = make_space(1, [3, 3, 3])
        chi = -1e-3
        h = Operator(space, chi * (number_op(space, 0).matrix @ number_op(space, 2).matrix))
        assert check_invariance(h, lr_to_hv(), (0, 1)) > 1e-3 * abs(chi) / 1e-3


def unitary_stack(rng, count):
    """(count + 3, 2, 2): LR -> HV, 1, a Z and count Haar unitaries."""
    return np.array([lr_to_hv().matrix, np.eye(2), np.diag([1.0, -1.0])]
                    + [haar_unitary(rng).matrix for _ in range(count)], dtype=complex)


class TestDiagonalRoute:
    def test_stacked_deviations_equal_one_call_per_unitary(self):
        us = unitary_stack(np.random.default_rng(7), 12)
        for cutoffs in ((4, 4, 4), (3, 3, 5)):
            for sensitive in (False, True):
                space, energies = ppqnd_energies(-1e-3, *cutoffs, sensitive=sensitive)
                stacked = diagonal_invariance(space, energies, us, (0, 1))
                single = [diagonal_invariance(space, energies, u[None], (0, 1))[0] for u in us]
                assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("dims,modes", [((1, 4, 4, 4), (0, 1)), ((2, 3, 3, 5), (0, 1)),
                                            ((1, 3, 2, 3), (2, 0))])
    def test_each_pair_equals_check_invariance_on_its_operator(self, dims, modes):
        space = make_space(dims[0], list(dims[1:]))
        rng = np.random.default_rng(11)
        us = unitary_stack(rng, 6)
        energies = rng.uniform(-1.0, 1.0, (len(us), space.total_dim))
        pairs = diagonal_invariance(space, energies, us, modes)
        dense = [check_invariance(Operator(space, np.diag(e)), PolUnitary(u), modes)
                 for e, u in zip(energies, us)]
        assert pairs.shape == (len(us),)
        assert np.array_equal(pairs, dense)

    def test_one_diagonal_broadcasts_over_the_stack(self):
        space, energies = ppqnd_energies(-1e-3, 4, 4, 3, sensitive=True)
        us = unitary_stack(np.random.default_rng(3), 9)
        repeated = np.repeat(energies[None], len(us), axis=0)
        assert np.array_equal(diagonal_invariance(space, energies, us, (0, 1)),
                              diagonal_invariance(space, repeated, us, (0, 1)))

    def test_empty_stack_has_no_deviations(self):
        space, energies = ppqnd_energies(-1e-3, 3, 3, 2)
        devs = diagonal_invariance(space, energies, np.zeros((0, 2, 2)), (0, 1))
        assert devs.shape == (0,)

    @pytest.mark.parametrize("bad", ["non-unitary", "nan-unitary", "one-2x2", "energies-length",
                                     "energies-rows", "unequal-cutoffs"])
    def test_rejects_what_it_takes_from_outside(self, bad):
        space, energies = ppqnd_energies(-1e-3, 3, 3, 2)
        us = np.array([lr_to_hv().matrix, np.eye(2)], dtype=complex)
        if bad == "non-unitary":
            us[1, 0, 0] = 1.1
        elif bad == "nan-unitary":
            us[1, 1, 1] = np.nan
        elif bad == "one-2x2":
            us = us[0]
        elif bad == "energies-length":
            energies = energies[:-1]
        elif bad == "energies-rows":
            energies = np.repeat(energies[None], 3, axis=0)
        else:
            space, energies = ppqnd_energies(-1e-3, 3, 2, 2)
        with pytest.raises(ValueError):
            diagonal_invariance(space, energies, us, (0, 1))

    def test_diagonal_hamiltonian_skips_the_dense_route(self, monkeypatch):
        # the route is decided from the matrix: a diagonal H never lifts u to
        # a D x D unitary, one off-diagonal entry lifts it exactly once
        calls = []

        def counting(*args):
            calls.append(args)
            return lift(*args)
        lift = polarization.lift_unitary
        monkeypatch.setattr(polarization, "lift_unitary", counting)
        h = ppqnd_hamiltonian(-1e-3, 3, 3, 3)
        assert check_invariance(h, lr_to_hv(), (0, 1)) <= 1e-15
        assert calls == []
        m = h.matrix.copy()
        m[1, 3] = m[3, 1] = 1e-3
        dense = check_invariance(Operator(h.space, m), lr_to_hv(), (0, 1))
        assert len(calls) == 1
        assert dense > 1e-4

    def test_general_route_retains_nothing(self):
        # the general route caches nothing between calls: after it
        # returns, nothing it allocated is left
        h = ppqnd_hamiltonian(-1e-3, 8, 8, 9)
        m = h.matrix.copy()
        i, j = h.space.index_of(0, (0, 0, 1)), h.space.index_of(0, (0, 1, 1))
        m[i, j] = m[j, i] = 1e-3
        op, u = Operator(h.space, m), lr_to_hv()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert check_invariance(op, u, (0, 1)) > 1e-4
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.1e6

    @pytest.mark.parametrize("cut", [1, 2, 5])
    def test_one_real_eigh_per_sector_size(self, monkeypatch, cut):
        # the lift and the invariance check share one route: a real symmetric
        # eigh per pair-sector size, for one unitary or a whole stack
        dtypes = []

        def recording(a):
            dtypes.append(np.asarray(a).dtype)
            return eigh(a)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", recording)
        space, energies = ppqnd_energies(-1e-3, cut, cut, 2)
        lift_unitary(lr_to_hv(), space, (0, 1))
        assert dtypes == [np.float64] * cut
        dtypes.clear()
        diagonal_invariance(space, energies, unitary_stack(np.random.default_rng(8), 9), (0, 1))
        assert dtypes == [np.float64] * cut

    def test_peak_memory_at_a_wide_pair(self):
        # cutoff_p = 1 < cutoff_s: a (K, B, s, s, s) product tensor would take
        # 50 * 2 * 15^3 * 16 B = 5.4e6 B at sector size 15 alone, while the
        # complex generator route (a complex eigh per sector size) peaked at
        # 3591816 B here; the real route stays within 1.25 times that
        space, energies = ppqnd_energies(-1e-3, 16, 16, 1)
        us = unitary_stack(np.random.default_rng(9), 47)
        diagonal_invariance(space, energies, us, (0, 1))  # the sector templates are cached
        tracemalloc.start()
        try:
            diagonal_invariance(space, energies, us, (0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 3591816


def by_total_pair_sectors(cut):
    """The pair sectors built sector by sector: for each total N = n_i + n_j
    the pair indices n_i * cut + n_j with n_i ascending, stacked per size in
    order of first appearance."""
    by_size = {}
    for total in range(2 * cut - 1):
        n_i = np.arange(max(0, total - cut + 1), min(total, cut - 1) + 1)
        by_size.setdefault(n_i.size, []).append(n_i * cut + (total - n_i))
    return [np.stack(rows) for rows in by_size.values()]


@pytest.mark.parametrize("cut", range(1, 9))
def test_pair_sectors_equal_the_by_total_construction(cut):
    ours = polarization._pair_sectors(cut)
    reference = by_total_pair_sectors(cut)
    assert len(ours) == len(reference)
    for index, expected in zip(ours, reference):
        assert index.dtype == np.intp and np.array_equal(index, expected)
        assert not index.flags.writeable  # cached: shared by every later call



@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PolarizationQubit.normalized(0, 0), "cannot normalize the zero vector",
                 id="normalized-zero"),
    pytest.param(lambda: PolUnitary(np.eye(3)), r"expected a 2x2 matrix, got \(3, 3\)",
                 id="PolUnitary-shape"),
    pytest.param(lambda: lift_unitary(lr_to_hv(), make_space(1, [2, 2]), (0, 0)),
                 "modes must be distinct", id="lift_unitary-equal-modes"),
])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestStokes:
    def test_poles_and_equator(self):
        assert stokes_vector(PolarizationQubit.left()) == pytest.approx((0.0, 0.0, 1.0))
        assert stokes_vector(PolarizationQubit.right()) == pytest.approx((0.0, 0.0, -1.0))
        assert stokes_vector(PolarizationQubit.horizontal()) == pytest.approx((1.0, 0.0, 0.0))

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            q = PolarizationQubit.normalized(c[0], c[1])
            assert np.linalg.norm(stokes_vector(q)) == pytest.approx(1.0, abs=1e-12)


class TestDephasingBasisIndependence:
    def test_fidelity_invariant_under_prerotation(self):
        rng = np.random.default_rng(6)
        base = PolarizationQubit.horizontal()
        ref = polarization_dephasing(base, 1.5, -0.2, 3.0).fidelity
        for _ in range(5):
            rotated = base.apply(haar_unitary(rng))
            fid = polarization_dephasing(rotated, 1.5, -0.2, 3.0).fidelity
            assert abs(fid - ref) < 1e-10
