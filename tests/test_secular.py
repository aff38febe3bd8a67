import math
import re
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from ppqnd import (
    SchemeParams,
    SecularCoefficients,
    build_pp_block_matrix,
    char_poly_coefficients,
    char_poly_from_eigenvalues,
    chi_from_params,
    estimate_eigenvalues,
    estimate_stack,
    lambda_large,
    lambda_small,
    lambda_small_closed_form,
    quintic_roots,
    regime_scan,
    scan_to_csv_rows,
    secular_coefficients,
)

SPEC_POINT = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.1, xi_p=1.0)
TIE_POINT = SchemeParams(0.0, 124.0, 0.16, 7500.0, 0.005)  # its two least roots are +-lambda


def draw_params(rng, separated=True):
    """Hierarchy-respecting random parameters (ratios >= 10 per step).

    separated=True keeps |Delta - delta| >= 0.1 max(Delta, delta).  The
    caveat is the coefficient route's (quintic_roots): at detuning
    collisions the quintic's clustered large roots are only conditioned to
    ~1e-6 relative from the rounded coefficients, which lose them to
    cancellation, so root-level checks on that route draw separated.  The
    block route (estimate_eigenvalues) solves the chains themselves and
    has no such caveat: its root-level checks draw with separated=False.
    """
    while True:
        omega = rng.uniform(10, 100)
        xi_p = omega / rng.uniform(10, 100)
        xi_s = xi_p / rng.uniform(10, 100)
        delta = omega * rng.uniform(10, 1000)
        big = omega * rng.uniform(10, 1000)
        if not separated or abs(big - delta) >= 0.1 * max(big, delta):
            return SchemeParams(big, delta, omega, xi_s, xi_p)


class TestSecularCoefficients:
    def test_zero_couplings(self):
        params = SchemeParams(2.0, 1.0, 0.0, 0.0, 0.0)
        c = secular_coefficients(params, 1, 1, 1)
        delta, big = 1.0, 2.0
        assert c.as_tuple() == (2 * delta + big, -delta**2 - 2 * delta * big,
                                delta**2 * big, 0.0, 0.0)

    def test_e_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            params = draw_params(rng, separated=False)
            n_sl, n_sr, n_p = (int(v) for v in rng.integers(0, 5, 3))
            c = secular_coefficients(params, n_sl, n_sr, n_p)
            expected = (params.delta_two * params.xi_s**2 * (n_sl + n_sr)
                        * params.xi_p**2 * n_p)
            assert c.e == pytest.approx(expected, rel=1e-14, abs=0.0) or c.e == expected

    def test_e_vanishes_with_any_dark_condition(self):
        for (n_sl, n_sr, n_p, xi_s, xi_p) in (
                (0, 0, 1, 0.5, 0.5), (1, 1, 0, 0.5, 0.5),
                (1, 1, 1, 0.0, 0.5), (1, 1, 1, 0.5, 0.0)):
            params = SchemeParams(2.0, 1.0, 1.0, xi_s, xi_p)
            assert secular_coefficients(params, n_sl, n_sr, n_p).e == 0.0

    def test_trace_identity(self):
        c = secular_coefficients(SPEC_POINT, 2, 1, 3)
        assert c.a == 2 * SPEC_POINT.delta_two + SPEC_POINT.delta_probe

    def test_occupation_swap_exact(self):
        a = secular_coefficients(SPEC_POINT, 3, 1, 2)
        b = secular_coefficients(SPEC_POINT, 1, 3, 2)
        assert a == b

    def test_rejects_negative_occupations(self):
        with pytest.raises(ValueError):
            secular_coefficients(SPEC_POINT, -1, 1, 1)

    def test_refuses_overflowing_coefficients(self):
        # b came out inf and d nan here; the refusal names the point
        params = SchemeParams(1e4, 1e4, 1e2, 1e160, 1.0)
        with pytest.raises(ValueError, match=r"xi_s=1e\+160"):
            secular_coefficients(params, 1, 1, 1)


def _poly_mul(p, q):
    """Product of two polynomials, coefficients lowest power first."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def exact_factored_quintic(params, n_s, n_p):
    """(delta - l) det(l - chain) in Fractions, lowest power first, for the
    even chain on {|1; H>, 2+, |3>, |4>} with diagonal (0, delta, 0, Delta)
    and squared legs xi_s^2 n_s, 2 Omega_d^2, xi_p^2 n_p: the continuant
    f_k = (l - d_k) f_(k-1) - leg_(k-1)^2 f_(k-2)."""
    big, delta, omega, xi_s, xi_p = (Fraction(x) for x in (
        params.delta_probe, params.delta_two, params.omega_d, params.xi_s, params.xi_p))
    diagonal = (0, delta, 0, big)
    legs2 = (xi_s ** 2 * n_s, 2 * omega ** 2, xi_p ** 2 * n_p)
    before, det = [Fraction(1)], [-diagonal[0], Fraction(1)]
    for d_k, leg2 in zip(diagonal[1:], legs2):
        shifted = _poly_mul([-d_k, Fraction(1)], det)
        before, det = det, [x - leg2 * y for x, y in
                            zip(shifted, before + [Fraction(0)] * (len(shifted) - len(before)))]
    return _poly_mul([delta, Fraction(-1)], det)


class TestFactorization:
    def test_quintic_is_delta_minus_lambda_times_the_even_chain(self):
        # dyadic parameters with few bits, where every float operation of
        # the closed form is exact: a..e equal (delta - l) det(l - chain)
        rng = np.random.default_rng(16)
        for _ in range(300):
            big, delta = (float(k) / 8 for k in rng.integers(-64, 65, 2))
            omega, xi_s, xi_p = (float(k) / 8 for k in rng.integers(0, 65, 3))
            n_sl, n_sr, n_p = (int(k) for k in rng.integers(0, 5, 3))
            params = SchemeParams(big, delta, omega, xi_s, xi_p)
            closed = secular_coefficients(params, n_sl, n_sr, n_p).as_tuple()
            exact = exact_factored_quintic(params, n_sl + n_sr, n_p)
            assert [Fraction(-1), *map(Fraction, closed)] == exact[::-1]

    def test_zero_delta_keeps_the_dark_root(self):
        # at delta = 0, e = 0, but Q(0) = xi_s^2 n_s xi_p^2 n_p is not: the
        # exact zero root is delta itself and the chain's dark root stays;
        # -4.99999997500000008e-13 is the 60-digit eigenvalue of the chain
        params = SchemeParams(1e4, 0.0, 1e2, 0.01, 1.0)
        roots = estimate_eigenvalues(params, 1, 0, 1).exact_roots
        assert roots.count(0.0) == 1
        dark = min((r for r in roots if r != 0.0), key=abs)
        assert dark == pytest.approx(-4.99999997500000008e-13, rel=4e-15, abs=0.0)


class TestCharPolyOracle:
    def test_zero_matrix(self):
        c = char_poly_coefficients(np.zeros((5, 5)))
        assert c.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_diag_1_to_5(self):
        # (l-1)...(l-5) = l^5 - 15 l^4 + 85 l^3 - 225 l^2 + 274 l - 120,
        # negated into the -l^5 + a l^4 + ... + e convention
        c = char_poly_coefficients(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        expected = (15.0, -85.0, 225.0, -274.0, 120.0)
        assert np.allclose(c.as_tuple(), expected, rtol=1e-12)

    def test_identity_reconstruction(self):
        c = char_poly_coefficients(np.eye(5))
        poly = np.array([-1.0, *c.as_tuple()])
        assert abs(np.polyval(poly, 1.0)) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.zeros((5, 5))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            char_poly_coefficients(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            char_poly_coefficients(np.eye(4))
        with pytest.raises(ValueError, match="eigenvalues"):
            char_poly_from_eigenvalues(np.zeros((2, 4)))

    def test_matches_closed_forms_over_many_draws(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            params = draw_params(rng, separated=False)
            occ = [int(v) for v in rng.integers(1, 5, 3)]
            closed = secular_coefficients(params, *occ).as_tuple()
            oracle = char_poly_coefficients(build_pp_block_matrix(params, *occ)).as_tuple()
            for x, y in zip(closed, oracle):
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)


class TestLambdaSmall:
    def test_zero_signal_coupling_gives_zero(self):
        params = SchemeParams(1e4, 1e4, 1e2, 0.0, 1.0)
        c = secular_coefficients(params, 1, 0, 1)
        assert lambda_small(c) == 0.0

    def test_closed_form_at_spec_point(self):
        assert lambda_small_closed_form(SPEC_POINT, 1, 0, 1) == pytest.approx(-1e-10)

    def test_closed_form_refuses_overflow(self):
        # xi_s^2 overflows a Python float (an OverflowError before); the
        # refusal names the point
        params = SchemeParams(1e4, 1e4, 1e2, 1e300, 1.0)
        with pytest.raises(ValueError, match=r"xi_s=1e\+300"):
            lambda_small_closed_form(params, 1000, 1000, 1)

    def test_reduced_diagnostic_is_nan_where_the_closed_form_is_not_finite(self):
        # Delta Omega_d^2 = 1e-320 (subnormal) sends the closed form to -inf;
        # the estimate reports it undefined, as at Delta = 0
        est = estimate_eigenvalues(SchemeParams(1e-300, 1e4, 1e-10, 1.0, 1.0), 1, 0, 1)
        assert math.isnan(est.lambda_small_reduced)

    def test_closed_forms_keep_their_finite_values_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = draw_params(rng, separated=False)
            n_sl, n_sr, n_p = (int(v) for v in rng.integers(0, 5, 3))
            s = params.xi_s ** 2 * (n_sl + n_sr)
            p = params.xi_p ** 2 * n_p
            expected = -s * p / (params.delta_probe * params.omega_d ** 2)
            assert lambda_small_closed_form(params, n_sl, n_sr, n_p) == expected
            assert chi_from_params(params) == -(params.xi_s ** 2) * (params.xi_p ** 2) \
                / (params.delta_probe * params.omega_d ** 2)

    def test_reduced_form_matches_degenerate_chain_root(self):
        # single-route chain: the reduced formula is the N-scheme shift and
        # the 4x4 degenerate block realizes it
        block = build_pp_block_matrix(SPEC_POINT, 1, 0, 1)
        assert block.shape == (4, 4)
        w = np.linalg.eigvalsh(block)
        exact = w[np.argmin(np.abs(w))]
        assert lambda_small_closed_form(SPEC_POINT, 1, 0, 1) == pytest.approx(exact, rel=0.02)

    def test_ratio_against_exact_quintic_root_at_spec_point(self):
        est = estimate_eigenvalues(SPEC_POINT, 1, 0, 1)
        assert est.rel_err_small < 0.02

    def test_e_over_d_is_half_the_reduced_form_in_hierarchy(self):
        # both drive legs stiffen the dark state: d -> 2 delta Delta Omega^2,
        # so -e/d sits at half the single-route reduced formula
        c = secular_coefficients(SPEC_POINT, 1, 0, 1)
        ratio = lambda_small(c) / lambda_small_closed_form(SPEC_POINT, 1, 0, 1)
        assert ratio == pytest.approx(0.5, rel=1e-3)

    def test_d_zero_flagged(self):
        params = SchemeParams(2.0, 1.0, 0.0, 0.0, 0.0)
        c = secular_coefficients(params, 1, 1, 1)
        with pytest.raises(ValueError):
            lambda_small(c)


class TestLambdaLarge:
    def test_diagonal_case_exposes_regime_dependence(self):
        # couplings zero, delta = 1, Delta = 2: estimate is a = 4 but the
        # exact largest root is 2; the estimate only means something when
        # one root dominates the trace, and the flag says so
        params = SchemeParams(2.0, 1.0, 0.0, 0.0, 0.0)
        est = estimate_eigenvalues(params, 1, 1, 1)
        assert est.lambda_large == 4.0
        assert est.exact_roots[-1] == pytest.approx(2.0, abs=1e-9)
        assert not est.trace_dominated

    def test_equal_detunings_are_outside_the_estimate_regime(self):
        # Delta = delta = 1e4: exact largest root is ~1.0002e4 (each level
        # parks near its detuning), far from a = 3e4; flagged
        est = estimate_eigenvalues(SPEC_POINT, 1, 1, 1)
        assert est.exact_roots[-1] == pytest.approx(1.00019997e4, rel=1e-6)
        assert est.rel_err_large > 1.0
        assert not est.trace_dominated

    def test_trace_dominating_point_within_one_percent(self):
        # delta << Delta keeps the trace on the largest root; hierarchy
        # ratios all >= 10
        params = SchemeParams(1e6, 1e3, 1e2, 1.0, 10.0)
        assert params.regime_ok()
        est = estimate_eigenvalues(params, 1, 1, 1)
        assert est.trace_dominated
        assert est.rel_err_large < 0.01

    def test_a_equals_block_trace(self):
        c = secular_coefficients(SPEC_POINT, 2, 1, 3)
        block = build_pp_block_matrix(SPEC_POINT, 2, 1, 3)
        assert lambda_large(c) == pytest.approx(np.trace(block))


class TestQuinticRoots:
    def test_diagonal_case(self):
        params = SchemeParams(2.0, 1.0, 0.0, 0.0, 0.0)
        roots = quintic_roots(secular_coefficients(params, 1, 1, 1))
        assert np.allclose(roots, [0.0, 0.0, 1.0, 1.0, 2.0], atol=1e-9)

    def test_matches_block_eigenvalues_over_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            params = draw_params(rng)
            occ = [int(v) for v in rng.integers(1, 5, 3)]
            roots = quintic_roots(secular_coefficients(params, *occ))
            w = np.linalg.eigvalsh(build_pp_block_matrix(params, *occ))
            scale = np.maximum(np.abs(w), 1e-12 * np.max(np.abs(w)))
            assert np.max(np.abs(roots - w) / scale) < 1e-8

    def test_vieta_sum(self):
        # root extraction at detuning-clustered points carries ~1e-9
        # relative conditioning noise, so the sum inherits it
        c = secular_coefficients(SPEC_POINT, 2, 1, 3)
        assert np.sum(quintic_roots(c)) == pytest.approx(c.a, rel=1e-8)

    def test_estimate_sign_matches_exact_root_for_positive_detunings(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            params = draw_params(rng, separated=False)
            occ = [int(v) for v in rng.integers(1, 5, 3)]
            est = estimate_eigenvalues(params, *occ)
            exact = min(est.exact_roots, key=abs)
            assert est.lambda_small < 0 and exact < 0  # same sign, both negative

    def test_rejects_complex_root_input(self):
        # -l^5 + l + 1 has genuinely complex roots
        bad = SecularCoefficients(0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            quintic_roots(bad)


class TestRegimeScan:
    @staticmethod
    def uniform_ratio_point(r):
        omega = 100.0
        return SchemeParams(r * omega, r * omega, omega, omega / r**2, omega / r)

    def test_single_point(self):
        rows = regime_scan([(SPEC_POINT, 1, 0, 1)])
        assert len(rows) == 1
        assert rows[0].estimate.rel_err_small < 0.02

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            regime_scan([])

    def test_hierarchy_ratio_thresholds(self):
        est10 = estimate_eigenvalues(self.uniform_ratio_point(10), 1, 1, 1)
        est100 = estimate_eigenvalues(self.uniform_ratio_point(100), 1, 1, 1)
        assert est10.rel_err_small < 0.05
        assert est100.rel_err_small < 1e-3

    def test_error_improves_with_ratio(self):
        errs = [estimate_eigenvalues(self.uniform_ratio_point(r), 1, 1, 1).rel_err_small
                for r in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_csv_rows_shape(self):
        rows = regime_scan([(SPEC_POINT, 1, 0, 1), (self.uniform_ratio_point(10), 1, 1, 1)])
        table = scan_to_csv_rows(rows)
        assert len(table) == 3
        assert table[0][0] == "delta_probe"
        assert all(len(r) == len(table[0]) for r in table)
        # cells round-trip through repr
        assert float(table[1][8]) == rows[0].estimate.lambda_small



@pytest.mark.parametrize("call, message", [
    # the extra row's Omega_d column is the drive leg
    pytest.param(lambda: estimate_stack([], [(1e4, 1e4, -1e2, 0.1, 1.0)], [1], [1]),
                 "omega_d, xi_s and xi_p must be nonnegative", id="estimate_stack-drive"),
    # roots 1 +- 9e-4 i, 2, 3, 4: the imaginary residue passes as clustering
    # noise, and the residual of the pair's real part 1 is refused
    pytest.param(lambda: quintic_roots(SecularCoefficients(
        *(-np.poly([1 + 9e-4j, 1 - 9e-4j, 2, 3, 4])[1:].real))),
        r"root residual \|p\(1\)\| = .* exceeds 1e-08 \* scale", id="quintic_roots-residual"),
])
def test_refusals_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestEstimateStack:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_s, n_p", [([2, -1], [1, 1]), ([2, 1.5], [1, 1]),
                                          ([2, 2], [1, -3]), ([2, True], [1, 1]),
                                          ([2, 2], [1, np.True_]),
                                          (np.array([2, 2]), np.array([1, True], dtype=object))])
    def test_rejects_extra_rows_without_nonnegative_integer_counts(self, n_s, n_p):
        # refused by name before any square root, not reported as an overflow
        rows = [astuple(SPEC_POINT)] * 2
        with pytest.raises(ValueError, match="extra row 1: .* must be integers >= 0"):
            estimate_stack([], rows, n_s, n_p)

    def test_rejects_a_bool_array_of_counts_at_its_first_row(self):
        rows = [astuple(SPEC_POINT)] * 2
        with pytest.raises(ValueError, match="extra row 0: n_s = 2 and n_p = True must be"):
            estimate_stack([], rows, np.array([2, 1]), np.array([True, True]))

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_extra_rows_without_one_count_each(self, count):
        # numpy would otherwise broadcast one n_s over every row
        rows = [astuple(SPEC_POINT)] * 2
        with pytest.raises(ValueError, match="extra rows: expected"):
            estimate_stack([], rows, [1] * count, [1] * count)

    def test_integral_float_counts_equal_integer_counts(self):
        rows = [astuple(SPEC_POINT)]
        _, c_int, w_int = estimate_stack([], rows, [2], [1])
        _, c_float, w_float = estimate_stack([], rows, [2.0], [1.0])
        assert np.array_equal(c_int, c_float) and np.array_equal(w_int, w_float)


class TestDarkRoot:
    def test_tie_goes_to_the_sign_of_minus_e_over_d(self):
        # at Delta = 0 the chain's two least roots are +-lambda; -e/d > 0
        # picks +lambda, and the CSV writes that pick
        est = estimate_eigenvalues(TIE_POINT, 1, 0, 1)
        assert est.exact_roots[1] == -est.exact_roots[2] and est.lambda_small > 0
        assert est.exact_small == est.exact_roots[2] == 0.0049999999977244445
        row = scan_to_csv_rows(regime_scan([(TIE_POINT, 1, 0, 1)]))[1]
        assert row[9] == "0.0049999999977244445"


class TestPhotonNumbers:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("counts", [(1.5, 0, 1), (0, 0.5, 1), (1, 0, 2.5), (-1, 0, 1),
                                        (1, 0, -1), (math.nan, 0, 1), (1, 0, math.inf),
                                        (True, 0, 1), (1, False, 1), (1, 0, np.True_)])
    def test_points_refuse_other_than_nonnegative_integer_counts(self, counts):
        # one check for points and extra rows, naming the point before any
        # square root is taken
        point = (SPEC_POINT, *counts)
        message = re.escape(f"secular point {point}: photon numbers must be integers >= 0")
        for call, args in ((secular_coefficients, point), (estimate_eigenvalues, point),
                           (regime_scan, [[(SPEC_POINT, 1, 0, 1), point]]),
                           (estimate_stack, [[point]])):
            with pytest.raises(ValueError, match=message):
                call(*args)

    def test_integral_float_counts_equal_integer_counts(self):
        for counts in ((2, 1, 3), (0, 0, 0), (1, 0, 0)):
            floats = [float(n) for n in counts]
            assert (repr(secular_coefficients(SPEC_POINT, *floats))
                    == repr(secular_coefficients(SPEC_POINT, *counts)))
            assert (repr(estimate_eigenvalues(SPEC_POINT, *floats))
                    == repr(estimate_eigenvalues(SPEC_POINT, *counts)))
