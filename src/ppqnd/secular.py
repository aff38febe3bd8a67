"""Quintic secular-equation analysis of the polarization-preserving scheme.

The block model's eigenvalues solve

    -lambda^5 + a lambda^4 + b lambda^3 + c lambda^2 + d lambda + e = 0

with closed-form coefficients a..e in the detunings, couplings, and
occupation numbers (through n_s = n_sL + n_sR only).  This module supplies
the closed forms, an independent characteristic-polynomial oracle built
from exact eigenvalues, companion-matrix root extraction, and the two
perturbative eigenvalue estimates

    lambda_s ~= -e/d      (perturbed-dark-state root, deep hierarchy)
    lambda_l ~= a          (trace-dominating root; meaningful only when
                            one eigenvalue carries the trace, i.e.
                            delta << Delta)

plus a regime scan comparing both against the exact roots.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Iterable, Sequence

import numpy as np

from .schemes import SchemeParams

__all__ = [
    "SecularCoefficients",
    "EigenEstimate",
    "ScanRow",
    "secular_coefficients",
    "char_poly_coefficients",
    "lambda_small",
    "lambda_small_closed_form",
    "lambda_large",
    "quintic_roots",
    "middle_quartic_roots",
    "estimate_eigenvalues",
    "regime_scan",
    "ScanSummary",
    "summarize_regime_scan",
    "scan_to_csv_rows",
]

_REL_FLOOR = 1e-300  # guards relative errors when the exact root is 0


@dataclass(frozen=True)
class SecularCoefficients:
    """Coefficients of -l^5 + a l^4 + b l^3 + c l^2 + d l + e = 0."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)


def secular_coefficients(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                         ) -> SecularCoefficients:
    """Closed-form quintic coefficients.

    The circular occupations enter only through n_s = n_sL + n_sR, which is
    what makes the scheme polarization-insensitive at this level: any
    single-photon polarization state is an eigenstate of n_sL + n_sR with
    eigenvalue 1, so the same numbers apply.
    """
    if n_sl < 0 or n_sr < 0 or n_p < 0:
        raise ValueError("photon numbers must be >= 0")
    delta, big = params.delta_two, params.delta_probe
    om2 = params.omega_d ** 2
    s = params.xi_s ** 2 * (n_sl + n_sr)
    p = params.xi_p ** 2 * n_p
    a = 2 * delta + big
    b = -delta ** 2 - 2 * delta * big + s + 2 * om2 + p
    c = -(delta + big) * s + delta ** 2 * big - 2 * (delta + big) * om2 - 2 * delta * p
    d = delta * big * (s + 2 * om2) - s * p + delta ** 2 * p
    e = delta * s * p
    return SecularCoefficients(a, b, c, d, e)


def char_poly_coefficients(matrix: np.ndarray) -> SecularCoefficients:
    """Exact characteristic-polynomial coefficients of a Hermitian 5x5.

    Computed from the eigenvalues through elementary symmetric polynomials
    and rearranged to the -l^5 + a l^4 + ... + e convention, so this is an
    oracle independent of the closed-form algebra.
    """
    m = np.asarray(matrix)
    if m.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    a, b, c, d, e = _char_poly_stack(m[None]).tolist()[0]
    return SecularCoefficients(a, b, c, d, e)


def _char_poly_stack(matrices: np.ndarray) -> np.ndarray:
    """(B, 5) coefficients a..e of a (B, 5, 5) stack of Hermitian matrices.

    One eigvalsh over the stack, then np.poly's recurrence on the
    eigenvalues w_k, c[j] -= w_k c[j-1], applied to all rows at once; the
    arithmetic per row is np.poly's, so each row equals
    -np.poly(eigvalsh(m))[1:] bit for bit.
    """
    m = np.asarray(matrices)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(1, 2)))
    asym = np.max(np.abs(m - np.swapaxes(m, 1, 2).conj()), axis=(1, 2))
    if np.any(asym > 1e-12 * scale):
        raise ValueError("matrix is not Hermitian")
    w = np.linalg.eigvalsh(m)
    # poly = [1, -e1, e2, -e3, e4, -e5] (elementary symmetric polys of the
    # eigenvalues); our convention -l^5 + a l^4 + ... + e is its negative.
    poly = np.zeros((len(w), 6))
    poly[:, 0] = 1.0
    for k in range(5):
        poly[:, 1:k + 2] -= w[:, k:k + 1] * poly[:, :k + 1]
    return -poly[:, 1:]


def lambda_small(coeffs: SecularCoefficients) -> float:
    """Perturbed-dark-state eigenvalue estimate -e/d."""
    if coeffs.d == 0:
        raise ValueError("d = 0: degenerate regime, the -e/d estimate is invalid")
    return -coeffs.e / coeffs.d


def lambda_small_closed_form(params: SchemeParams, n_sl: int, n_sr: int, n_p: int) -> float:
    """Fully reduced small-eigenvalue formula.

    -xi_s^2 (n_sL + n_sR) xi_p^2 n_p / (Delta Omega_d^2)

    This is the same expression as the N-scheme cross-Kerr shift.  Note it
    is NOT the deep-hierarchy limit of -e/d: there d -> 2 delta Delta
    Omega_d^2 because both drive legs stiffen the dark state, so -e/d is
    smaller by a factor of 2.  Exact diagonalization of both the block
    model and the full scheme sides with -e/d; the reduced form is kept as
    stated for reference and applies verbatim to the single-route (N-type)
    chain.
    """
    if params.delta_probe == 0 or params.omega_d == 0:
        raise ValueError("closed form requires Delta != 0 and Omega_d != 0")
    s = params.xi_s ** 2 * (n_sl + n_sr)
    p = params.xi_p ** 2 * n_p
    return -s * p / (params.delta_probe * params.omega_d ** 2)


def lambda_large(coeffs: SecularCoefficients) -> float:
    """Largest-eigenvalue estimate: the nonzero root of -l^5 + a l^4 = 0, i.e. a.

    a equals the trace, so the estimate is only meaningful when a single
    root dominates the trace (delta << Delta); estimate_eigenvalues flags
    that via trace_dominated.
    """
    return coeffs.a


def quintic_roots(coeffs: SecularCoefficients, residual_tol: float = 1e-8) -> np.ndarray:
    """All five roots via companion-matrix eigenvalues, sorted ascending.

    Coefficients coming from a Hermitian matrix have five real roots.
    Clustered roots (e.g. two levels parked at the same detuning) make the
    companion eigenvalues wander off the real axis by O(eps^(1/3)) of the
    root magnitude, so small imaginary residue is dropped and the real
    parts are Aberth-polished as far as rounding in p allows.  Imaginary residue
    beyond the clustering scale signals genuinely complex roots, i.e.
    coefficients that never came from a Hermitian matrix, and raises; so
    does a final residual |p(root)| above residual_tol * scale with
    scale = max|coefficient| * max(1, |root|)^5.
    """
    return _quintic_roots_stack(_poly_rows([coeffs]), residual_tol)[0]


def middle_quartic_roots(coeffs: SecularCoefficients) -> np.ndarray:
    """Roots of a l^4 + b l^3 + c l^2 + d l = 0, sorted ascending.

    Diagnostic for the intermediate eigenvalues: the quartic factors as
    l * (a l^3 + b l^2 + c l + d), so one root is always 0 and the cubic
    holds the candidates for the middle of the spectrum.  All four are
    returned; which three form "the middle set" is ambiguous because the
    smallest-eigenvalue candidate is among them too.
    """
    if coeffs.a == 0:
        raise ValueError("a = 0: quartic diagnostic undefined")
    cubic = np.roots([coeffs.a, coeffs.b, coeffs.c, coeffs.d])
    return np.sort(np.concatenate([[0.0], cubic.real]))


def _poly_rows(coeffs: Sequence[SecularCoefficients]) -> np.ndarray:
    """(B, 6) rows [-1, a, b, c, d, e], highest power first."""
    return np.array([(-1.0, *c.as_tuple()) for c in coeffs])


def _quintic_roots_stack(polys: np.ndarray, residual_tol: float = 1e-8) -> np.ndarray:
    """Sorted real roots, (B, 5), of each (B, 6) row; quintic_roots per row.

    Rows are checked in order and the first failing row raises.
    """
    refined = _aberth_refine(polys, _companion_eigvals(polys))
    magnitude = np.maximum(1.0, np.max(np.abs(refined), axis=1))
    max_imag = np.max(np.abs(refined.imag), axis=1)
    roots = np.sort(refined.real, axis=1)
    p_val = np.abs(_horner(polys, roots))
    scale = np.max(np.abs(polys), axis=1, keepdims=True) * np.maximum(1.0, np.abs(roots)) ** 5
    too_complex = max_imag > 1e-3 * magnitude
    too_large = p_val > residual_tol * scale
    for i in np.flatnonzero(too_complex | np.any(too_large, axis=1)):
        if too_complex[i]:
            raise ValueError(f"complex root residue {max_imag[i]:g}: "
                             "coefficients not from a Hermitian matrix?")
        k = np.flatnonzero(too_large[i])[0]
        raise ValueError(f"root residual |p({roots[i, k]:g})| = {p_val[i, k]:g} "
                         f"exceeds {residual_tol:g} * scale")
    return roots


def _companion_eigvals(polys: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues of each row, as np.roots computes them.

    A row whose k trailing coefficients vanish has k exact roots at 0; they
    are split off and the degree-(5-k) companion matrices of the rows
    sharing a degree go through one eigvals call.
    """
    starts = np.zeros((len(polys), 5), dtype=complex)
    degree = 5 - np.argmax(polys[:, ::-1] != 0, axis=1)  # the leading -1 is never 0
    for n in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == n)
        companion = np.zeros((len(rows), n, n))
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        companion[:, 0, :] = -polys[rows, 1:n + 1] / polys[rows, :1]
        starts[rows, :n] = np.linalg.eigvals(companion)
    return starts


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials (coefficients on the last axis, highest power first) at z.

    The arithmetic is np.polyval's, so each value matches it bit for bit:
    its first step, 0 * z + c_0, is exactly c_0 for finite z.
    """
    y = coeffs[..., :1].astype(np.result_type(coeffs, z))
    for k in range(1, coeffs.shape[-1]):
        y = y * z + coeffs[..., k:k + 1]
    return y


_STEP_RTOL = 4 * np.finfo(float).eps  # a step this small relative to its root is rounding
_MAX_ITER = 60


def _aberth_refine(polys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich simultaneous refinement of all roots of each row.

    Companion-matrix eigenvalues resolve clustered roots only to
    O(eps^(1/3)); the simultaneous iteration's mutual-repulsion term keeps
    close roots apart while polishing each toward machine accuracy on the
    polynomial itself (close real pairs arrive as conjugate artifacts
    whose imaginary parts carry the splitting, so plain Newton on the real
    parts would merge them).

    Each row stops on its own once every root's step is within a few eps
    of the root, or once its largest relative step stops shrinking while
    all its iterates are real: from there on the steps are rounding noise
    of the polynomial's evaluation.  A conjugate pair still off the axis
    keeps its row going, up to _MAX_ITER steps, as does a row whose next
    iterate would not be finite (it keeps its last finite iterate).
    """
    n = polys.shape[1] - 1
    # p and p' evaluated in one Horner pass; p' gets a leading zero
    # coefficient, which leaves np.polyval's roundings unchanged
    pair = np.zeros((len(polys), 2, n + 1))
    pair[:, 0] = polys
    pair[:, 1, 1:] = polys[:, :-1] * np.arange(n, 0, -1)
    za = starts.astype(complex)
    z = np.empty_like(za)
    rows = np.arange(len(z))  # the rows still iterating, held compactly in za
    prev_rel = np.full(len(z), np.inf)
    for _ in range(_MAX_ITER):
        y = _horner(pair, za[:, None, :])
        pz, dz = y[:, 0], y[:, 1]
        newton = np.divide(pz, dz, out=np.zeros_like(pz), where=dz != 0)
        diff = za[:, :, None] - za[:, None, :]
        # coincident iterates (and each iterate with itself) exert no repulsion
        recip = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
        denom = 1.0 - newton * recip.sum(axis=2)
        step = np.divide(newton, denom, out=np.zeros_like(denom), where=denom != 0)
        z_next = za - step
        finite = np.isfinite(z_next).all(axis=1)
        if not finite.all():
            z_next[~finite] = za[~finite]

        rel = np.divide(np.abs(step), np.abs(z_next), out=np.zeros(step.shape),
                        where=step != 0).max(axis=1)
        real = ~np.any(z_next.imag, axis=1)
        done = ~finite | (rel <= _STEP_RTOL) | (real & (rel >= prev_rel))
        za, prev_rel = z_next, rel
        if done.any():
            z[rows[done]] = za[done]
            keep = ~done
            rows, za, pair, prev_rel = rows[keep], za[keep], pair[keep], prev_rel[keep]
            if not len(rows):
                return z
    z[rows] = za
    return z


def _rel_err(approx: float, exact: float) -> float:
    return abs(approx - exact) / max(abs(exact), _REL_FLOOR)


@dataclass(frozen=True)
class EigenEstimate:
    """Perturbative estimates against the exact quintic roots.

    lambda_small matches the exact root of smallest magnitude (ties broken
    toward matching sign), lambda_large the largest root.  The reduced
    closed form is carried as a diagnostic; trace_dominated records whether
    the largest root actually carries the trace, outside of which the
    lambda_large estimate is not meaningful.
    """

    lambda_small: float
    lambda_large: float
    exact_roots: tuple[float, float, float, float, float]
    rel_err_small: float
    rel_err_large: float
    lambda_small_reduced: float
    rel_err_small_reduced: float
    trace_dominated: bool


def _smallest_by_magnitude(roots: np.ndarray, sign_hint: float) -> float:
    mags = np.abs(roots)
    candidates = np.flatnonzero(mags <= mags.min() * (1 + 1e-12))
    if len(candidates) > 1 and sign_hint != 0:
        for k in candidates:
            if np.sign(roots[k]) == np.sign(sign_hint):
                return float(roots[k])
    return float(roots[candidates[0]])


def estimate_eigenvalues(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                         ) -> EigenEstimate:
    """Bundle the lambda_s / lambda_l estimates with exact roots and errors."""
    coeffs = secular_coefficients(params, n_sl, n_sr, n_p)
    return _estimate(params, n_sl, n_sr, n_p, coeffs, quintic_roots(coeffs))


def _estimate(params: SchemeParams, n_sl: int, n_sr: int, n_p: int,
              coeffs: SecularCoefficients, roots: np.ndarray) -> EigenEstimate:
    lam_s = lambda_small(coeffs) if coeffs.d != 0 else 0.0
    lam_l = lambda_large(coeffs)
    exact_small = _smallest_by_magnitude(roots, lam_s)
    exact_large = float(roots[-1])
    if params.delta_probe != 0 and params.omega_d != 0:
        reduced = lambda_small_closed_form(params, n_sl, n_sr, n_p)
    else:
        reduced = math.nan  # undefined outside Delta, Omega_d != 0
    dominated = abs(exact_large) >= 0.9 * abs(coeffs.a) if coeffs.a != 0 else False
    return EigenEstimate(
        lambda_small=lam_s,
        lambda_large=lam_l,
        exact_roots=tuple(float(r) for r in roots),
        rel_err_small=_rel_err(lam_s, exact_small),
        rel_err_large=_rel_err(lam_l, exact_large),
        lambda_small_reduced=reduced,
        rel_err_small_reduced=_rel_err(reduced, exact_small),
        trace_dominated=bool(dominated),
    )


@dataclass(frozen=True)
class ScanRow:
    params: SchemeParams
    n_sl: int
    n_sr: int
    n_p: int
    estimate: EigenEstimate


def regime_scan(points: Iterable[tuple[SchemeParams, int, int, int]]) -> list[ScanRow]:
    """Evaluate estimate_eigenvalues over a parameter grid.

    Each point is (params, n_sL, n_sR, n_p).  The quintics of all points
    are solved together in one batched root-find; each row equals
    estimate_eigenvalues at its point.
    """
    points = list(points)
    if not points:
        raise ValueError("regime_scan needs a nonempty grid")
    coeffs = [secular_coefficients(*point) for point in points]
    roots = _quintic_roots_stack(_poly_rows(coeffs))
    return [ScanRow(p, nl, nr, npp, _estimate(p, nl, nr, npp, c, r))
            for (p, nl, nr, npp), c, r in zip(points, coeffs, roots)]


@dataclass(frozen=True)
class ScanSummary:
    """Estimate quality bucketed by hierarchy ratio.

    ratios holds the distinct min-hierarchy-ratios found in the scan,
    ascending; max_rel_err_small / max_rel_err_large the worst estimate
    error within each bucket.  improves_monotonically records whether the
    lambda_s error is nonincreasing as the hierarchy deepens (up to a 10%
    slack for noise-floor flatness).
    """

    ratios: tuple[float, ...]
    max_rel_err_small: tuple[float, ...]
    max_rel_err_large: tuple[float, ...]
    improves_monotonically: bool


def summarize_regime_scan(rows: Sequence[ScanRow]) -> ScanSummary:
    """Group scan rows by min hierarchy ratio and track error improvement."""
    buckets: dict[float, list[ScanRow]] = {}
    for row in rows:
        key = round(min(row.params.hierarchy_ratios()), 6)
        buckets.setdefault(key, []).append(row)
    ratios = tuple(sorted(buckets))
    err_s = tuple(max(r.estimate.rel_err_small for r in buckets[k]) for k in ratios)
    err_l = tuple(max(r.estimate.rel_err_large for r in buckets[k]) for k in ratios)
    monotone = all(b <= a * 1.1 for a, b in zip(err_s, err_s[1:]))
    return ScanSummary(ratios, err_s, err_l, monotone)


_CSV_HEADER = (
    "delta_probe", "delta_two", "omega_d", "xi_s", "xi_p", "n_sl", "n_sr", "n_p",
    "lambda_s_est", "lambda_s_exact", "rel_err_s",
    "lambda_l_est", "lambda_l_exact", "rel_err_l",
)


def scan_to_csv_rows(rows: Sequence[ScanRow]) -> list[tuple[str, ...]]:
    """Header plus one tuple of repr-formatted cells per scan point."""
    out = [_CSV_HEADER]
    for row in rows:
        est = row.estimate
        exact_small = _smallest_by_magnitude(np.array(est.exact_roots), est.lambda_small)
        cells = (
            row.params.delta_probe, row.params.delta_two, row.params.omega_d,
            row.params.xi_s, row.params.xi_p, row.n_sl, row.n_sr, row.n_p,
            est.lambda_small, exact_small, est.rel_err_small,
            est.lambda_large, est.exact_roots[-1], est.rel_err_large,
        )
        out.append(tuple(repr(c) for c in cells))
    return out
