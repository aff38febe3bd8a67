"""Quintic secular-equation analysis of the polarization-preserving scheme.

The block model's eigenvalues solve

    -lambda^5 + a lambda^4 + b lambda^3 + c lambda^2 + d lambda + e = 0

with closed-form coefficients a..e in the detunings, couplings, and
occupation numbers (through n_s = n_sL + n_sR only).  This module supplies
the closed forms, an independent characteristic-polynomial oracle built
from exact eigenvalues, and the two perturbative eigenvalue estimates

    lambda_s ~= -e/d      (perturbed-dark-state root, deep hierarchy)
    lambda_l ~= a          (trace-dominating root; meaningful only when
                            one eigenvalue carries the trace, i.e.
                            delta << Delta)

plus a regime scan comparing both against the exact roots.

The quintic is (delta - lambda) Q(lambda), with Q the characteristic
polynomial of the block's even chain (see schemes._pp_block_stack).  So delta
is an exact root and the other four are the chain's eigenvalues, not roots
of the rounded coefficients: at delta = Delta one sits within 1e-14 of
delta, which no polish of the coefficients can resolve.  One eigvalsh of
a (B, 4, 4) stack gives every chain root to eps ||H||; a root small against
||H|| (the dark root, the light-shifted root near -2 Omega_d^2 / delta)
is then Newton-polished on the closed-form quintic, where it is well
conditioned.  One kernel, estimate_stack, builds and solves every stack of
chains: the points of estimate_eigenvalues and regime_scan, and the CLI's
point with its array-drawn parameter sets, whose block eigenvalues
char_poly_from_eigenvalues turns into the char-poly oracle.  quintic_roots
is a coefficient-level utility for coefficients without a block.  The dark
root is picked here only, as EigenEstimate.exact_small: the regime-scan CSV
writes it, and full_vs_effective and the CLI's fullmodel predict from it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Iterable, Sequence

import numpy as np

from .fock import _hermitian_deviation
from .schemes import SchemeParams, _kerr_shift, _pp_chain_stack, _rel_err

__all__ = [
    "SecularCoefficients",
    "EigenEstimate",
    "ScanRow",
    "secular_coefficients",
    "char_poly_coefficients",
    "char_poly_from_eigenvalues",
    "lambda_small",
    "lambda_small_closed_form",
    "lambda_large",
    "quintic_roots",
    "estimate_eigenvalues",
    "estimate_stack",
    "regime_scan",
    "scan_to_csv_rows",
]

_NEWTON_STEPS = 3  # from a start within the eps-scale error bound, enough to converge
_RESIDUAL_TOL = 1e-8  # quintic_roots refuses a root with |p(root)| above this * scale
_BOOLS = {bool, np.bool_}


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


def _coefficient_stack(params: np.ndarray, n_s: np.ndarray, n_p: np.ndarray) -> np.ndarray:
    """(B, 5) closed-form coefficients a..e; params is (B, 5) in SchemeParams
    field order, n_s = n_sL + n_sR and n_p are (B,)."""
    big, delta, omega, xi_s, xi_p = np.asarray(params, dtype=float).T
    om2 = omega ** 2
    s = xi_s ** 2 * n_s
    p = xi_p ** 2 * n_p
    a = 2 * delta + big
    b = -delta ** 2 - 2 * delta * big + s + 2 * om2 + p
    c = -(delta + big) * s + delta ** 2 * big - 2 * (delta + big) * om2 - 2 * delta * p
    d = delta * big * (s + 2 * om2) - s * p + delta ** 2 * p
    e = delta * s * p
    return np.stack([a, b, c, d, e], axis=1)


def _bad_counts(counts: np.ndarray) -> np.ndarray:
    """Indices of the columns of the (k, B) photon numbers that hold one other
    than a nonnegative integer (integral floats pass)."""
    c = np.asarray(counts, dtype=float)
    return np.flatnonzero(~(np.isfinite(c) & (c >= 0) & (np.floor(c) == c)).all(0))


def _bools_as_nan(counts: Sequence) -> Sequence:
    """Photon numbers with each bool (Python or numpy) as NaN, which
    _bad_counts refuses: float() would read it as 0 or 1."""
    numeric = isinstance(counts, np.ndarray) and counts.dtype != object
    if _BOOLS.isdisjoint({counts.dtype.type} if numeric else map(type, counts)):
        return counts
    return [math.nan if type(n) in _BOOLS else n for n in counts]


def _point_arrays(points: Sequence[tuple[SchemeParams, int, int, int]]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, 5) parameter rows, n_s and n_p of (params, n_sL, n_sR, n_p) points;
    ValueError names the first point whose photon numbers are not integers >= 0."""
    counts = _bools_as_nan([n for point in points for n in point[1:]])
    counts = np.array(counts, dtype=float).reshape(-1, 3)
    bad = _bad_counts(counts.T)
    if bad.size:
        raise ValueError(f"secular point {points[bad[0]]}: photon numbers must be integers >= 0")
    rows = np.array([(p.delta_probe, p.delta_two, p.omega_d, p.xi_s, p.xi_p)
                     for p, *_ in points], dtype=float).reshape(-1, 5)
    return rows, counts[:, 0] + counts[:, 1], counts[:, 2]


def secular_coefficients(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                         ) -> SecularCoefficients:
    """Closed-form quintic coefficients.

    The circular occupations enter only through n_s = n_sL + n_sR, which is
    what makes the scheme polarization-insensitive at this level: any
    single-photon polarization state is an eigenstate of n_sL + n_sR with
    eigenvalue 1, so the same numbers apply.
    """
    arrays = _point_arrays([(params, n_sl, n_sr, n_p)])
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name just below
        row = _coefficient_stack(*arrays)[0]
    if not np.isfinite(row).all():
        raise ValueError(f"secular point {(params, n_sl, n_sr, n_p)}: the coefficients overflow")
    return SecularCoefficients(*row.tolist())


def char_poly_coefficients(matrix: np.ndarray) -> SecularCoefficients:
    """Exact characteristic-polynomial coefficients of a Hermitian 5x5.

    Computed from the eigenvalues through elementary symmetric polynomials
    and rearranged to the -l^5 + a l^4 + ... + e convention, so this is an
    oracle independent of the closed-form algebra.
    """
    m = np.asarray(matrix)
    if m.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    return SecularCoefficients(*char_poly_from_eigenvalues(_hermitian_eigvalsh(m[None]))
                               .tolist()[0])


def _hermitian_eigvalsh(matrices: np.ndarray) -> np.ndarray:
    """eigvalsh of a (B, n, n) stack; ValueError unless every matrix is
    Hermitian to 1e-12 of max(1, its largest entry), which refuses NaN."""
    scale = np.maximum(1.0, np.max(np.abs(matrices), axis=(1, 2)))
    if not np.all(_hermitian_deviation(matrices) <= 1e-12 * scale):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(matrices)


def char_poly_from_eigenvalues(w: np.ndarray) -> np.ndarray:
    """(B, 5) coefficients a..e of the quintics whose roots are the rows of w
    (B, 5), in the -l^5 + a l^4 + ... + e convention: np.poly's recurrence on
    all rows at once, so each row equals -np.poly(row)[1:] bit for bit."""
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[1] != 5:
        raise ValueError(f"expected (B, 5) eigenvalues, got shape {w.shape}")
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
    return _kerr_shift(params, n_sl + n_sr, n_p)


def lambda_large(coeffs: SecularCoefficients) -> float:
    """Largest-eigenvalue estimate: the nonzero root of -l^5 + a l^4 = 0, i.e. a.

    a equals the trace, so the estimate is only meaningful when a single
    root dominates the trace (delta << Delta); estimate_eigenvalues flags
    that via trace_dominated.
    """
    return coeffs.a


def quintic_roots(coeffs: SecularCoefficients) -> np.ndarray:
    """All five roots of the quintic from its coefficients alone, sorted ascending.

    A coefficient-level utility: the library's own secular roots come from
    the Hermitian block (see estimate_eigenvalues), which resolves the
    clustered roots that rounded coefficients cannot.  Here the roots are
    companion-matrix eigenvalues; coefficients coming from a Hermitian
    matrix have five real roots, and clustered roots (e.g. two levels
    parked at the same detuning) make the companion eigenvalues wander off
    the real axis by O(eps^(1/3)) of the root magnitude, so small imaginary
    residue is dropped.  Every simple root, one whose Newton rounding bound
    is below half its distance to the other roots, is Newton-polished on
    the polynomial; a cluster keeps its real parts.  Imaginary residue
    beyond the clustering scale signals genuinely complex roots, i.e.
    coefficients that never came from a Hermitian matrix, and raises; so
    does a final residual |p(root)| above 1e-8 * scale (_RESIDUAL_TOL) with
    scale = max|coefficient| * max(1, |root|)^5.
    """
    poly = np.array([-1.0, *coeffs.as_tuple()])
    z = np.roots(poly)
    max_imag = float(np.max(np.abs(z.imag)))
    if max_imag > 1e-3 * max(1.0, float(np.max(np.abs(z)))):
        raise ValueError(f"complex root residue {max_imag:g}: "
                         "coefficients not from a Hermitian matrix?")
    roots = np.sort(z.real)
    dpoly = np.polyder(poly)
    gap = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(5, np.inf))
    bound = 10 * np.finfo(float).eps * _horner(np.abs(poly), np.abs(roots))
    simple = bound < 0.5 * gap.min(axis=1) * np.abs(_horner(dpoly, roots))
    roots = np.sort(_newton(poly, dpoly, roots, simple))
    p_val = np.abs(_horner(poly, roots))
    scale = np.max(np.abs(poly)) * np.maximum(1.0, np.abs(roots)) ** 5
    too_large = np.flatnonzero(p_val > _RESIDUAL_TOL * scale)
    if too_large.size:
        k = too_large[0]
        raise ValueError(f"root residual |p({roots[k]:g})| = {p_val[k]:g} "
                         f"exceeds {_RESIDUAL_TOL:g} * scale")
    return roots


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials (coefficients on the last axis, highest power first) at z.

    The arithmetic is np.polyval's, so each value matches it bit for bit:
    its first step, 0 * z + c_0, is exactly c_0 for finite z.
    """
    y = coeffs[..., :1].astype(np.result_type(coeffs, z))
    for k in range(1, coeffs.shape[-1]):
        y = y * z + coeffs[..., k:k + 1]
    return y


def _newton(poly: np.ndarray, dpoly: np.ndarray, z: np.ndarray, refine: np.ndarray
            ) -> np.ndarray:
    """_NEWTON_STEPS Newton steps on the polynomials poly (derivatives dpoly)
    from z, taken only where refine holds and the slope is nonzero."""
    for _ in range(_NEWTON_STEPS):
        slope = _horner(dpoly, z)
        z = z - np.divide(_horner(poly, z), slope, out=np.zeros_like(z),
                          where=refine & (slope != 0))
    return z


def _block_roots(w: np.ndarray, coeffs: np.ndarray, delta: np.ndarray,
                 singular: np.ndarray) -> np.ndarray:
    """Sorted real roots (B, 5) of the quintics (delta - lambda) Q(lambda):
    delta, and the roots of Q from w, the eigvalsh eigenvalues (B, 4) of Q's chains.

    eigvalsh gives each root to about eps ||H||, and Newton on the
    closed-form quintic p to about eps sum_k |c_k| |lambda|^k / |p'(lambda)|.
    A chain root is refined, by at most _NEWTON_STEPS Newton steps from its
    eigvalsh value, exactly where the second bound is the smaller: roots
    small against ||H|| and simple, among them the dark root; a root next
    to delta has p' ~ 0 and keeps it.  Where Q(0) = s p = 0 (`singular`: an
    end leg of the chain is 0) the chain root of least magnitude is 0.
    """
    poly = np.concatenate([np.full((len(w), 1), -1.0), coeffs], axis=1)
    dpoly = poly[:, :-1] * np.arange(5, 0, -1)
    norm = np.max(np.abs(w), axis=1, keepdims=True)
    refine = _horner(np.abs(poly), np.abs(w)) < np.abs(_horner(dpoly, w)) * norm
    lam = _newton(poly, dpoly, w, refine)
    zero = np.flatnonzero(singular)
    lam[zero, np.argmin(np.abs(lam[zero]), axis=1)] = 0.0
    return np.sort(np.concatenate([lam, delta[:, None]], axis=1), axis=1)


@dataclass(frozen=True)
class EigenEstimate:
    """Perturbative estimates against the exact quintic roots.

    exact_small, the package's one pick of the dark root, is the root of
    least magnitude; of roots within a relative 1e-12 of it, the first
    (ascending) with the sign of -e/d, else the first.  lambda_small and the
    reduced closed form (a diagnostic) are measured against it, lambda_large
    against the largest root; trace_dominated records whether that root
    actually carries the trace, outside of which lambda_large is not
    meaningful.
    """

    lambda_small: float
    lambda_large: float
    exact_roots: tuple[float, float, float, float, float]
    exact_small: float
    rel_err_small: float
    rel_err_large: float
    lambda_small_reduced: float
    rel_err_small_reduced: float
    trace_dominated: bool


def _smallest_by_magnitude(roots: np.ndarray, sign_hint: float) -> float:
    mags = np.abs(roots)
    ties = roots[mags <= mags.min() * (1 + 1e-12)]
    signed = ties[np.sign(ties) == np.sign(sign_hint)]
    return float(signed[0] if len(signed) else ties[0])


def estimate_eigenvalues(params: SchemeParams, n_sl: int, n_sr: int, n_p: int
                         ) -> EigenEstimate:
    """Bundle the lambda_s / lambda_l estimates with exact roots and errors."""
    return estimate_stack([(params, n_sl, n_sr, n_p)])[0][0]


def estimate_stack(points: Sequence[tuple[SchemeParams, int, int, int]], rows: np.ndarray = (),
                   n_s: np.ndarray = (), n_p: np.ndarray = ()
                   ) -> tuple[list[EigenEstimate], np.ndarray, np.ndarray]:
    """estimate_eigenvalues at every point, and the (B, 5) closed-form
    coefficients and block eigenvalues of the points followed by any extra
    rows ((k, 5) in SchemeParams field order, with n_s = n_sL + n_sR and
    n_p).  A row's block eigenvalues are its even chain's and delta, sorted.
    One stack and one eigvalsh serve them all, each row as from a stack of
    its own; only the points' roots are Newton-polished.  ValueError refuses
    extra rows without one n_s and one n_p each, names the first whose n_s
    or n_p is not a nonnegative integer (before any square root is taken),
    and the first row that overflows."""
    params, ns, nps = _point_arrays(points)
    if len(rows):
        k = len(rows)
        if np.shape(rows) != (k, 5) or not np.shape(n_s) == np.shape(n_p) == (k,):
            raise ValueError(f"extra rows: expected (k, 5) rows with k n_s and k n_p, got shapes "
                             f"{np.shape(rows)}, {np.shape(n_s)} and {np.shape(n_p)}")
        bad = _bad_counts([_bools_as_nan(n_s), _bools_as_nan(n_p)])
        if bad.size:
            j = bad[0]
            raise ValueError(f"extra row {j}: n_s = {n_s[j]} and n_p = {n_p[j]} "
                             "must be integers >= 0")
        params, ns, nps = (np.concatenate(pair) for pair in
                           ((params, rows), (ns, n_s), (nps, n_p)))
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name just below
        coeffs = _coefficient_stack(params, ns, nps)
        chains = _pp_chain_stack(params * [1.0, 1.0, math.sqrt(2), 1.0, 1.0], ns, nps)
    bad = np.flatnonzero(~(np.isfinite(coeffs).all(1) & np.isfinite(chains).all((1, 2))))
    if bad.size:
        j = bad[0]
        raise ValueError(f"secular point {points[j] if j < len(points) else params[j].tolist()}"
                         ": the closed-form coefficients or chain entries overflow")
    w = np.linalg.eigvalsh(chains)
    k = len(points)
    delta = params[:, 1]
    singular = (chains[:k, 0, 1] == 0) | (chains[:k, 2, 3] == 0)
    roots = _block_roots(w[:k], coeffs[:k], delta[:k], singular)
    estimates = [_estimate(*point, SecularCoefficients(*c), r)
                 for point, c, r in zip(points, coeffs[:k].tolist(), roots)]
    return estimates, coeffs, np.sort(np.concatenate([w, delta[:, None]], axis=1), axis=1)


def _estimate(params: SchemeParams, n_sl: int, n_sr: int, n_p: int,
              coeffs: SecularCoefficients, roots: np.ndarray) -> EigenEstimate:
    lam_s = lambda_small(coeffs) if coeffs.d != 0 else 0.0
    lam_l = lambda_large(coeffs)
    exact_small = _smallest_by_magnitude(roots, lam_s)
    exact_large = float(roots[-1])
    try:
        reduced = lambda_small_closed_form(params, n_sl, n_sr, n_p)
    except ValueError:
        reduced = math.nan  # undefined at Delta = 0 or Omega_d = 0, or where it overflows
    dominated = abs(exact_large) >= 0.9 * abs(coeffs.a) if coeffs.a != 0 else False
    return EigenEstimate(
        lambda_small=lam_s, lambda_large=lam_l, exact_roots=tuple(float(r) for r in roots),
        exact_small=exact_small, rel_err_small=_rel_err(lam_s, exact_small),
        rel_err_large=_rel_err(lam_l, exact_large), lambda_small_reduced=reduced,
        rel_err_small_reduced=_rel_err(reduced, exact_small), trace_dominated=bool(dominated))


@dataclass(frozen=True)
class ScanRow:
    params: SchemeParams
    n_sl: int
    n_sr: int
    n_p: int
    estimate: EigenEstimate


def regime_scan(points: Iterable[tuple[SchemeParams, int, int, int]]) -> list[ScanRow]:
    """Evaluate estimate_eigenvalues over a parameter grid.

    Each point is (params, n_sL, n_sR, n_p).  The blocks of all points go
    through one stacked eigvalsh and one batched Newton polish; each row
    equals estimate_eigenvalues at its point.
    """
    points = list(points)
    if not points:
        raise ValueError("regime_scan needs a nonempty grid")
    return [ScanRow(*point, est) for point, est in zip(points, estimate_stack(points)[0])]


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
        cells = (
            row.params.delta_probe, row.params.delta_two, row.params.omega_d,
            row.params.xi_s, row.params.xi_p, row.n_sl, row.n_sr, row.n_p,
            est.lambda_small, est.exact_small, est.rel_err_small,
            est.lambda_large, est.exact_roots[-1], est.rel_err_large,
        )
        out.append(tuple(repr(c) for c in cells))
    return out
