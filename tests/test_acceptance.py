"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from ppqnd import (
    PolarizationQubit,
    PolUnitary,
    SchemeParams,
    backaction_product,
    build_lambda_hamiltonian,
    build_pp_block_matrix,
    char_poly_coefficients,
    check_invariance,
    estimate_eigenvalues,
    evolve_qnd,
    full_vs_effective,
    lambda_dark_state,
    lr_to_hv,
    polarization_dephasing,
    ppqnd_hamiltonian,
    quintic_roots,
    secular_coefficients,
)
from ppqnd.cli import COMMANDS, main

RATIO10_POINT = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.1, xi_p=1.0)
RATIO100_POINT = SchemeParams(delta_probe=1e4, delta_two=1e4, omega_d=1e2, xi_s=0.01, xi_p=1.0)
TRACE_DOMINATED_RATIO10 = SchemeParams(delta_probe=1e6, delta_two=1e3, omega_d=1e2,
                                       xi_s=1.0, xi_p=10.0)


def report(name, ok, detail, started):
    elapsed = time.perf_counter() - started
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} ({elapsed:.2f} s)")
    assert ok, f"{name}: {detail}"
    return elapsed


def test_criterion_1_secular_coefficient_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    draws = 10_000
    worst = 0.0
    for _ in range(draws):
        omega = rng.uniform(10.0, 100.0)
        xi_p = omega / rng.uniform(10.0, 100.0)
        xi_s = xi_p / rng.uniform(10.0, 100.0)
        params = SchemeParams(omega * rng.uniform(10.0, 1000.0),
                              omega * rng.uniform(10.0, 1000.0), omega, xi_s, xi_p)
        occ = [int(v) for v in rng.integers(1, 5, 3)]
        closed = secular_coefficients(params, *occ).as_tuple()
        oracle = char_poly_coefficients(build_pp_block_matrix(params, *occ)).as_tuple()
        for x, y in zip(closed, oracle):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report("criterion 1 (secular coefficient identity)", ok,
           f"max rel err {worst:.2e} over {draws} draws, budget 1e-9", started)


def test_criterion_2_perturbative_eigenvalues():
    started = time.perf_counter()
    est10 = estimate_eigenvalues(RATIO10_POINT, 1, 0, 1)
    est100 = estimate_eigenvalues(RATIO100_POINT, 1, 0, 1)
    est_large = estimate_eigenvalues(TRACE_DOMINATED_RATIO10, 1, 0, 1)
    assert TRACE_DOMINATED_RATIO10.regime_ok(10.0)
    ok = (est10.rel_err_small <= 0.05
          and est100.rel_err_small <= 1e-3
          and est_large.trace_dominated
          and est_large.rel_err_large <= 0.01)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report("criterion 2 (perturbative eigenvalues)", ok,
           f"lambda_s err ratio10 {est10.rel_err_small:.2e} (<=5%), "
           f"ratio100 {est100.rel_err_small:.2e} (<=0.1%), "
           f"lambda_l err {est_large.rel_err_large:.2e} (<=1%)", started)


def test_criterion_3_qnd_evolution():
    started = time.perf_counter()
    worst_fid_gap = 0.0
    worst_drift = 0.0
    for alpha, n_s, chi_t in ((1.0, 1, -0.1), (2.5, 0, 0.5), (2.5, 2, -math.pi),
                              (5.0, 1, math.pi), (5.0, 3, -1.0)):
        res = evolve_qnd(n_s, alpha, chi_t, 1.0)
        worst_fid_gap = max(worst_fid_gap, 1.0 - res.probe_fidelity)
        space = res.state.space
        dist = np.zeros(space.mode_cutoffs[0])
        for i, amp in enumerate(res.state.amplitudes):
            _, (ns, _) = space.unpack(i)
            dist[ns] += abs(amp) ** 2
        expected = np.zeros_like(dist)
        expected[n_s] = 1.0
        worst_drift = max(worst_drift, float(np.max(np.abs(dist - expected))))
    elapsed = time.perf_counter() - started
    ok = worst_fid_gap <= 1e-9 and worst_drift <= 1e-12 and elapsed < 5.0
    report("criterion 3 (QND evolution)", ok,
           f"probe fidelity gap {worst_fid_gap:.2e} (<=1e-9), "
           f"signal drift {worst_drift:.2e} (<=1e-12)", started)


def test_criterion_4_polarization_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_fid = 0.0
    worst_purity = 0.0
    for _ in range(100):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        qubit = PolarizationQubit.normalized(c[0], c[1])
        chi_t = rng.uniform(0.0, 10 * math.pi)
        res = polarization_dephasing(qubit, 2.0, -1.0, chi_t)
        worst_fid = max(worst_fid, abs(res.fidelity - 1.0))
        worst_purity = max(worst_purity, abs(res.purity - 1.0))

    # discriminating control: the polarization-sensitive interaction must
    # dephase a superposition down to the analytic coherence envelope
    alpha, chi, t = 2.0, -0.5, 2.0
    control = polarization_dephasing(PolarizationQubit.horizontal(), alpha, chi, t,
                                     sensitive=True)
    envelope = math.exp(-abs(alpha) ** 2 * (1 - math.cos(chi * t)))
    control_ok = (abs(control.coherence - envelope) <= 1e-6
                  and control.fidelity <= 0.5 * (1 + envelope) + 1e-6
                  and control.fidelity < 0.99)
    elapsed = time.perf_counter() - started
    ok = worst_fid <= 1e-10 and worst_purity <= 1e-10 and control_ok and elapsed < 30.0
    report("criterion 4 (polarization preservation)", ok,
           f"fidelity dev {worst_fid:.2e} (<=1e-10) over 100 qubits, control coherence "
           f"{control.coherence:.4f} vs envelope {envelope:.4f}", started)


def test_criterion_5_basis_invariance():
    started = time.perf_counter()
    h = ppqnd_hamiltonian(-1e-3, 4, 4, 4)
    rng = np.random.default_rng(5)
    devs = [check_invariance(h, lr_to_hv(), (0, 1))]
    for _ in range(100):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = PolUnitary(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        devs.append(check_invariance(h, u, (0, 1)))
    worst = max(devs)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    report("criterion 5 (basis invariance)", ok,
           f"max |U H U+ - H| = {worst:.2e} over LR->HV + 100 random unitaries (<=1e-10)",
           started)


def test_criterion_6_backaction_product():
    started = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 2.0, 5.0):
        rep = backaction_product(alpha)
        worst = max(worst, abs(rep.product - 0.25))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 1.0
    report("criterion 6 (back-action product)", ok,
           f"max |product - 1/4| = {worst:.2e} for |alpha| in (1, 2, 5) (<=1e-6)", started)


def test_criterion_7_full_vs_effective():
    started = time.perf_counter()
    worst_err = 0.0
    worst_leak = 0.0
    for n_p in (1, 2, 3):
        roots = quintic_roots(secular_coefficients(RATIO100_POINT, 1, 0, n_p))
        lam = roots[np.argmin(np.abs(roots))]
        t = 0.1 / abs(lam)
        res = full_vs_effective(RATIO100_POINT, PolarizationQubit.horizontal(), t=t, n_p=n_p)
        worst_err = max(worst_err, res.rel_err_secular)
        worst_leak = max(worst_leak, res.atomic_leakage)

    t = 0.1 / abs(quintic_roots(secular_coefficients(RATIO100_POINT, 1, 0, 1))[2])
    res_l = full_vs_effective(RATIO100_POINT, PolarizationQubit.left(), t=t, n_p=1)
    res_r = full_vs_effective(RATIO100_POINT, PolarizationQubit.right(), t=t, n_p=1)
    phase_gap = abs(res_l.measured_phase - res_r.measured_phase)

    elapsed = time.perf_counter() - started
    ok = worst_err <= 0.05 and worst_leak <= 1e-3 and phase_gap <= 1e-12 and elapsed < 60.0
    report("criterion 7 (full vs effective dynamics)", ok,
           f"phase rel err {worst_err:.2e} (<=5%), atomic leakage {worst_leak:.2e} "
           f"(<=1e-3), |L>-|R> phase gap {phase_gap:.2e} (<=1e-12)", started)


def test_criterion_8_cpt_dark_state():
    started = time.perf_counter()
    params = SchemeParams(delta_probe=0.0, delta_two=5.0, omega_d=2.0, xi_s=0.7, xi_p=0.0)
    cutoff = 5
    h = build_lambda_hamiltonian(params, cutoff)
    worst_lambda = 0.0
    worst_overlap_gap = 0.0
    for n_s in (1, 2, 3):
        idx = [h.space.index_of(0, [n_s]), h.space.index_of(1, [n_s - 1]),
               h.space.index_of(2, [n_s - 1])]
        block = h.matrix[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(block)
        k = int(np.argmin(np.abs(w)))
        worst_lambda = max(worst_lambda, abs(w[k]))
        dark = lambda_dark_state(params, n_s, cutoff).amplitudes[idx]
        overlap = abs(np.vdot(dark, v[:, k]))  # global phase dropped
        worst_overlap_gap = max(worst_overlap_gap, 1.0 - overlap)
    elapsed = time.perf_counter() - started
    ok = worst_lambda <= 1e-12 and worst_overlap_gap <= 1e-10 and elapsed < 1.0
    report("criterion 8 (CPT dark state)", ok,
           f"|lambda| = {worst_lambda:.2e} (<=1e-12), overlap gap {worst_overlap_gap:.2e} "
           f"(<=1e-10) for n_s in (1, 2, 3)", started)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "secular_fast.json"
    config.write_text(json.dumps({"draws": 300}))
    mismatched = []
    for command in COMMANDS:
        args = ["--seed", "11"]
        if command == "secular":
            args += ["--config", str(config)]
        out_a = tmp_path / f"{command}_a.json"
        out_b = tmp_path / f"{command}_b.json"
        main([command, *args, "--out", str(out_a)])
        main([command, *args, "--out", str(out_b)])
        if out_a.read_bytes() != out_b.read_bytes():
            mismatched.append(command)
    elapsed = time.perf_counter() - started
    ok = not mismatched
    report("criterion 9 (CLI determinism)", ok,
           f"byte-identical reruns for all {len(COMMANDS)} commands"
           + (f"; mismatches: {mismatched}" if mismatched else ""), started)
