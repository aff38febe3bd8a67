"""Reproducible experiment runner.

Every analysis in the package is exposed as a subcommand that reads a flat
JSON config, runs deterministically under its seed, and emits a JSON (or
CSV) record.  Exit codes: 0 success, 1 usage/config error, 2 tolerance
failure.

Complex numbers enter configs as [magnitude, phase_radians] pairs.  Floats
are emitted through repr, which round-trips exactly.  Wall-clock time goes
to stderr so that reruns with the same config and seed are byte-identical
on stdout and in --out files.  The PPQND_TOL environment variable, when
set, overrides each command's primary tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Sequence

import numpy as np

from . import __version__
from .polarization import PolarizationQubit, PolUnitary, check_invariance, lr_to_hv
from .qnd import (
    EVOLUTION_SIGN,
    QUADRATURE_CONVENTION,
    backaction_product,
    discrimination_error,
    evolve_qnd,
    full_vs_effective,
    polarization_dephasing,
)
from .schemes import (
    SchemeParams,
    build_pp_block_matrix,
    ppqnd_hamiltonian,
    sensitive_qnd_hamiltonian,
)
from .secular import char_poly_coefficients, estimate_eigenvalues, secular_coefficients

COMMANDS = ("secular", "preserve", "qnd", "invariance", "backaction", "discriminate", "fullmodel")


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


def _mag_phase_to_complex(value: Any, name: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"field '{name}': expected [magnitude, phase_radians], got {value!r}")
    return value[0] * cmath.exp(1j * value[1])


_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "delta_probe": float, "delta_two": float, "omega_d": float,
    "xi_s": float, "xi_p": float,
    "n_sl": int, "n_sr": int, "n_p": int, "n_s": int,
    "draws": int, "trials": int, "unitary_count": int,
    "cutoff_s": int, "cutoff_p": int,
    "seed": int,
    "chi": float, "time": float, "target_phase": float,
    "theta": float, "alpha": float, "tolerance": float,
    "alpha_p": list, "alphas": list, "qubits": list, "times": list,
    "format": str, "out": str,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; None means "not given"."""

    delta_probe: float | None = None
    delta_two: float | None = None
    omega_d: float | None = None
    xi_s: float | None = None
    xi_p: float | None = None
    n_sl: int | None = None
    n_sr: int | None = None
    n_p: int | None = None
    n_s: int | None = None
    draws: int | None = None
    trials: int | None = None
    unitary_count: int | None = None
    cutoff_s: int | None = None
    cutoff_p: int | None = None
    seed: int | None = None
    chi: float | None = None
    time: float | None = None
    target_phase: float | None = None
    theta: float | None = None
    alpha: float | None = None
    tolerance: float | None = None
    alpha_p: list | None = None
    alphas: list | None = None
    qubits: list | None = None
    times: list | None = None
    format: str | None = None
    out: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        values: dict[str, Any] = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown field '{key}'")
            if value is None:
                raise ConfigError(f"field '{key}' is null; remove it or supply a value")
            want = _FIELD_TYPES[key]
            if want is float:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"field '{key}': expected a number, got {value!r}")
                value = float(value)
            elif want is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"field '{key}': expected an integer, got {value!r}")
            elif want is list:
                if not isinstance(value, list):
                    raise ConfigError(f"field '{key}': expected a list, got {value!r}")
            elif want is str:
                if not isinstance(value, str):
                    raise ConfigError(f"field '{key}': expected a string, got {value!r}")
            values[key] = value
        return ExperimentConfig(**values)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"missing required field '{name}'")

    def scheme_params(self) -> SchemeParams:
        self.require("delta_probe", "delta_two", "omega_d", "xi_s", "xi_p")
        try:
            return SchemeParams(self.delta_probe, self.delta_two, self.omega_d,
                                self.xi_s, self.xi_p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def qubit_list(self) -> list[PolarizationQubit]:
        if self.qubits is None:
            raise ConfigError("missing required field 'qubits'")
        if not self.qubits:
            raise ConfigError("field 'qubits': empty qubit list")
        out = []
        for k, pair in enumerate(self.qubits):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"field 'qubits'[{k}]: expected [c_L, c_R] magnitude/phase pairs")
            c_l = _mag_phase_to_complex(pair[0], f"qubits[{k}][0]")
            c_r = _mag_phase_to_complex(pair[1], f"qubits[{k}][1]")
            norm2 = abs(c_l) ** 2 + abs(c_r) ** 2
            if abs(norm2 - 1.0) > 1e-9:
                raise ConfigError(f"field 'qubits'[{k}]: |c_L|^2 + |c_R|^2 = {norm2!r}, not 1")
            out.append(PolarizationQubit.normalized(c_l, c_r))
        return out


def _tolerance(config: ExperimentConfig, default: float) -> float:
    env = os.environ.get("PPQND_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ConfigError(f"PPQND_TOL is not a number: {env!r}") from exc
    if config.tolerance is not None:
        return config.tolerance
    return default


_SQ2 = 1 / math.sqrt(2)

_DEFAULTS: dict[str, dict] = {
    "secular": {
        "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 1e2, "xi_s": 0.1, "xi_p": 1.0,
        "n_sl": 1, "n_sr": 1, "n_p": 1, "draws": 1000, "seed": 0,
    },
    "preserve": {
        "alpha_p": [2.0, 0.0], "chi": -0.1, "times": [1.0, 2.0, 5.0, 10.0], "seed": 0,
        "qubits": [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
            [[_SQ2, 0.0], [_SQ2, 0.0]],
            [[_SQ2, 0.0], [_SQ2, math.pi]],
            [[_SQ2, 0.0], [_SQ2, math.pi / 2]],
            [[_SQ2, 0.0], [_SQ2, -math.pi / 2]],
        ],
    },
    "qnd": {"n_s": 1, "alpha_p": [2.0, 0.0], "chi": -0.01, "time": 10.0, "seed": 0},
    "invariance": {"chi": -1e-3, "cutoff_s": 4, "cutoff_p": 4, "unitary_count": 100, "seed": 0},
    "backaction": {"alphas": [[1.0, 0.0], [2.0, 0.0], [5.0, 0.0]], "seed": 0},
    "discriminate": {"alpha": 4.0, "theta": 0.25, "trials": 20000, "seed": 0},
    "fullmodel": {
        "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 1e2, "xi_s": 0.01, "xi_p": 1.0,
        "n_p": 1, "target_phase": 0.1, "seed": 0,
        "qubits": [[[_SQ2, 0.0], [_SQ2, 0.0]]],
    },
}


def _effective_config(command: str, raw: dict) -> ExperimentConfig:
    merged = dict(_DEFAULTS[command])
    parsed = ExperimentConfig.from_dict(raw)  # validates before merging
    merged.update(parsed.to_dict())
    return ExperimentConfig.from_dict(merged)


def _record(command: str, config: ExperimentConfig, results: dict, rows: list | None = None) -> dict:
    echo = config.to_dict()
    echo.pop("out", None)     # delivery options, not experiment inputs:
    echo.pop("format", None)  # the record must not depend on the sink
    return {
        "command": command,
        "config": echo,
        "conventions": {
            "evolution_sign": EVOLUTION_SIGN,
            "quadrature": QUADRATURE_CONVENTION,
            "complex_encoding": "[magnitude, phase_radians]",
        },
        "library_version": __version__,
        "results": results,
        "rows": rows if rows is not None else [],
    }


def _draw_hierarchy_params(rng: np.random.Generator) -> SchemeParams:
    omega = rng.uniform(10.0, 100.0)
    xi_p = omega / rng.uniform(10.0, 100.0)
    xi_s = xi_p / rng.uniform(10.0, 100.0)
    delta = omega * rng.uniform(10.0, 1000.0)
    big = omega * rng.uniform(10.0, 1000.0)
    return SchemeParams(big, delta, omega, xi_s, xi_p)


def cmd_secular(config: ExperimentConfig) -> tuple[dict, list, int]:
    params = config.scheme_params()
    config.require("n_sl", "n_sr", "n_p")
    tol = _tolerance(config, 1e-9)
    lam_tol = 0.05
    rng = np.random.default_rng(config.seed)

    names = ("a", "b", "c", "d", "e")
    rows = [("coefficient", "closed_form", "char_poly", "rel_err")]
    point_ok = True
    closed = secular_coefficients(params, config.n_sl, config.n_sr, config.n_p)
    if config.n_sl >= 1 and config.n_sr >= 1:
        oracle = char_poly_coefficients(
            build_pp_block_matrix(params, config.n_sl, config.n_sr, config.n_p).matrix)
        for name, x, y in zip(names, closed.as_tuple(), oracle.as_tuple()):
            rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
            point_ok &= rel <= tol
            rows.append((name, repr(x), repr(y), repr(rel)))

    max_rel = 0.0
    for _ in range(config.draws):
        p = _draw_hierarchy_params(rng)
        occ = rng.integers(1, 5, size=3)
        cf = secular_coefficients(p, int(occ[0]), int(occ[1]), int(occ[2]))
        oc = char_poly_coefficients(build_pp_block_matrix(p, int(occ[0]), int(occ[1]), int(occ[2])).matrix)
        for x, y in zip(cf.as_tuple(), oc.as_tuple()):
            max_rel = max(max_rel, abs(x - y) / max(abs(x), abs(y), 1e-300))

    est = estimate_eigenvalues(params, config.n_sl, config.n_sr, config.n_p)
    results = {
        "coefficients_closed_form": dict(zip(names, closed.as_tuple())),
        "max_rel_err_over_draws": max_rel,
        "draws": config.draws,
        "lambda_small": est.lambda_small,
        "lambda_small_reduced": est.lambda_small_reduced,
        "lambda_large": est.lambda_large,
        "exact_roots": list(est.exact_roots),
        "rel_err_small": est.rel_err_small,
        "rel_err_large": est.rel_err_large,
        "trace_dominated": est.trace_dominated,
        "tolerance": tol,
    }
    ok = point_ok and max_rel <= tol and est.rel_err_small <= lam_tol
    return _record("secular", config, results, rows), rows, (0 if ok else 2)


def cmd_preserve(config: ExperimentConfig, sensitive: bool = False) -> tuple[dict, list, int]:
    qubits = config.qubit_list()
    config.require("alpha_p", "chi", "times")
    alpha = _mag_phase_to_complex(config.alpha_p, "alpha_p")
    tol = _tolerance(config, 1e-8)
    rows = [("qubit_index", "time", "fidelity", "purity", "coherence")]
    min_fid = 1.0
    for k, qubit in enumerate(qubits):
        for t in config.times:
            res = polarization_dephasing(qubit, alpha, config.chi, float(t), sensitive=sensitive)
            min_fid = min(min_fid, res.fidelity)
            rows.append((k, repr(float(t)), repr(res.fidelity), repr(res.purity), repr(res.coherence)))
    results = {
        "sensitive": sensitive,
        "min_fidelity": min_fid,
        "tolerance": tol,
        "n_qubits": len(qubits),
    }
    ok = sensitive or (min_fid >= 1.0 - tol)
    return _record("preserve", config, results, rows), rows, (0 if ok else 2)


def cmd_qnd(config: ExperimentConfig) -> tuple[dict, list, int]:
    config.require("n_s", "alpha_p", "chi", "time")
    alpha = _mag_phase_to_complex(config.alpha_p, "alpha_p")
    tol = _tolerance(config, 1e-9)
    res = evolve_qnd(config.n_s, alpha, config.chi, config.time, cutoff_p=config.cutoff_p)

    joint = res.state
    signal_dist = np.sum(np.abs(joint.amplitudes.reshape(joint.space.mode_cutoffs)) ** 2, axis=1)
    expected = np.zeros_like(signal_dist)
    expected[config.n_s] = 1.0
    drift = float(np.max(np.abs(signal_dist - expected)))

    results = {
        "phase_shift": res.readout.phase_shift,
        "expected_phase_shift": -config.chi * config.n_s * config.time,
        "inferred_n_s": res.readout.inferred_n_s,
        "quadrature_mean": res.readout.quadrature_mean,
        "quadrature_variance": res.readout.quadrature_variance,
        "probe_fidelity": res.probe_fidelity,
        "probe_fidelity_flipped": res.probe_fidelity_flipped,
        "probe_purity": res.probe_purity,
        "signal_distribution_drift": drift,
        "tolerance": tol,
    }
    ok = res.probe_fidelity >= 1.0 - tol and drift <= 1e-12
    return _record("qnd", config, results), [], (0 if ok else 2)


def _haar_unitary(rng: np.random.Generator) -> PolUnitary:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return PolUnitary(q)


def cmd_invariance(config: ExperimentConfig) -> tuple[dict, list, int]:
    config.require("chi", "cutoff_s", "cutoff_p", "unitary_count", "seed")
    tol = _tolerance(config, 1e-10)
    cs, cp = config.cutoff_s, config.cutoff_p
    h = ppqnd_hamiltonian(config.chi, cs, cs, cp)
    rng = np.random.default_rng(config.seed)

    devs = [check_invariance(h, lr_to_hv(), (0, 1))]
    for _ in range(config.unitary_count):
        devs.append(check_invariance(h, _haar_unitary(rng), (0, 1)))
    max_dev = max(devs)

    h_sens = sensitive_qnd_hamiltonian(config.chi, cs, cs, cp)
    control_dev = check_invariance(h_sens, lr_to_hv(), (0, 1))

    results = {
        "max_deviation": max_dev,
        "lr_to_hv_deviation": devs[0],
        "n_unitaries": config.unitary_count + 1,
        "sensitive_control_deviation": control_dev,
        "tolerance": tol,
    }
    return _record("invariance", config, results), [], (0 if max_dev <= tol else 2)


def cmd_backaction(config: ExperimentConfig) -> tuple[dict, list, int]:
    config.require("alphas")
    tol = _tolerance(config, 1e-6)
    rows = [("alpha_magnitude", "number_variance", "phase_variance", "product")]
    worst = 0.0
    for k, pair in enumerate(config.alphas):
        alpha = _mag_phase_to_complex(pair, f"alphas[{k}]")
        rep = backaction_product(alpha, cutoff=config.cutoff_p)
        worst = max(worst, abs(rep.product - 0.25))
        rows.append((repr(abs(alpha)), repr(rep.number_variance),
                     repr(rep.phase_variance), repr(rep.product)))
    results = {"benchmark": 0.25, "max_deviation_from_benchmark": worst, "tolerance": tol}
    return _record("backaction", config, results, rows), rows, (0 if worst <= tol else 2)


def cmd_discriminate(config: ExperimentConfig) -> tuple[dict, list, int]:
    config.require("alpha", "theta", "trials", "seed")
    res = discrimination_error(config.alpha, config.theta, config.trials, config.seed)
    results = {
        "mc_error": res.mc_error,
        "analytic_error": res.analytic_error,
        "std_error": res.std_error,
        "trials": res.trials,
        "seed": res.seed,
    }
    return _record("discriminate", config, results), [], 0


def cmd_fullmodel(config: ExperimentConfig) -> tuple[dict, list, int]:
    params = config.scheme_params()
    config.require("n_p", "qubits")
    qubits = config.qubit_list()
    tol = _tolerance(config, 0.05)
    leak_tol = 1e-3

    rows = [("qubit_index", "measured_phase", "predicted_phase_secular",
             "rel_err_secular", "rel_err_kerr", "atomic_leakage")]
    worst_err = 0.0
    worst_leak = 0.0
    for k, qubit in enumerate(qubits):
        if config.time is not None:
            t = config.time
        else:
            config.require("target_phase")
            est = estimate_eigenvalues(params, 1, 0, config.n_p)
            roots = np.asarray(est.exact_roots)
            lam = roots[np.argmin(np.abs(roots))]
            if lam == 0:
                raise ConfigError(
                    "target_phase unreachable: the dark-state eigenvalue is zero "
                    "(no cross-Kerr shift); give 'time' directly")
            t = config.target_phase / abs(lam)
        res = full_vs_effective(params, qubit, t=float(t), n_p=config.n_p)
        worst_err = max(worst_err, res.rel_err_secular)
        worst_leak = max(worst_leak, res.atomic_leakage)
        rows.append((k, repr(res.measured_phase), repr(res.predicted_phase_secular),
                     repr(res.rel_err_secular), repr(res.rel_err_kerr), repr(res.atomic_leakage)))
    results = {
        "max_rel_err_secular": worst_err,
        "max_atomic_leakage": worst_leak,
        "tolerance": tol,
        "leakage_tolerance": leak_tol,
        "regime_ok": params.regime_ok(),
    }
    ok = worst_err <= tol and worst_leak <= leak_tol
    return _record("fullmodel", config, results, rows), rows, (0 if ok else 2)


_RUNNERS = {
    "secular": cmd_secular,
    "preserve": cmd_preserve,
    "qnd": cmd_qnd,
    "invariance": cmd_invariance,
    "backaction": cmd_backaction,
    "discriminate": cmd_discriminate,
    "fullmodel": cmd_fullmodel,
}


def _emit(record: dict, rows: list, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(record, sort_keys=True, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        for row in rows:
            writer.writerow(row)
    else:
        writer.writerow(("key", "value"))
        for key in sorted(record["results"]):
            writer.writerow((key, repr(record["results"][key])))
    return buf.getvalue().encode()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppqnd",
        description="Cross-Kerr QND photodetection experiments: secular analysis, "
                    "polarization preservation, homodyne readout, back-action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a flat JSON config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        if name == "preserve":
            p.add_argument("--sensitive", action="store_true",
                           help="run the polarization-sensitive control interaction")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        raw: dict = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
        if args.seed is not None:
            raw = {**raw, "seed": args.seed}
        if args.out is not None:
            raw = {**raw, "out": args.out}
        if args.format is not None:
            raw = {**raw, "format": args.format}
        config = _effective_config(args.command, raw)

        if args.command == "preserve":
            record, rows, code = cmd_preserve(config, sensitive=args.sensitive)
        else:
            record, rows, code = _RUNNERS[args.command](config)
    except (ConfigError, ValueError) as exc:  # library rejections are config errors here
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    payload = _emit(record, rows, config.format or "json")
    if config.out is not None:
        with open(config.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    print(f"# wall_clock_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())
